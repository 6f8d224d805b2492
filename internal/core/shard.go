package core

import (
	"slices"
	"time"

	"github.com/jurysdn/jury/internal/controller"
	"github.com/jurysdn/jury/internal/obs"
	"github.com/jurysdn/jury/internal/openflow"
	"github.com/jurysdn/jury/internal/simnet"
	"github.com/jurysdn/jury/internal/store"
	"github.com/jurysdn/jury/internal/trigger"
)

// psiState is one controller's Ψ entry (§IV-B): its last self-reported
// state snapshot and when it arrived, which make omission conviction
// state-aware. Consensus compares per-response prior values (Prev), so Ψ
// keeps no copy of the controller's latest entry.
type psiState struct {
	// digest is the controller's last self-reported state snapshot.
	digest uint64
	seen   bool
	at     time.Duration
}

// entry is one response held by a pending trigger, with its comparison
// slot and canonical body computed once at submission.
type entry struct {
	Response
	slot string
	body string

	// flowMod caches expectedFlowMod: the body of the FLOW_MOD a FlowsDB
	// write should produce, "" when the value is not a flow rule.
	flowMod     string
	flowModDone bool
}

// expectedFlowMod returns the body of the NetworkWrite response carrying
// the FLOW_MOD this FlowsDB write should produce on the wire, decoding
// the rule on first use only.
func (e *entry) expectedFlowMod() (string, bool) {
	if !e.flowModDone {
		e.flowModDone = true
		if rule, err := controller.DecodeFlowRule(e.Value); err == nil {
			nw := Response{Kind: NetworkWrite, DPID: rule.DPID, MsgType: openflow.TypeFlowMod,
				MsgBody: CanonicalMessage(rule.FlowMod(0))}
			_, e.flowMod = nw.canonical()
		}
	}
	return e.flowMod, e.flowMod != ""
}

// pendingTrigger is the validator's open state for one trigger τ.
type pendingTrigger struct {
	id        trigger.ID
	firstAt   time.Duration
	timer     *simnet.Event
	tainted   bool
	decided   bool
	responses int

	// primaryPsi snapshots Ψ[primary] when the trigger opened, i.e. the
	// primary's last self-reported state close to when the secondaries
	// replayed the trigger.
	primaryPsi    psiState
	primaryPsiSet bool

	// responders lists the controllers that responded, in ascending ID
	// order: the primary and its k secondaries, plus the masters of
	// remote switches the primary's writes reached.
	responders []store.NodeID
	// primary is learned from response attribution.
	primary store.NodeID

	// all holds the responses in arrival order. It is released once the
	// trigger is decided: late responses are only counted.
	all []entry
}

// addResponder records id as a responder, keeping the list sorted.
func (p *pendingTrigger) addResponder(id store.NodeID) {
	i := len(p.responders)
	for i > 0 && p.responders[i-1] >= id {
		if p.responders[i-1] == id {
			return
		}
		i--
	}
	p.responders = slices.Insert(p.responders, i, id)
}

// vshard is one shard of the validation plane: the Ψ table, pending map,
// adaptive-timeout estimator and timers for the triggers whose taint IDs
// hash onto it. Every mutable per-trigger structure lives on exactly one
// shard, so a shard is single-writer by construction: in the simulation
// all shards share the engine goroutine, and in the parallel plane
// (internal/shard) each worker goroutine owns its shard's Validator
// outright. Untainted ψ updates are broadcast to every shard by the
// dispatch layer, which keeps each shard's Ψ equal to the global table.
type vshard struct {
	v  *Validator
	id int

	// Ψ: per-controller self-reported state snapshots.
	psi map[store.NodeID]psiState

	pending map[trigger.ID]*pendingTrigger

	// Adaptive timeout state (EWMA of consensus time and deviation).
	// Deliberately shard-local: with Shards>1 and Adaptive on, each shard
	// tracks the consensus latency of its own trigger population.
	ewmaMean float64
	ewmaDev  float64
	ewmaInit bool

	// Per-shard observability (unregistered zero-value instances when the
	// validator runs single-sharded, so the hot path never branches).
	pendingG *obs.Gauge
	decidedC *obs.Counter
	faultsC  *obs.Counter
}

// observe applies an untainted response's Ψ update. The dispatch layer
// broadcasts these to every shard so state-aware omission checks see the
// same Ψ regardless of which shard owns the trigger.
func (s *vshard) observe(r Response) {
	st := s.psi[r.Controller]
	st.digest = r.StateDigest
	st.seen = true
	st.at = s.v.eng.Now()
	s.psi[r.Controller] = st
	if s.v.rec != nil {
		s.v.rec.Record(obs.Event{
			AtNS: int64(st.at), Kind: obs.EvPsi,
			Trigger: string(r.Trigger), Ctrl: int64(r.Controller),
		})
	}
}

// submit runs the per-trigger half of Algorithm 1 for a response whose
// taint ID hashes onto this shard. Ψ has already been updated (observe
// runs first for untainted responses).
func (s *vshard) submit(r Response) {
	v := s.v
	p, ok := s.pending[r.Trigger]
	if !ok {
		p = &pendingTrigger{
			id:         r.Trigger,
			firstAt:    v.eng.Now(),
			responders: make([]store.NodeID, 0, v.cfg.K+1),
			all:        make([]entry, 0, v.cfg.K+1),
		}
		to := s.timeout()
		p.timer = v.eng.Schedule(to, func() { s.expire(p) })
		s.pending[r.Trigger] = p
		v.pendingG.Add(1)
		s.pendingG.Add(1)
		if v.tracer != nil {
			id := string(r.Trigger)
			// Ensure a root exists (idempotent: the replicator's
			// replicate-time open wins for external triggers; internal
			// triggers open here).
			v.tracer.StartTrigger(id, "")
			v.tracer.StartSpan(id, "validate", "validator")
		}
		if v.rec != nil {
			v.rec.Record(obs.Event{
				AtNS: int64(p.firstAt), Kind: obs.EvSubmit,
				Trigger: string(r.Trigger), Arg: int64(to),
			})
		}
	}
	if p.decided {
		v.lateResponses.Inc()
		if v.rec != nil {
			v.rec.Record(obs.Event{
				AtNS: int64(v.eng.Now()), Kind: obs.EvResponse,
				Trigger: string(r.Trigger), Ctrl: int64(r.Controller),
				Detail: "late",
			})
		}
		return
	}
	if v.rec != nil {
		v.rec.Record(obs.Event{
			AtNS: int64(v.eng.Now()), Kind: obs.EvResponse,
			Trigger: string(r.Trigger), Ctrl: int64(r.Controller),
		})
	}
	p.responses++
	e := entry{Response: r}
	e.slot, e.body = r.canonical()
	p.all = append(p.all, e)
	p.addResponder(r.Controller)
	if r.Tainted {
		p.tainted = true
	}
	if r.Primary != 0 {
		p.primary = r.Primary
		if !p.primaryPsiSet {
			p.primaryPsi = s.psi[r.Primary]
			p.primaryPsiSet = true
		}
	}
	// Early decision once an unambiguous outcome exists (consensus
	// reached on every slot and sanity satisfied, or a quorum already
	// contradicts the primary).
	if res, conclusive := v.evaluate(p, false); conclusive {
		s.finish(p, res, false)
	}
}

func (s *vshard) timeout() time.Duration {
	if !s.v.cfg.Adaptive || !s.ewmaInit {
		return s.v.cfg.Timeout
	}
	t := time.Duration(s.ewmaMean + s.v.cfg.AdaptiveFactor*s.ewmaDev)
	if min := 2 * time.Millisecond; t < min {
		t = min
	}
	if t > s.v.cfg.Timeout {
		t = s.v.cfg.Timeout
	}
	return t
}

func (s *vshard) expire(p *pendingTrigger) {
	if p.decided {
		return
	}
	v := s.v
	v.totalTimeouts.Inc()
	if v.rec != nil {
		v.rec.Record(obs.Event{
			AtNS: int64(v.eng.Now()), Kind: obs.EvTimer,
			Trigger: string(p.id),
		})
	}
	if v.OnTimeoutResponses != nil {
		v.OnTimeoutResponses(p.id, responsesOf(p.all))
	}
	s.decide(p, true)
}

// decide runs the full CONSENSUS / SANITY_CHECK / POLICY_CHECK cascade and
// finishes the trigger.
func (s *vshard) decide(p *pendingTrigger, timedOut bool) {
	res, _ := s.v.evaluate(p, true)
	s.finish(p, res, timedOut)
}

func (s *vshard) finish(p *pendingTrigger, res Result, timedOut bool) {
	v := s.v
	p.decided = true
	p.timer.Cancel()
	// Retain the decided entry for a grace period so responses still in
	// flight are absorbed as late responses rather than resurrecting the
	// trigger as a ghost that would time out as a spurious omission.
	grace := 2 * v.cfg.Timeout
	if grace < time.Second {
		grace = time.Second
	}
	v.eng.Schedule(grace, func() {
		if _, ok := s.pending[p.id]; ok {
			delete(s.pending, p.id)
			v.pendingG.Add(-1)
			s.pendingG.Add(-1)
		}
	})
	res.Trigger = p.id
	res.Responses = p.responses
	res.DecidedAt = v.eng.Now()
	res.DetectionTime = res.DecidedAt - p.firstAt
	res.TimedOut = timedOut
	v.Detections.Add(res.DetectionTime)
	if res.Kind == trigger.External {
		v.DetectionsExternal.Add(res.DetectionTime)
	}
	s.updateAdaptive(res.DetectionTime)
	v.totalDecided.Inc()
	s.decidedC.Inc()
	switch res.Verdict {
	case VerdictValid:
		v.totalValid.Inc()
	case VerdictNonDeterministic:
		v.totalNonDet.Inc()
	case VerdictFault:
		v.totalFaults.Inc()
		s.faultsC.Inc()
		evidence := p.all
		if len(evidence) > 32 {
			evidence = evidence[:32]
		}
		res.Evidence = responsesOf(evidence)
		if v.alarms.Len() < v.cfg.MaxAlarms {
			v.alarms.Append(res)
		}
	}
	// Late responses are only counted, so the decided trigger keeps no
	// responses through its grace period.
	p.all, p.responders = nil, nil
	if v.tracer != nil {
		id := string(p.id)
		v.tracer.EndSpan(id, "validate", "validator", res.Reason)
		v.tracer.EndTrigger(id, res.Verdict.String(), res.Fault.String())
	}
	if v.rec != nil {
		v.rec.Record(obs.Event{
			AtNS: int64(res.DecidedAt), Kind: obs.EvVerdict,
			Trigger: string(p.id),
			Verdict: res.Verdict.String(), Fault: res.Fault.String(),
			Detail: res.Reason, Arg: int64(res.Responses),
		})
	}
	if v.OnResult != nil {
		v.OnResult(res)
	}
}

// responsesOf copies the responses out of entries (nil for none).
func responsesOf(entries []entry) []Response {
	if len(entries) == 0 {
		return nil
	}
	out := make([]Response, len(entries))
	for i := range entries {
		out[i] = entries[i].Response
	}
	return out
}

func (s *vshard) updateAdaptive(d time.Duration) {
	const alpha = 0.05
	x := float64(d)
	if !s.ewmaInit {
		s.ewmaMean = x
		s.ewmaInit = true
		return
	}
	dev := x - s.ewmaMean
	if dev < 0 {
		dev = -dev
	}
	s.ewmaMean = (1-alpha)*s.ewmaMean + alpha*x
	s.ewmaDev = (1-alpha)*s.ewmaDev + alpha*dev
}
