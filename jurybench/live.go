package main

import (
	"fmt"
	"hash/fnv"
	"math"
	"sync"
	"time"

	"github.com/jurysdn/jury/internal/core"
	"github.com/jurysdn/jury/internal/wire"
)

// Pacing and validity bounds of the open-loop generator.
const (
	// maxTick is the longest the generator sleeps between send rounds.
	maxTick = time.Millisecond
	// lagBound is the generator lateness (p99 over envelopes) beyond
	// which a run measures the harness, not the server, and is invalid.
	lagBound = 25 * time.Millisecond
	// growthDiv sets how far the median decision latency of a run's last
	// fifth of triggers may exceed its first fifth's before the backlog
	// counts as growing: θτ/growthDiv. Tighter bounds mistake a late
	// Pareto burst for sustained overload.
	growthDiv = 4
)

// liveSpec is one live workload's fixed configuration.
type liveSpec struct {
	Daemon daemonArgs
	Stream streamSpec // Rate and Window are set per probe
}

// probe is the outcome of one paced run against a fresh juryd.
type probe struct {
	Rate      float64
	Setup     time.Duration
	Triggers  int64
	Envelopes int64
	Events    int64
	// Errors counts triggers whose verdict differs from the generator's
	// ground truth or that got no verdict.
	Errors int64
	// Omissions counts triggers whose primary was dropped: an omission
	// alarm is their correct verdict.
	Omissions int64
	// Received counts every pushed result, duplicates included.
	Received int64
	// Duplicates counts results for a trigger that already had one; each
	// is also an error, since a trigger is decided exactly once.
	Duplicates int64
	Dropped    int64
	Reconnects int64
	LagP99     time.Duration
	// Benign and Alarm hold decision latencies (ms) of benign-truth and
	// omission-truth triggers, in trigger order.
	Benign []float64
	Alarm  []float64
	// Growth is the last-fifth minus first-fifth median benign latency.
	Growth    time.Duration
	ServerCPU time.Duration
	PeakRSSMB float64

	// Traced runs only.
	SendNS     float64 // mean Client.Send call
	NextNS     float64 // mean event synthesis + mapping per event
	BacklogMax int
	Server     map[string]float64 // juryd /metrics at the end of the run
	WireDigest uint64             // FNV-1a64 over every frame sent
}

// lagValid reports whether the generator kept its schedule.
func (p *probe) lagValid() bool { return p.LagP99 <= lagBound }

// sustained reports whether juryd kept up at this rate: no sheds, every
// verdict right, no growing backlog and the decision p99 inside θτ.
func (p *probe) sustained(deadline time.Duration) bool {
	if p.Dropped > 0 || p.Errors > 0 || p.Growth > deadline/growthDiv || len(p.Benign) == 0 {
		return false
	}
	return quantile(append([]float64(nil), p.Benign...), 0.99) <= ms(deadline)
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// verdict is one result pushed back to the client.
type verdict struct {
	n     int64
	at    time.Time // arrival at the client
	valid bool
	omit  bool // omission alarm
}

// collector gathers pushed results from the client's reader goroutine.
type collector struct {
	mu sync.Mutex
	vs []verdict
}

func (c *collector) onResult(r core.Result) {
	at := time.Now()
	n, ok := triggerNum(r.Trigger)
	if !ok {
		return
	}
	v := verdict{
		n:     n,
		at:    at,
		valid: r.Verdict == core.VerdictValid,
		omit:  r.Verdict == core.VerdictFault && r.Fault == core.FaultOmission,
	}
	c.mu.Lock()
	c.vs = append(c.vs, v)
	c.mu.Unlock()
}

func (c *collector) count() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.vs)
}

// truth is one trigger's expected outcome and schedule.
type truth struct {
	due     time.Duration // due time of its last envelope
	dropped bool          // primary dropped: an omission alarm is correct
}

// schedule is how one probe maps its stream onto wall time.
type schedule struct {
	stream  streamSpec
	horizon time.Duration // last virtual instant sent
	scale   float64       // wall time per unit of virtual time
	span    time.Duration // wall length of the send window
	rate    float64       // mean trigger rate the schedule offers
}

// natural is the campaign's own schedule: the stream of rate over
// window, sent in real time.
func natural(ss streamSpec, rate float64, window time.Duration) schedule {
	ss.Rate, ss.Window = rate, window
	return schedule{stream: ss, horizon: window, scale: 1, span: window, rate: rate}
}

// compressed offers exactly rate on average over window: it takes the
// first rate×window triggers of the reference stream ref and scales
// time so they span the window. Every capacity probe of a run replays
// the same prefix, so probes differ only in speed and the search sees a
// monotone load instead of each rate's own burst pattern.
func compressed(ref streamSpec, fab fabric, rate float64, window time.Duration) (schedule, error) {
	n := int64(math.Round(rate * window.Seconds()))
	h, err := prefixHorizon(ref, fab, n)
	if err != nil {
		return schedule{}, err
	}
	return schedule{stream: ref, horizon: h, scale: float64(window) / float64(h), span: window, rate: rate}, nil
}

// runProbe streams one scheduled window to a fresh juryd and checks
// every verdict against the generator's ground truth.
func runProbe(bin string, fab fabric, spec liveSpec, sched schedule, traced bool) (*probe, error) {
	m, err := newMapper(sched.stream, fab)
	if err != nil {
		return nil, err
	}
	m.horizon = sched.horizon
	d, err := startDaemon(bin, spec.Daemon)
	if err != nil {
		return nil, err
	}
	p, err := paced(d, m, spec, sched, traced)
	if err != nil {
		d.kill()
		return nil, err
	}
	if err := d.stop(); err != nil {
		return nil, err
	}
	p.Rate = sched.rate
	return p, nil
}

func paced(d *daemon, m *mapper, spec liveSpec, sched schedule, traced bool) (*probe, error) {
	col := &collector{}
	c, err := wire.DialConfig(d.addr, wire.ClientConfig{Codec: wire.CodecBinary, OnResult: col.onResult})
	if err != nil {
		return nil, err
	}
	setup := time.Since(d.started) // juryd exec to this client's accepted dial
	cpu0, err := d.cpu()
	if err != nil {
		_ = c.Close()
		return nil, err
	}
	p := &probe{Setup: setup}
	var (
		truths   = make([]truth, 0, int(sched.rate*sched.span.Seconds()*1.1)+16)
		lags     = make([]float64, 0, cap(truths)*3)
		sendDur  time.Duration
		nextDur  time.Duration
		sends    int64
		frame    []byte
		wireHash = fnv.New64a()
	)
	t0 := time.Now()
	for {
		var t1 time.Time
		if traced {
			t1 = time.Now()
		}
		st, ok := m.next()
		if traced {
			nextDur += time.Since(t1)
		}
		if !ok {
			break
		}
		if st.trigger > 0 {
			truths = append(truths, truth{due: sched.due(st.resps[len(st.resps)-1].At), dropped: st.dropped})
		}
		for i := range st.resps {
			due := sched.due(st.resps[i].At)
			for {
				now := time.Since(t0)
				if now >= due {
					lags = append(lags, ms(now-due))
					break
				}
				if traced {
					if b := c.Backlog(); b > p.BacklogMax {
						p.BacklogMax = b
					}
				}
				time.Sleep(min(due-now, maxTick))
			}
			if traced {
				t1 = time.Now()
			}
			// Stamp the wall schedule as the response's virtual time, so
			// the stream juryd receives is the one the replay re-runs.
			st.resps[i].At = due
			if traced {
				env := wire.Envelope{Type: wire.TypeResponse, Response: &st.resps[i]}
				frame = wire.AppendEnvelope(frame[:0], &env)
				wireHash.Write(frame) // hash.Hash.Write never fails
			}
			if err := c.Send(st.resps[i]); err != nil {
				_ = c.Close()
				return nil, err
			}
			if traced {
				sendDur += time.Since(t1)
				sends++
			}
		}
	}
	// Drain: every trigger decides by quorum or by its deadline; allow
	// one more deadline plus slack for the last pushes to land.
	want := len(truths)
	stopAt := sched.span + 2*spec.Daemon.Timeout + 500*time.Millisecond
	for col.count() < want && time.Since(t0) < stopAt {
		time.Sleep(2 * time.Millisecond)
	}
	cpu1, err := d.cpu()
	if err != nil {
		_ = c.Close()
		return nil, err
	}
	if p.PeakRSSMB, err = d.peakRSSMB(); err != nil {
		_ = c.Close()
		return nil, err
	}
	if traced {
		if p.Server, err = d.scrape(); err != nil {
			_ = c.Close()
			return nil, fmt.Errorf("scrape juryd: %w", err)
		}
	}
	p.Dropped, p.Reconnects = c.Dropped(), c.Reconnects()
	if err := c.Close(); err != nil {
		return nil, err
	}
	p.ServerCPU = cpu1 - cpu0
	p.Triggers, p.Envelopes, p.Events, p.Omissions = m.Triggers, m.Envelopes, m.Events, m.Dropped
	p.LagP99 = time.Duration(quantile(lags, 0.99) * float64(time.Millisecond))
	if traced {
		p.WireDigest = wireHash.Sum64()
		p.NextNS = float64(nextDur.Nanoseconds()) / float64(max(m.Events, 1))
		p.SendNS = float64(sendDur.Nanoseconds()) / float64(max(sends, 1))
	}
	col.mu.Lock()
	vs := col.vs
	col.mu.Unlock()
	p.Received = int64(len(vs))
	p.grade(t0, truths, vs)
	return p, nil
}

// due is the wall offset a response with virtual time at is sent at.
func (s schedule) due(at time.Duration) time.Duration {
	return time.Duration(float64(at) * s.scale)
}

// grade matches pushed verdicts to ground truth and fills the latency
// samples, error count and backlog growth. A trigger's first verdict is
// graded; any later one, such as a late alarm for a trigger already
// decided valid, is an error of its own.
func (p *probe) grade(t0 time.Time, truths []truth, vs []verdict) {
	got := make([]*verdict, len(truths))
	for i := range vs {
		v := &vs[i]
		switch {
		case v.n < 1 || v.n > int64(len(truths)):
			p.Errors++ // a verdict for a trigger this run never opened
		case got[v.n-1] != nil:
			p.Duplicates++
			p.Errors++
		default:
			got[v.n-1] = v
		}
	}
	for i, t := range truths {
		v := got[i]
		switch {
		case v == nil:
			p.Errors++
		case t.dropped && v.omit:
			p.Alarm = append(p.Alarm, ms(v.at.Sub(t0)-t.due))
		case !t.dropped && v.valid:
			p.Benign = append(p.Benign, ms(v.at.Sub(t0)-t.due))
		default:
			p.Errors++
		}
	}
	if n := len(p.Benign) / 5; n > 0 {
		head := median(p.Benign[:n])
		tail := median(p.Benign[len(p.Benign)-n:])
		p.Growth = time.Duration((tail - head) * float64(time.Millisecond))
	}
}

// searchCapacity finds the highest paced trigger rate juryd sustains:
// it grows the rate geometrically from start until a probe fails, then
// bisects (in log space) between the last pass and the lowest failure.
// A failure counts only once a second probe at that rate fails too, so
// one burst of contention from outside cannot end the search. A probe
// whose generator fell behind fails like an overloaded server: the
// generator shares the machine with juryd, so the rate is beyond what
// the two sustain together.
func searchCapacity(bin string, fab fabric, spec liveSpec, start float64, window time.Duration, steps int) (capacity float64, probes []*probe, err error) {
	ref := spec.Stream
	ref.Rate, ref.Window = start, window
	lo, hi := 0.0, 0.0
	rate := start
	retried := false
	for len(probes) < steps {
		if lo > 0 && hi > 0 {
			rate = math.Sqrt(lo * hi)
		}
		sched, err := compressed(ref, fab, math.Round(rate), window)
		if err != nil {
			return 0, probes, err
		}
		p, err := runProbe(bin, fab, spec, sched, false)
		if err != nil {
			return 0, probes, err
		}
		probes = append(probes, p)
		switch {
		case p.lagValid() && p.sustained(spec.Daemon.Timeout):
			lo, retried = rate, false
			if hi == 0 {
				rate *= 1.25
			}
		case !retried:
			retried = true // confirm the failure at the same rate
		default:
			hi, retried = rate, false
			if lo == 0 {
				rate /= 2
			}
		}
	}
	return lo, probes, nil
}
