// Package core implements JURY itself (§IV): the replicator that
// intercepts and replicates external triggers to k random secondary
// controllers, the per-controller module that taints replicated triggers,
// suppresses secondary side-effects and intercepts cache/network writes,
// and the out-of-band validator that runs Algorithm 1 — state-aware
// consensus, sanity checks between cache and network side-effects, and
// policy checks — raising alarms with precise action attribution.
package core

import (
	"fmt"
	"strconv"
	"strings"
	"time"

	"github.com/jurysdn/jury/internal/controller"
	"github.com/jurysdn/jury/internal/openflow"
	"github.com/jurysdn/jury/internal/store"
	"github.com/jurysdn/jury/internal/topo"
	"github.com/jurysdn/jury/internal/trigger"
)

// ResponseKind classifies a controller response delivered to the validator.
type ResponseKind uint8

// Response kinds.
const (
	// CacheUpdate is a cache event applied at a controller's replica
	// (flows 3c in Fig. 2).
	CacheUpdate ResponseKind = iota + 1
	// NetworkWrite is an outgoing southbound message from a primary
	// controller (flow 4c).
	NetworkWrite
	// SecondaryExec is a captured (and suppressed) side-effect from the
	// replicated execution at a secondary controller (flow 1c).
	SecondaryExec
	// ExecDone marks the completion of a replicated execution that
	// produced no side-effects, letting the validator distinguish
	// no-op consensus from response omission.
	ExecDone
)

// String names the kind.
func (k ResponseKind) String() string {
	switch k {
	case CacheUpdate:
		return "cache"
	case NetworkWrite:
		return "network"
	case SecondaryExec:
		return "exec"
	case ExecDone:
		return "done"
	default:
		return fmt.Sprintf("kind(%d)", uint8(k))
	}
}

// Response is one entry ρ = (id, τ, entry) of Algorithm 1, extended with
// the self-reported state snapshot used for state-aware consensus
// (§IV-C A).
type Response struct {
	Controller store.NodeID
	Trigger    trigger.ID
	Kind       ResponseKind
	// Tainted marks responses from replicated execution (§IV-B(1)).
	Tainted bool
	// Primary identifies the controller that received the original
	// trigger (attribution, §IV-B).
	Primary store.NodeID

	// Cache-entry body (CacheUpdate, or SecondaryExec of a cache write).
	Cache store.CacheName
	Op    store.Op
	Key   string
	Value string

	// Network-write body (NetworkWrite, or SecondaryExec of an egress).
	DPID    topo.DPID
	MsgType openflow.MsgType
	// MsgBody is the canonical form of the network message for
	// comparison and policy evaluation.
	MsgBody string
	// WireLen is the encoded message size, for overhead accounting.
	WireLen int

	// State snapshot of the responding controller (order-insensitive
	// digest plus applied-event count).
	StateDigest  uint64
	StateApplied uint64
	// Prev/PrevOK report the acted-on entry's value at the responder
	// immediately before the write — the per-entry refinement of Ψ's
	// "copy of the latest update" used for equivalent-view comparison.
	Prev   string
	PrevOK bool

	// At is the virtual submission timestamp. It crosses the wire as-is:
	// the protocol's documented time base is virtual nanoseconds since
	// simulation/service start on both ends.
	At time.Duration // vclock:wire -- protocol time base is virtual ns

	// free marks responses that ride an existing replication stream
	// (cache updates) and therefore cost no additional network traffic.
	free bool
}

// IsCache reports whether the response body is a cache entry.
func (r Response) IsCache() bool {
	return r.Kind == CacheUpdate || (r.Kind == SecondaryExec && r.Cache != "")
}

// Body returns the canonical response body used for consensus comparison:
// identical side-effects produce identical bodies regardless of which
// controller produced them.
func (r Response) Body() string {
	_, body := r.canonical()
	return body
}

// Slot returns the comparison slot within a trigger: triggers may elicit
// several side-effects (one flow rule per path switch), and consensus is
// evaluated per slot.
func (r Response) Slot() string {
	slot, _ := r.canonical()
	return slot
}

// canonical renders the slot and the body in one allocation:
//
//	kind            slot                 body
//	ExecDone        done                 done
//	cache entries   cache|<cache>|<key>  cache|<cache>|<op>|<key>|<value>
//	network writes  net|<dpid>|<type>    net|<dpid>|<type>|<MsgBody>
//
// where a FlowsDB <value> is stripped of per-controller attribution.
func (r *Response) canonical() (slot, body string) {
	if r.Kind == ExecDone {
		return "done", "done"
	}
	var buf [512]byte
	var b []byte
	n := 0
	if r.IsCache() {
		b = append(buf[:0], "cache|"...)
		b = append(b, r.Cache...)
		b = append(b, '|')
		prefix := len(b)
		b = append(b, r.Key...)
		n = len(b)
		b = append(b, b[:prefix]...)
		b = append(b, r.Op.String()...)
		b = append(b, '|')
		b = append(b, r.Key...)
		b = append(b, '|')
		b = appendNormalizedValue(b, r.Cache, r.Value)
	} else {
		// The slot is a prefix of the body.
		b = append(buf[:0], "net|"...)
		b = r.DPID.AppendTo(b)
		b = append(b, '|')
		b = append(b, r.MsgType.String()...)
		s := string(append(append(b, '|'), r.MsgBody...))
		return s[:len(b)], s
	}
	s := string(b)
	return s[:n], s[n:]
}

// Size estimates the validator-bound wire size in bytes. Replicated
// execution responses cross the wire as body digests plus the slot key —
// consensus only needs equality, and the primary's full entries reach the
// validator through the tapped cache-replication stream — while primary
// network writes carry their canonical form for the sanity check.
func (r Response) Size() int {
	if r.Kind == ExecDone {
		return 40
	}
	if r.Tainted {
		return 48 + len(r.Key)/4
	}
	return 64 + len(r.MsgBody)/2
}

// appendNormalizedValue appends value stripped of per-controller
// attribution (origin, trigger taint) for FlowsDB, so that the same rule
// computed by different replicas compares equal. Values of other caches,
// and FlowsDB values that are not flow rules, append as they are.
func appendNormalizedValue(b []byte, cache store.CacheName, value string) []byte {
	if cache == store.FlowsDB {
		if out, err := controller.AppendAttributionFree(b, value); err == nil {
			return out
		}
	}
	return append(b, value...)
}

// CanonicalMessage renders a southbound message for comparison: FLOW_MODs
// by their rule semantics, PACKET_OUTs by their action and payload class.
func CanonicalMessage(msg openflow.Message) string {
	var buf [256]byte
	b := buf[:0]
	switch m := msg.(type) {
	case *openflow.FlowMod:
		b = append(b, "flowmod|"...)
		b = append(b, m.Command.String()...)
		b = append(b, "|prio="...)
		b = strconv.AppendUint(b, uint64(m.Priority), 10)
		b = append(b, '|')
		b = m.Match.AppendTo(b)
		b = append(b, '|')
		b = appendOutPorts(b, m.Actions)
		b = append(b, "|idle="...)
		b = strconv.AppendUint(b, uint64(m.IdleTimeout), 10)
		b = append(b, "|hard="...)
		b = strconv.AppendUint(b, uint64(m.HardTimeout), 10)
	case *openflow.PacketOut:
		b = append(b, "packetout|"...)
		b = appendOutPorts(b, m.Actions)
		pf, err := openflow.ParsePacket(m.Data, 0)
		if err == nil {
			b = append(b, "|eth=0x"...)
			for n := hexLen(pf.EthType); n < 4; n++ {
				b = append(b, '0')
			}
			b = strconv.AppendUint(b, uint64(pf.EthType), 16)
			b = append(b, "|src="...)
			b = pf.EthSrc.AppendTo(b)
			b = append(b, "|dst="...)
			b = pf.EthDst.AppendTo(b)
		}
	default:
		return strings.ToLower(msg.Type().String())
	}
	return string(b)
}

// appendOutPorts appends "out:<port>," for each action.
func appendOutPorts(b []byte, actions []openflow.Action) []byte {
	for _, a := range actions {
		b = append(b, "out:"...)
		b = strconv.AppendUint(b, uint64(a.Port), 10)
		b = append(b, ',')
	}
	return b
}

// hexLen returns the number of hex digits in v (at least one).
func hexLen(v uint16) int {
	n := 1
	for v >>= 4; v != 0; v >>= 4 {
		n++
	}
	return n
}
