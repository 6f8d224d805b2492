package core

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"strconv"
	"strings"
	"testing"
	"time"

	"github.com/jurysdn/jury/internal/cluster"
	"github.com/jurysdn/jury/internal/controller"
	"github.com/jurysdn/jury/internal/openflow"
	"github.com/jurysdn/jury/internal/simnet"
	"github.com/jurysdn/jury/internal/store"
	"github.com/jurysdn/jury/internal/topo"
	"github.com/jurysdn/jury/internal/trigger"
)

// decodeReencode is the normalization Body used before canonical bodies:
// a full encoding/json decode, attribution cleared, and json.Marshal.
func decodeReencode(value string) string {
	var rule controller.FlowRule
	if err := json.Unmarshal([]byte(value), &rule); err != nil {
		return value
	}
	rule.Origin, rule.Trigger, rule.State = 0, "", ""
	b, err := json.Marshal(rule)
	if err != nil {
		panic(err)
	}
	return string(b)
}

func TestBodyMatchesDecodeReencode(t *testing.T) {
	rule := ruleFor(3, "τ1", 2)
	rule.State = controller.RuleAdded
	canonical := rule.Encode()
	long := ruleFor(3, "τ1", 2)
	for i := 0; i < 40; i++ {
		long.Actions = append(long.Actions, openflow.Output(uint16(i)))
	}
	values := []string{
		canonical,
		ruleFor(3, "", 0).Encode(),
		// Longer than the body's stack buffer.
		long.Encode(),
		// Extra spacing.
		strings.ReplaceAll(canonical, ",", ", "),
		" \n" + strings.ReplaceAll(canonical, ":", " : ") + "\t",
		// Reordered fields.
		`{"origin":4,"trigger":"τ1","command":0,"priority":10,"dpid":3,"actions":[{"MaxLen":65535,"Port":2}]}`,
		// \u escapes, in keys and in values.
		`{"dpid":3,"\u0070riority":10,"trigger":"\u03c41","state":"a\u003cb","origin":2}`,
		// null, whole and per field.
		"null",
		`{"dpid":3,"match":null,"actions":null,"trigger":null,"origin":null}`,
		// Invalid UTF-8 in a string.
		`{"dpid":3,"trigger":"bad` + "\xff\xfe" + `","origin":2}`,
		// Not flow rules at all.
		"fwd", "", `{"dpid":"x"}`, `{"dpid":3`,
	}
	for _, value := range values {
		r := Response{Kind: CacheUpdate, Cache: store.FlowsDB, Op: store.OpCreate, Key: "k", Value: value}
		if got, want := r.Body(), "cache|FlowsDB|create|k|"+decodeReencode(value); got != want {
			t.Fatalf("Body for %q:\n got %s\nwant %s", value, got, want)
		}
	}
}

func TestNormalizeNonJSONValueZeroAlloc(t *testing.T) {
	var buf [16]byte
	allocs := testing.AllocsPerRun(1000, func() {
		if got := appendNormalizedValue(buf[:0], store.FlowsDB, "fwd"); string(got) != "fwd" {
			t.Fatalf("normalized fwd = %q", got)
		}
	})
	if allocs != 0 {
		t.Fatalf("normalizing a non-JSON value allocated %v/op, want 0", allocs)
	}
}

// fmtCanonicalMessage is the fmt rendering CanonicalMessage replaced.
func fmtCanonicalMessage(msg openflow.Message) string {
	switch m := msg.(type) {
	case *openflow.FlowMod:
		var b strings.Builder
		fmt.Fprintf(&b, "flowmod|%s|prio=%d|%s|", m.Command, m.Priority, m.Match.String())
		for _, a := range m.Actions {
			fmt.Fprintf(&b, "out:%d,", a.Port)
		}
		fmt.Fprintf(&b, "|idle=%d|hard=%d", m.IdleTimeout, m.HardTimeout)
		return b.String()
	case *openflow.PacketOut:
		var b strings.Builder
		b.WriteString("packetout|")
		for _, a := range m.Actions {
			fmt.Fprintf(&b, "out:%d,", a.Port)
		}
		pf, err := openflow.ParsePacket(m.Data, 0)
		if err == nil {
			fmt.Fprintf(&b, "|eth=0x%04x|src=%s|dst=%s", pf.EthType, pf.EthSrc, pf.EthDst)
		}
		return b.String()
	default:
		return strings.ToLower(msg.Type().String())
	}
}

func TestCanonicalMessageMatchesFmt(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	actions := func() []openflow.Action {
		out := make([]openflow.Action, rng.Intn(4))
		for i := range out {
			out[i] = openflow.Output(uint16(rng.Uint32()))
		}
		return out
	}
	mac := func() openflow.MAC {
		var m openflow.MAC
		rng.Read(m[:])
		return m
	}
	for i := 0; i < 2000; i++ {
		m := openflow.Match{Wildcards: rng.Uint32() & openflow.WildcardAll, InPort: uint16(rng.Uint32()),
			DLSrc: mac(), DLDst: mac(), DLType: uint16(rng.Uint32() >> uint(rng.Intn(16)))}
		msgs := []openflow.Message{
			&openflow.FlowMod{Command: openflow.FlowModCommand(rng.Intn(7)), Priority: uint16(rng.Uint32()),
				Match: m, Actions: actions(), IdleTimeout: uint16(rng.Uint32()), HardTimeout: uint16(rng.Uint32())},
			&openflow.PacketOut{Actions: actions(), Data: openflow.ARPPacket(openflow.ARPRequest, mac(),
				topo.HostIP(rng.Intn(1000)), mac(), topo.HostIP(rng.Intn(1000)))},
			&openflow.PacketOut{Actions: actions(), Data: []byte{1, 2, 3}},
			&openflow.Hello{},
		}
		for _, msg := range msgs {
			if got, want := CanonicalMessage(msg), fmtCanonicalMessage(msg); got != want {
				t.Fatalf("CanonicalMessage = %q, fmt rendering = %q", got, want)
			}
		}
	}
}

// BenchmarkValidatorSubmitFlowsDB drives one external trigger per
// iteration through the FlowsDB path: the primary's rule write, two
// secondaries' replicated writes (the same rule with their own origin,
// so Body must strip attribution) and the master's FLOW_MOD that
// completes the sanity check. The values are real FlowRule.Encode output.
func BenchmarkValidatorSubmitFlowsDB(b *testing.B) {
	eng := simnet.NewEngine(1)
	members := cluster.NewMembership(cluster.AnyControllerOneMaster,
		[]store.NodeID{1, 2, 3}, []topo.DPID{1, 2})
	v := NewValidator(eng, members, ValidatorConfig{K: 2, Timeout: 100 * time.Millisecond})
	rule := ruleFor(1, "τ", 1)
	responses := []Response{
		flowCacheResp(1, 1, "τ", rule, 7),
		flowExecResp(2, 1, "τ", ruleFor(1, "τ", 2), 7),
		flowExecResp(3, 1, "τ", ruleFor(1, "τ", 3), 7),
		netResp(1, 1, "τ", rule),
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		id := "τ" + strconv.Itoa(i)
		for _, r := range responses {
			r.Trigger = trigger.ID(id)
			v.Submit(r)
		}
	}
	if int(v.Valid()) != b.N {
		b.Fatalf("%d of %d triggers valid", v.Valid(), b.N)
	}
}
