package controller

import (
	"encoding/json"
	"errors"
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"github.com/jurysdn/jury/internal/openflow"
	"github.com/jurysdn/jury/internal/store"
	"github.com/jurysdn/jury/internal/topo"
	"github.com/jurysdn/jury/internal/trigger"
)

// refDecode and refEncode are the reference codec: encoding/json alone.
func refDecode(s string) (FlowRule, error) {
	var r FlowRule
	if err := json.Unmarshal([]byte(s), &r); err != nil {
		return FlowRule{}, err
	}
	return r, nil
}

func refEncode(r FlowRule) string {
	b, err := json.Marshal(r)
	if err != nil {
		panic(err)
	}
	return string(b)
}

// refAttributionFree is the decode, clear and re-encode that
// AppendAttributionFree replaces.
func refAttributionFree(s string) (string, error) {
	r, err := refDecode(s)
	if err != nil {
		return "", err
	}
	r.Origin, r.Trigger, r.State = 0, "", ""
	return refEncode(r), nil
}

// checkCodec asserts the codec contract on one input: DecodeFlowRule and
// encoding/json agree on whether s is an error and on the decoded rule;
// an accepted rule encodes as json.Marshal does; the fast path accepts
// only the exact bytes Encode writes; and AppendAttributionFree agrees
// with the decode-clear-encode it replaces.
func checkCodec(t *testing.T, s string) {
	t.Helper()
	got, err := DecodeFlowRule(s)
	want, wantErr := refDecode(s)
	if (err == nil) != (wantErr == nil) {
		t.Fatalf("DecodeFlowRule(%q): err = %v, encoding/json err = %v", s, err, wantErr)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("DecodeFlowRule(%q) = %#v, encoding/json = %#v", s, got, want)
	}
	if err == nil {
		if enc, ref := got.Encode(), refEncode(got); enc != ref {
			t.Fatalf("Encode = %s, json.Marshal = %s", enc, ref)
		}
	}
	var fast FlowRule
	if _, ok := parseCanonicalRule(s, &fast, true); ok {
		if err != nil || got.Encode() != s {
			t.Fatalf("fast path accepted non-canonical %q", s)
		}
	}
	af, afErr := AppendAttributionFree([]byte("x"), s)
	ref, refErr := refAttributionFree(s)
	if (afErr == nil) != (refErr == nil) || string(af) != "x"+ref {
		t.Fatalf("AppendAttributionFree(%q) = %q, %v; reference = %q, %v", s, af, afErr, ref, refErr)
	}
}

// codecRules covers every field at its edges, both action-list forms and
// strings on each side of the canonical/escaped line.
func codecRules() []FlowRule {
	many := make([]openflow.Action, 11)
	for i := range many {
		many[i] = openflow.Action{Port: uint16(i * 7), MaxLen: uint16(i)}
	}
	full := openflow.Match{
		Wildcards: math.MaxUint32, InPort: math.MaxUint16,
		DLSrc: openflow.MAC{255, 0, 1, 254, 9, 10}, DLDst: openflow.MAC{1, 2, 3, 4, 5, 6},
		DLVLAN: 4095, DLVLANPCP: 7, DLType: 0x0800, NWTOS: 255, NWProto: 17,
		NWSrc: openflow.IPv4{10, 0, 0, 1}, NWDst: openflow.IPv4{255, 255, 255, 255},
		TPSrc: 80, TPDst: 65535,
	}
	return []FlowRule{
		{},
		{Actions: []openflow.Action{}},
		{
			DPID: 3, Match: openflow.ExactSrcDst(topo.HostMAC(1), topo.HostMAC(2)), Priority: 10,
			Actions: []openflow.Action{openflow.Output(4)}, IdleTimeout: 10,
			Command: uint16(openflow.FlowAdd), Trigger: "τ1", Origin: 2,
		},
		{
			DPID: math.MaxUint64, Match: full, Priority: math.MaxUint16, Actions: many,
			IdleTimeout: math.MaxUint16, HardTimeout: 1, Command: math.MaxUint16,
			Trigger: "ext-42", Origin: math.MinInt64, State: RuleAdded,
		},
		{DPID: 1, Origin: math.MaxInt64, State: RuleStuck},
		{DPID: 1, Origin: -7, Trigger: "a<b>&c"},
		{DPID: 1, Trigger: "line\u2028sep", State: "tab\there"},
		{DPID: 1, Trigger: "bad\xffutf8", State: `quote"back\slash`},
		{DPID: 1, Trigger: "\x7f日本"},
	}
}

func TestFlowRuleEncodeMatchesJSON(t *testing.T) {
	for _, r := range codecRules() {
		if got, want := r.Encode(), refEncode(r); got != want {
			t.Fatalf("Encode = %s\njson.Marshal = %s", got, want)
		}
		checkCodec(t, r.Encode())
	}
}

// codecInputs are non-canonical and invalid encodings: each must decode
// (or fail) exactly as encoding/json does.
var codecInputs = []string{
	"", " ", "fwd", "not json", `"fwd"`, "[1]", "1", "true", "null", " null ", "nul", "{}", "{", " {} ",
	`{"dpid": 3}`,
	`{"origin":2,"dpid":3,"priority":10}`,
	`{"dpid":3,"trigger":"τ1","origin":2}`,
	`{"dpid":3,"trigger":"a<b","origin":0}`,
	`{"dpid":3,"trigger":"bad` + "\xff" + `","origin":0}`,
	`{"dpid":3,"actions":null,"trigger":null,"origin":0}`,
	`{"DPID":3,"Priority":1}`,
	`{"dpid":3,"dpid":4}`,
	`{"dpid":3,"unknown":[1,{"x":2}]}`,
	`{"dpid":-1}`, `{"dpid":1.0}`, `{"dpid":1e2}`, `{"dpid":01}`, `{"dpid":18446744073709551616}`,
	`{"match":{"DLSrc":[1,2,3]}}`, `{"match":{"DLSrc":[1,2,3,4,5,6,7]}}`, `{"match":{"DLSrc":[256,0,0,0,0,0]}}`,
	`{"priority":65536}`, `{"origin":-0}`, `{"origin":9223372036854775808}`, `{"origin":-9223372036854775809}`,
	`{"actions":[{"Port":1,"MaxLen":2},]}`,
}

func TestDecodeFlowRuleMatchesJSON(t *testing.T) {
	for _, s := range codecInputs {
		checkCodec(t, s)
	}
	// Every canonical rule, perturbed: trailing bytes, a dropped byte, an
	// inserted space.
	for _, r := range codecRules() {
		s := r.Encode()
		checkCodec(t, s+" ")
		checkCodec(t, s+"x")
		for i := 0; i < len(s); i += 7 {
			checkCodec(t, s[:i]+s[i+1:])
			checkCodec(t, s[:i]+" "+s[i:])
		}
	}
}

func TestDecodeFlowRuleNonObjectIsPreallocated(t *testing.T) {
	for _, s := range []string{"", "fwd", "up", `"x"`, " 1"} {
		if _, err := DecodeFlowRule(s); !errors.Is(err, errNotFlowRule) {
			t.Fatalf("DecodeFlowRule(%q) err = %v, want errNotFlowRule", s, err)
		}
	}
	allocs := testing.AllocsPerRun(100, func() {
		if _, err := DecodeFlowRule("fwd"); err == nil {
			t.Fatal("accepted fwd")
		}
	})
	if allocs != 0 {
		t.Fatalf("rejecting a non-JSON value allocated %v times", allocs)
	}
}

// randomRule draws a rule over the whole field space.
func randomRule(rng *rand.Rand) FlowRule {
	var r FlowRule
	r.DPID = topo.DPID(rng.Uint64() >> uint(rng.Intn(64)))
	m := &r.Match
	m.Wildcards = rng.Uint32()
	if rng.Intn(2) == 0 {
		m.Wildcards &= openflow.WildcardAll
	}
	m.InPort = uint16(rng.Uint32())
	rng.Read(m.DLSrc[:])
	rng.Read(m.DLDst[:])
	m.DLVLAN = uint16(rng.Uint32())
	m.DLVLANPCP = uint8(rng.Uint32())
	m.DLType = uint16(rng.Uint32() >> uint(rng.Intn(16)))
	m.NWTOS = uint8(rng.Uint32())
	m.NWProto = uint8(rng.Uint32())
	rng.Read(m.NWSrc[:])
	rng.Read(m.NWDst[:])
	m.TPSrc = uint16(rng.Uint32())
	m.TPDst = uint16(rng.Uint32())
	r.Priority = uint16(rng.Uint32())
	switch n := rng.Intn(12) - 1; {
	case n < 0:
	default:
		r.Actions = make([]openflow.Action, n)
		for i := range r.Actions {
			r.Actions[i] = openflow.Action{Port: uint16(rng.Uint32()), MaxLen: uint16(rng.Uint32())}
		}
	}
	if rng.Intn(2) == 0 {
		r.IdleTimeout = uint16(rng.Uint32())
	}
	if rng.Intn(2) == 0 {
		r.HardTimeout = uint16(rng.Uint32())
	}
	r.Command = uint16(rng.Intn(5))
	alphabet := []string{"a", "Z", "9", "-", "τ", "<", "\\", `"`, "\n", "\xff", "\u2028", "\u2029", " "}
	pick := func() string {
		var b strings.Builder
		for i := rng.Intn(6); i > 0; i-- {
			b.WriteString(alphabet[rng.Intn(len(alphabet))])
		}
		return b.String()
	}
	r.Trigger = trigger.ID(pick())
	r.State = pick()
	r.Origin = store.NodeID(rng.Int63() - rng.Int63())
	return r
}

func TestFlowRuleCodecRandomized(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 3000; i++ {
		r := randomRule(rng)
		s := r.Encode()
		if want := refEncode(r); s != want {
			t.Fatalf("Encode = %s\njson.Marshal = %s", s, want)
		}
		checkCodec(t, s)
	}
}

// refKey is the fmt rendering Key replaced.
func refKey(r FlowRule) string {
	h := fnv.New64a()
	fmt.Fprintf(h, "%d|%s|%d", r.DPID, r.Match.String(), r.Priority)
	return fmt.Sprintf("of:%016x/%016x", uint64(r.DPID), h.Sum64())
}

func TestFlowRuleKeyBytes(t *testing.T) {
	full := openflow.Match{
		InPort: 7, DLSrc: openflow.MAC{0xde, 0xad, 0xbe, 0xef, 0, 1}, DLType: 0x800, NWProto: 6,
		NWSrc: openflow.IPv4{10, 0, 0, 1}, NWDst: openflow.IPv4{192, 168, 1, 255}, TPSrc: 80, TPDst: 443,
	}.WithNWSrcMask(8)
	golden := []struct {
		rule FlowRule
		key  string
	}{
		{FlowRule{DPID: 3, Match: openflow.ExactSrcDst(topo.HostMAC(1), topo.HostMAC(2)), Priority: 10}, "of:0000000000000003/ca1d27b585f0f361"},
		{FlowRule{DPID: 1 << 63, Match: openflow.MatchAll()}, "of:8000000000000000/68c4b7f3a2f79264"},
		{FlowRule{DPID: 42, Match: full, Priority: 65535}, "of:000000000000002a/f2490e6d5fb40b87"},
	}
	for _, g := range golden {
		if got := g.rule.Key(); got != g.key {
			t.Fatalf("Key = %s, want %s", got, g.key)
		}
	}
	rng := rand.New(rand.NewSource(11))
	for i := 0; i < 2000; i++ {
		r := randomRule(rng)
		if got, want := r.Key(), refKey(r); got != want {
			t.Fatalf("Key(%+v) = %s, fmt rendering = %s", r, got, want)
		}
	}
}

// FuzzDecodeFlowRule is the differential contract of the FlowsDB codec:
// the fast path and encoding/json agree on every input (see checkCodec).
func FuzzDecodeFlowRule(f *testing.F) {
	for _, r := range codecRules() {
		f.Add(r.Encode())
	}
	for _, s := range codecInputs {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) {
		checkCodec(t, s)
	})
}

func BenchmarkDecodeFlowRule(b *testing.B) {
	s := codecRules()[2].Encode()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := DecodeFlowRule(s); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFlowRuleEncode(b *testing.B) {
	r := codecRules()[2]
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = r.Encode()
	}
}
