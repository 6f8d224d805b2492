package wire

import (
	"encoding/binary"
	"errors"
	"reflect"
	"testing"
	"time"
	"unsafe"

	"github.com/jurysdn/jury/internal/core"
)

// fuzzSeedEnvelopes covers every envelope type and optional body.
func fuzzSeedEnvelopes() []Envelope {
	r1, r2 := fullResponse(2), fullResponse(3)
	res := core.Result{
		Trigger: "τ-res", Verdict: core.VerdictFault, Fault: core.FaultValue, Offender: 1,
		Reason: "primary disagrees with quorum", Responses: 3, DetectionTime: 250 * time.Millisecond,
		DecidedAt: 17 * time.Second, TimedOut: true, Evidence: []core.Response{r1, r2},
	}
	return []Envelope{
		{Type: TypeResponse, Response: &r1, Trace: &TraceContext{Origin: "jurylive", BaseNS: 123456789}},
		{Type: TypeResult, Result: &res},
		{Type: TypeStats, Stats: &Stats{Decided: 10, Valid: 8, Faults: 1, Timeouts: 1, Pending: 3}},
		{Type: TypePing},
		{Type: TypePong},
		{Type: TypeResponse, Response: &r1, Result: &res, Stats: &Stats{Decided: 1}, Trace: &TraceContext{Origin: "x", BaseNS: -5}},
	}
}

// inFrame reports whether s's bytes lie inside buf (an empty string
// borrows nothing).
func inFrame(buf []byte, s string) bool {
	if len(s) == 0 {
		return true
	}
	if len(buf) == 0 {
		return false
	}
	p := uintptr(unsafe.Pointer(unsafe.StringData(s)))
	base := uintptr(unsafe.Pointer(unsafe.SliceData(buf)))
	return p >= base && p+uintptr(len(s)) <= base+uintptr(len(buf))
}

// envelopeStrings lists every string a decoded envelope borrows.
func envelopeStrings(env *Envelope) []string {
	var out []string
	addResponse := func(r *core.Response) {
		out = append(out, string(r.Trigger), string(r.Cache), r.Key, r.Value, r.MsgBody, r.Prev)
	}
	if env.Response != nil {
		addResponse(env.Response)
	}
	if env.Result != nil {
		out = append(out, string(env.Result.Trigger), env.Result.Reason)
		for i := range env.Result.Evidence {
			addResponse(&env.Result.Evidence[i])
		}
	}
	if env.Trace != nil {
		out = append(out, env.Trace.Origin)
	}
	return out
}

// FuzzBinDecoder feeds arbitrary frame payloads to BinDecoder. It must
// never panic, reject bad payloads only with ErrMalformedFrame, borrow
// strings only from inside the frame, and every envelope it accepts must
// re-encode to a frame that decodes to the same envelope.
func FuzzBinDecoder(f *testing.F) {
	for _, env := range fuzzSeedEnvelopes() {
		frame := AppendEnvelope(nil, &env)
		_, pn := binary.Uvarint(frame)
		f.Add(frame[pn:])
	}
	f.Add([]byte{})
	f.Add([]byte{9, 0})
	f.Add([]byte{binTypeResult, flagResult, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0xFF, 0xFF, 0xFF, 0x7F})
	f.Fuzz(func(t *testing.T, payload []byte) {
		// A frame whose capacity ends where it does: reading past it
		// panics instead of seeing neighbouring bytes.
		buf := append([]byte(nil), payload...)
		buf = buf[:len(buf):len(buf)]
		var dec BinDecoder
		env, err := dec.Decode(buf)
		if err != nil {
			if !errors.Is(err, ErrMalformedFrame) {
				t.Fatalf("Decode error %v, want ErrMalformedFrame", err)
			}
			return
		}
		for _, s := range envelopeStrings(env) {
			if !inFrame(buf, s) {
				t.Fatalf("decoded string %q does not borrow from the frame", s)
			}
		}
		frame := AppendEnvelope(nil, env)
		n, pn := binary.Uvarint(frame)
		if pn <= 0 || int(n) != len(frame)-pn {
			t.Fatalf("re-encoded frame has a bad length prefix (n=%d pn=%d len=%d)", n, pn, len(frame))
		}
		var again BinDecoder
		got, err := again.Decode(frame[pn:])
		if err != nil {
			t.Fatalf("re-encoded envelope does not decode: %v", err)
		}
		if !reflect.DeepEqual(got, env) {
			t.Fatalf("round trip mismatch:\n got %+v\nwant %+v", got, env)
		}
	})
}
