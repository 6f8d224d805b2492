package controller

import (
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"strconv"
	"strings"
	"unicode/utf8"

	"github.com/jurysdn/jury/internal/openflow"
	"github.com/jurysdn/jury/internal/store"
	"github.com/jurysdn/jury/internal/topo"
	"github.com/jurysdn/jury/internal/trigger"
)

// The FlowsDB codec has two paths. The fast path reads and writes exactly
// the bytes json.Marshal emits for a FlowRule: fixed field order, no
// whitespace, omitempty fields present only when non-zero, integers in
// canonical decimal and in range, and strings made only of bytes that
// json.Marshal writes unescaped. Every other input takes the
// encoding/json fallback, so decoded rules, errors-or-not and encoded
// bytes are those of encoding/json (FuzzDecodeFlowRule pins this).

// errNotFlowRule rejects a value that cannot be a JSON object or null, so
// the non-JSON values of the other caches fail without allocating.
var errNotFlowRule = errors.New("controller: decode flow rule: not a JSON object")

// DecodeFlowRule parses a FlowsDB value.
func DecodeFlowRule(s string) (FlowRule, error) {
	var r FlowRule
	if _, ok := parseCanonicalRule(s, &r, true); ok {
		return r, nil
	}
	if !maybeObject(s) {
		return FlowRule{}, errNotFlowRule
	}
	// A fresh rule: the fast path may have filled r before it stopped.
	var jr FlowRule
	if err := json.Unmarshal([]byte(s), &jr); err != nil {
		return FlowRule{}, fmt.Errorf("controller: decode flow rule: %w", err)
	}
	return jr, nil
}

// Encode serializes the rule for storage in FlowsDB, byte for byte as
// json.Marshal does.
func (r FlowRule) Encode() string {
	if !canonicalString(string(r.Trigger)) || !canonicalString(r.State) {
		b, err := json.Marshal(r)
		if err != nil {
			// Marshal of this struct cannot fail; keep the API infallible.
			return "{}"
		}
		return string(b)
	}
	var buf [384]byte
	return string(appendCanonicalRule(buf[:0], &r))
}

// AppendAttributionFree appends to b the encoding of the rule in value
// with its per-controller attribution (Origin, Trigger, State) cleared, so
// the same rule computed by different replicas appends the same bytes. A
// canonical value is copied up to its first attribution field, with no
// decode into a FlowRule and no re-encode; any other value is decoded,
// cleared and encoded. It fails, leaving b as it was, exactly when
// DecodeFlowRule fails.
func AppendAttributionFree(b []byte, value string) ([]byte, error) {
	var r FlowRule
	if cut, ok := parseCanonicalRule(value, &r, false); ok {
		return append(append(b, value[:cut]...), `,"origin":0}`...), nil
	}
	r, err := DecodeFlowRule(value)
	if err != nil {
		return b, err
	}
	r.Origin, r.Trigger, r.State = 0, "", ""
	return append(b, r.Encode()...), nil
}

// maybeObject reports whether the first non-whitespace byte of s can
// start a JSON object or null, the only values that decode into a struct.
func maybeObject(s string) bool {
	for i := 0; i < len(s); i++ {
		switch s[i] {
		case ' ', '\t', '\n', '\r':
			continue
		case '{', 'n':
			return true
		}
		return false
	}
	return false
}

// canonicalString reports whether json.Marshal writes s verbatim between
// its quotes: valid UTF-8 with no byte it escapes (control characters,
// '"', '\\', the HTML-sensitive '<', '>', '&') and no U+2028 or U+2029.
func canonicalString(s string) bool {
	for i := 0; i < len(s); {
		c := s[i]
		if c < utf8.RuneSelf {
			if c < 0x20 || c == '"' || c == '\\' || c == '<' || c == '>' || c == '&' {
				return false
			}
			i++
			continue
		}
		r, size := utf8.DecodeRuneInString(s[i:])
		if (r == utf8.RuneError && size == 1) || r == '\u2028' || r == '\u2029' {
			return false
		}
		i += size
	}
	return true
}

// appendCanonicalRule appends json.Marshal's encoding of r to b. The
// caller has checked that r's strings are canonical.
func appendCanonicalRule(b []byte, r *FlowRule) []byte {
	m := &r.Match
	b = append(b, `{"dpid":`...)
	b = strconv.AppendUint(b, uint64(r.DPID), 10)
	b = append(b, `,"match":{"Wildcards":`...)
	b = strconv.AppendUint(b, uint64(m.Wildcards), 10)
	b = append(b, `,"InPort":`...)
	b = strconv.AppendUint(b, uint64(m.InPort), 10)
	b = append(b, `,"DLSrc":`...)
	b = appendByteArray(b, m.DLSrc[:])
	b = append(b, `,"DLDst":`...)
	b = appendByteArray(b, m.DLDst[:])
	b = append(b, `,"DLVLAN":`...)
	b = strconv.AppendUint(b, uint64(m.DLVLAN), 10)
	b = append(b, `,"DLVLANPCP":`...)
	b = strconv.AppendUint(b, uint64(m.DLVLANPCP), 10)
	b = append(b, `,"DLType":`...)
	b = strconv.AppendUint(b, uint64(m.DLType), 10)
	b = append(b, `,"NWTOS":`...)
	b = strconv.AppendUint(b, uint64(m.NWTOS), 10)
	b = append(b, `,"NWProto":`...)
	b = strconv.AppendUint(b, uint64(m.NWProto), 10)
	b = append(b, `,"NWSrc":`...)
	b = appendByteArray(b, m.NWSrc[:])
	b = append(b, `,"NWDst":`...)
	b = appendByteArray(b, m.NWDst[:])
	b = append(b, `,"TPSrc":`...)
	b = strconv.AppendUint(b, uint64(m.TPSrc), 10)
	b = append(b, `,"TPDst":`...)
	b = strconv.AppendUint(b, uint64(m.TPDst), 10)
	b = append(b, `},"priority":`...)
	b = strconv.AppendUint(b, uint64(r.Priority), 10)
	b = append(b, `,"actions":`...)
	if r.Actions == nil {
		b = append(b, "null"...)
	} else {
		b = append(b, '[')
		for i, a := range r.Actions {
			if i > 0 {
				b = append(b, ',')
			}
			b = append(b, `{"Port":`...)
			b = strconv.AppendUint(b, uint64(a.Port), 10)
			b = append(b, `,"MaxLen":`...)
			b = strconv.AppendUint(b, uint64(a.MaxLen), 10)
			b = append(b, '}')
		}
		b = append(b, ']')
	}
	if r.IdleTimeout != 0 {
		b = append(b, `,"idleTimeoutSec":`...)
		b = strconv.AppendUint(b, uint64(r.IdleTimeout), 10)
	}
	if r.HardTimeout != 0 {
		b = append(b, `,"hardTimeoutSec":`...)
		b = strconv.AppendUint(b, uint64(r.HardTimeout), 10)
	}
	b = append(b, `,"command":`...)
	b = strconv.AppendUint(b, uint64(r.Command), 10)
	if r.Trigger != "" {
		b = append(b, `,"trigger":"`...)
		b = append(b, r.Trigger...)
		b = append(b, '"')
	}
	b = append(b, `,"origin":`...)
	b = strconv.AppendInt(b, int64(r.Origin), 10)
	if r.State != "" {
		b = append(b, `,"state":"`...)
		b = append(b, r.State...)
		b = append(b, '"')
	}
	return append(b, '}')
}

func appendByteArray(b []byte, v []byte) []byte {
	b = append(b, '[')
	for i, x := range v {
		if i > 0 {
			b = append(b, ',')
		}
		b = strconv.AppendUint(b, uint64(x), 10)
	}
	return append(b, ']')
}

// parseCanonicalRule parses s into r when s is exactly what
// appendCanonicalRule writes for some rule, and reports whether it was.
// With keepActions false the action list is checked but not stored, so
// the parse does not allocate. cut is the offset of the comma that opens
// the first attribution field (trigger, else origin).
func parseCanonicalRule(s string, r *FlowRule, keepActions bool) (cut int, ok bool) {
	p := &ruleScanner{s: s, ok: true}
	m := &r.Match
	scanLit(p, `{"dpid":`)
	r.DPID = topo.DPID(scanUint(p, math.MaxUint64))
	scanLit(p, `,"match":{"Wildcards":`)
	m.Wildcards = uint32(scanUint(p, math.MaxUint32))
	scanLit(p, `,"InPort":`)
	m.InPort = uint16(scanUint(p, math.MaxUint16))
	scanLit(p, `,"DLSrc":`)
	scanByteArray(p, m.DLSrc[:])
	scanLit(p, `,"DLDst":`)
	scanByteArray(p, m.DLDst[:])
	scanLit(p, `,"DLVLAN":`)
	m.DLVLAN = uint16(scanUint(p, math.MaxUint16))
	scanLit(p, `,"DLVLANPCP":`)
	m.DLVLANPCP = uint8(scanUint(p, math.MaxUint8))
	scanLit(p, `,"DLType":`)
	m.DLType = uint16(scanUint(p, math.MaxUint16))
	scanLit(p, `,"NWTOS":`)
	m.NWTOS = uint8(scanUint(p, math.MaxUint8))
	scanLit(p, `,"NWProto":`)
	m.NWProto = uint8(scanUint(p, math.MaxUint8))
	scanLit(p, `,"NWSrc":`)
	scanByteArray(p, m.NWSrc[:])
	scanLit(p, `,"NWDst":`)
	scanByteArray(p, m.NWDst[:])
	scanLit(p, `,"TPSrc":`)
	m.TPSrc = uint16(scanUint(p, math.MaxUint16))
	scanLit(p, `,"TPDst":`)
	m.TPDst = uint16(scanUint(p, math.MaxUint16))
	scanLit(p, `},"priority":`)
	r.Priority = uint16(scanUint(p, math.MaxUint16))
	scanLit(p, `,"actions":`)
	if !scanOpt(p, "null") {
		var buf [8]openflow.Action
		acts := buf[:0]
		scanLit(p, "[")
		if !scanOpt(p, "]") {
			for {
				var a openflow.Action
				scanLit(p, `{"Port":`)
				a.Port = uint16(scanUint(p, math.MaxUint16))
				scanLit(p, `,"MaxLen":`)
				a.MaxLen = uint16(scanUint(p, math.MaxUint16))
				scanLit(p, "}")
				if keepActions {
					acts = append(acts, a)
				}
				if !scanOpt(p, ",") {
					break
				}
			}
			scanLit(p, "]")
		}
		if keepActions && p.ok {
			r.Actions = append(make([]openflow.Action, 0, len(acts)), acts...)
		}
	}
	if scanOpt(p, `,"idleTimeoutSec":`) {
		r.IdleTimeout = uint16(scanNonZero(p, math.MaxUint16))
	}
	if scanOpt(p, `,"hardTimeoutSec":`) {
		r.HardTimeout = uint16(scanNonZero(p, math.MaxUint16))
	}
	scanLit(p, `,"command":`)
	r.Command = uint16(scanUint(p, math.MaxUint16))
	cut = p.i
	if scanOpt(p, `,"trigger":`) {
		r.Trigger = trigger.ID(scanString(p))
	}
	scanLit(p, `,"origin":`)
	r.Origin = store.NodeID(scanInt(p))
	if scanOpt(p, `,"state":`) {
		r.State = scanString(p)
	}
	scanLit(p, "}")
	return cut, p.ok && p.i == len(s)
}

// ruleScanner is a cursor over a canonical FlowRule encoding. Its ok flag
// is sticky: after the first mismatch every scan step is a no-op, so the
// parser reads as straight-line code and checks ok once at the end. The
// steps are plain functions, not methods: like DecodeFlowRule they are
// library code, and a CPU profile charges them to their caller.
type ruleScanner struct {
	s  string
	i  int
	ok bool
}

// scanLit consumes the literal l.
func scanLit(p *ruleScanner, l string) {
	if p.ok && strings.HasPrefix(p.s[p.i:], l) {
		p.i += len(l)
		return
	}
	p.ok = false
}

// scanOpt consumes the literal l if it comes next and reports whether it
// did.
func scanOpt(p *ruleScanner, l string) bool {
	if p.ok && strings.HasPrefix(p.s[p.i:], l) {
		p.i += len(l)
		return true
	}
	return false
}

// scanUint consumes a canonical unsigned decimal no greater than max:
// "0", or a non-zero digit followed by digits.
func scanUint(p *ruleScanner, max uint64) uint64 {
	if !p.ok {
		return 0
	}
	s, i := p.s, p.i
	if i >= len(s) || s[i] < '0' || s[i] > '9' {
		p.ok = false
		return 0
	}
	if s[i] == '0' {
		p.i = i + 1
		return 0
	}
	var v uint64
	for ; i < len(s) && s[i] >= '0' && s[i] <= '9'; i++ {
		d := uint64(s[i] - '0')
		if v > (max-d)/10 {
			p.ok = false
			return 0
		}
		v = v*10 + d
	}
	p.i = i
	return v
}

// scanNonZero consumes a canonical unsigned decimal in [1, max]: omitempty
// fields appear only when non-zero.
func scanNonZero(p *ruleScanner, max uint64) uint64 {
	v := scanUint(p, max)
	if v == 0 {
		p.ok = false
	}
	return v
}

// scanInt consumes a canonical signed decimal in the range of int. A minus
// sign must precede a non-zero magnitude.
func scanInt(p *ruleScanner) int {
	const maxInt = 1<<(strconv.IntSize-1) - 1
	if !scanOpt(p, "-") {
		return int(scanUint(p, maxInt))
	}
	v := scanNonZero(p, maxInt+1)
	return int(-v)
}

// scanByteArray consumes a JSON array of exactly len(dst) bytes into dst.
func scanByteArray(p *ruleScanner, dst []byte) {
	scanLit(p, "[")
	for i := range dst {
		if i > 0 {
			scanLit(p, ",")
		}
		dst[i] = uint8(scanUint(p, math.MaxUint8))
	}
	scanLit(p, "]")
}

// scanString consumes a quoted canonical string of at least one byte
// (omitempty strings appear only when non-empty) and returns its contents
// as a substring of the input.
func scanString(p *ruleScanner) string {
	scanLit(p, `"`)
	if !p.ok {
		return ""
	}
	n := strings.IndexByte(p.s[p.i:], '"')
	if n <= 0 || !canonicalString(p.s[p.i:p.i+n]) {
		p.ok = false
		return ""
	}
	v := p.s[p.i : p.i+n]
	p.i += n + 1
	return v
}
