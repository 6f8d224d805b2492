package openflow

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"
)

// The fmt renderings the String methods replaced; their output must stay
// byte-identical, since match strings feed FlowsDB keys and the
// validator's canonical message bodies.
func fmtMAC(m MAC) string {
	return fmt.Sprintf("%02x:%02x:%02x:%02x:%02x:%02x", m[0], m[1], m[2], m[3], m[4], m[5])
}

func fmtIPv4(ip IPv4) string {
	return fmt.Sprintf("%d.%d.%d.%d", ip[0], ip[1], ip[2], ip[3])
}

func fmtMatch(m Match) string {
	var parts []string
	w := m.Wildcards
	if w&WildcardInPort == 0 {
		parts = append(parts, fmt.Sprintf("in_port=%d", m.InPort))
	}
	if w&WildcardDLSrc == 0 {
		parts = append(parts, "dl_src="+fmtMAC(m.DLSrc))
	}
	if w&WildcardDLDst == 0 {
		parts = append(parts, "dl_dst="+fmtMAC(m.DLDst))
	}
	if w&WildcardDLType == 0 {
		parts = append(parts, fmt.Sprintf("dl_type=0x%04x", m.DLType))
	}
	if w&WildcardNWProto == 0 {
		parts = append(parts, fmt.Sprintf("nw_proto=%d", m.NWProto))
	}
	if m.NWSrcMaskBits() < 32 {
		parts = append(parts, fmt.Sprintf("nw_src=%s/%d", fmtIPv4(m.NWSrc), 32-m.NWSrcMaskBits()))
	}
	if m.NWDstMaskBits() < 32 {
		parts = append(parts, fmt.Sprintf("nw_dst=%s/%d", fmtIPv4(m.NWDst), 32-m.NWDstMaskBits()))
	}
	if w&WildcardTPSrc == 0 {
		parts = append(parts, fmt.Sprintf("tp_src=%d", m.TPSrc))
	}
	if w&WildcardTPDst == 0 {
		parts = append(parts, fmt.Sprintf("tp_dst=%d", m.TPDst))
	}
	if len(parts) == 0 {
		return "match=*"
	}
	return strings.Join(parts, ",")
}

func TestStringsTable(t *testing.T) {
	full := Match{
		InPort: 7, DLSrc: MAC{0xde, 0xad, 0xbe, 0xef, 0, 1}, DLType: 0x800, NWProto: 6,
		NWSrc: IPv4{10, 0, 0, 1}, NWDst: IPv4{192, 168, 1, 255}, TPSrc: 80, TPDst: 443,
	}.WithNWSrcMask(8)
	tests := []struct{ got, want string }{
		{MAC{}.String(), "00:00:00:00:00:00"},
		{MAC{0xff, 0x0a, 0xb0, 1, 0x10, 0xff}.String(), "ff:0a:b0:01:10:ff"},
		{IPv4{}.String(), "0.0.0.0"},
		{IPv4{255, 10, 0, 99}.String(), "255.10.0.99"},
		{MatchAll().String(), "match=*"},
		{ExactDst(MAC{0, 0, 0, 0, 0, 2}).String(), "dl_dst=00:00:00:00:00:02"},
		{Match{Wildcards: WildcardAll &^ WildcardDLType, DLType: 0xa}.String(), "dl_type=0x000a"},
		{full.String(), "in_port=7,dl_src=de:ad:be:ef:00:01,dl_dst=00:00:00:00:00:00,dl_type=0x0800,nw_proto=6," +
			"nw_src=10.0.0.1/24,nw_dst=192.168.1.255/32,tp_src=80,tp_dst=443"},
	}
	for _, tt := range tests {
		if tt.got != tt.want {
			t.Fatalf("got %q, want %q", tt.got, tt.want)
		}
	}
}

func TestStringsMatchFmtRandomized(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 5000; i++ {
		var m Match
		m.Wildcards = rng.Uint32()
		if rng.Intn(3) == 0 {
			m.Wildcards &= WildcardAll
		}
		m.InPort = uint16(rng.Uint32())
		rng.Read(m.DLSrc[:])
		rng.Read(m.DLDst[:])
		m.DLType = uint16(rng.Uint32() >> uint(rng.Intn(16)))
		m.NWProto = uint8(rng.Uint32())
		rng.Read(m.NWSrc[:])
		rng.Read(m.NWDst[:])
		m.TPSrc = uint16(rng.Uint32())
		m.TPDst = uint16(rng.Uint32())
		if got, want := m.DLSrc.String(), fmtMAC(m.DLSrc); got != want {
			t.Fatalf("MAC.String = %q, fmt = %q", got, want)
		}
		if got, want := m.NWSrc.String(), fmtIPv4(m.NWSrc); got != want {
			t.Fatalf("IPv4.String = %q, fmt = %q", got, want)
		}
		if got, want := m.String(), fmtMatch(m); got != want {
			t.Fatalf("Match.String = %q, fmt = %q", got, want)
		}
		if got := string(m.AppendTo([]byte("x|"))); got != "x|"+fmtMatch(m) {
			t.Fatalf("AppendTo = %q", got)
		}
	}
}
