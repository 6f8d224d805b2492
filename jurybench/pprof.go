package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"fmt"
	"io"
	"strings"
)

// simLayers are the layers a sim CPU profile is charged to, in report
// order. "runtime" takes samples with no repository frame (GC workers,
// the scheduler); "other" takes samples whose innermost repository frame
// is in none of the listed layers (workload driver, topology, metrics).
var simLayers = []string{"core", "controller", "store", "simnet", "openflow", "dataplane", "runtime", "other"}

const modulePath = "github.com/jurysdn/jury/"

// layerOf maps one function name to the layer it enters, or "" when the
// frame is not a listed layer's entry point. Every function of core,
// store, simnet, openflow and dataplane is an entry. Only methods count
// for controller: its package-level helpers (DecodeFlowRule and
// friends) are libraries the validator calls, and the JSON they decode
// inside Validator.Submit belongs to core. Any other repository frame
// marks "other".
func layerOf(fn string) string {
	rest, ok := strings.CutPrefix(fn, modulePath)
	if !ok {
		return ""
	}
	pkg, sym, _ := strings.Cut(strings.TrimPrefix(rest, "internal/"), ".")
	switch pkg {
	case "core", "store", "simnet", "openflow", "dataplane":
		return pkg
	case "controller":
		if strings.HasPrefix(sym, "(*") || strings.HasPrefix(sym, "(") {
			return "controller"
		}
		return ""
	case "main", "jurybench":
		return ""
	}
	return "other"
}

// attributeProfile decodes a gzipped pprof CPU profile and returns each
// layer's share of samples: every sample is charged to the layer whose
// entry function is innermost on its stack.
func attributeProfile(gz []byte) (map[string]float64, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	p, err := decodeProfile(raw)
	if err != nil {
		return nil, err
	}
	counts := make(map[string]int64)
	var total int64
	for _, s := range p.samples {
		layer := "runtime"
	stack:
		for _, loc := range s.locs { // leaf first
			for _, fn := range p.locFuncs[loc] { // innermost inlined call first
				if l := layerOf(p.strings[p.funcName[fn]]); l != "" {
					layer = l
					break stack
				}
			}
		}
		counts[layer] += s.count
		total += s.count
	}
	if total == 0 {
		return nil, fmt.Errorf("profile: no samples")
	}
	out := make(map[string]float64, len(simLayers))
	for _, l := range simLayers {
		out[l] = float64(counts[l]) / float64(total)
	}
	return out, nil
}

// profile holds the parts of a pprof protobuf the attribution needs.
type profile struct {
	samples  []profSample
	locFuncs map[uint64][]uint64 // location id → function ids, innermost first
	funcName map[uint64]int64    // function id → string table index
	strings  []string
}

type profSample struct {
	locs  []uint64
	count int64
}

// decodeProfile parses the protobuf encoding of a pprof Profile: field 2
// samples, 4 locations, 5 functions, 6 the string table.
func decodeProfile(b []byte) (*profile, error) {
	p := &profile{locFuncs: map[uint64][]uint64{}, funcName: map[uint64]int64{}}
	err := eachField(b, func(num int, wt int, v uint64, data []byte) error {
		switch num {
		case 2:
			var s profSample
			err := eachField(data, func(num int, wt int, v uint64, data []byte) error {
				switch num {
				case 1:
					s.locs = appendVarints(s.locs, wt, v, data)
				case 2:
					if vals := appendVarints(nil, wt, v, data); len(vals) > 0 && s.count == 0 {
						s.count = int64(vals[0])
					}
				}
				return nil
			})
			if err != nil {
				return err
			}
			p.samples = append(p.samples, s)
		case 4:
			var id uint64
			var fns []uint64
			err := eachField(data, func(num int, wt int, v uint64, data []byte) error {
				switch num {
				case 1:
					id = v
				case 4:
					return eachField(data, func(num int, wt int, v uint64, _ []byte) error {
						if num == 1 {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			if err != nil {
				return err
			}
			p.locFuncs[id] = fns
		case 5:
			var id uint64
			var name int64
			err := eachField(data, func(num int, wt int, v uint64, _ []byte) error {
				switch num {
				case 1:
					id = v
				case 2:
					name = int64(v)
				}
				return nil
			})
			if err != nil {
				return err
			}
			p.funcName[id] = name
		case 6:
			p.strings = append(p.strings, string(data))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	for _, idx := range p.funcName {
		if idx < 0 || idx >= int64(len(p.strings)) {
			return nil, fmt.Errorf("profile: string index %d out of range", idx)
		}
	}
	return p, nil
}

// eachField walks the top-level fields of one protobuf message. For
// varint fields v holds the value; for length-delimited fields data
// holds the bytes.
func eachField(b []byte, fn func(num, wt int, v uint64, data []byte) error) error {
	for len(b) > 0 {
		key, n := binary.Uvarint(b)
		if n <= 0 {
			return fmt.Errorf("profile: bad field key")
		}
		b = b[n:]
		num, wt := int(key>>3), int(key&7)
		var v uint64
		var data []byte
		switch wt {
		case 0:
			v, n = binary.Uvarint(b)
			if n <= 0 {
				return fmt.Errorf("profile: bad varint")
			}
			b = b[n:]
		case 1:
			if len(b) < 8 {
				return fmt.Errorf("profile: short fixed64")
			}
			v, b = binary.LittleEndian.Uint64(b), b[8:]
		case 2:
			l, n := binary.Uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return fmt.Errorf("profile: bad length")
			}
			data, b = b[n:n+int(l)], b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return fmt.Errorf("profile: short fixed32")
			}
			v, b = uint64(binary.LittleEndian.Uint32(b)), b[4:]
		default:
			return fmt.Errorf("profile: wire type %d", wt)
		}
		if err := fn(num, wt, v, data); err != nil {
			return err
		}
	}
	return nil
}

// appendVarints appends a repeated varint field, packed (wire type 2)
// or not.
func appendVarints(dst []uint64, wt int, v uint64, data []byte) []uint64 {
	if wt == 0 {
		return append(dst, v)
	}
	for len(data) > 0 {
		x, n := binary.Uvarint(data)
		if n <= 0 {
			break
		}
		dst = append(dst, x)
		data = data[n:]
	}
	return dst
}
