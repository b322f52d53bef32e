package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"strings"
)

// layers are the buckets CPU samples are charged to, in report order.
// "other" takes samples whose innermost repro frame is a package outside
// the named layers, so the buckets always sum to the profile total.
var layers = []string{
	"topology", "simnet", "dht", "registry", "bcp", "service", "fgraph", "qos",
	"recovery", "cluster", "obs", "other", "gc", "runtime",
}

// tracerFrame prefixes the benchmark's own tracer methods, which are
// charged to obs: they are the cost of tracing.
const tracerFrame = "main.(*tracer)."

// layerOf charges one sample, given its frames leaf first, to the innermost
// repro/internal/<pkg> frame (or the benchmark's tracer, as obs). Samples
// with no such frame go to gc when they run in a background GC worker, and
// to runtime otherwise.
func layerOf(frames []string) string {
	gc := false
	for _, fn := range frames {
		if strings.HasPrefix(fn, tracerFrame) {
			return "obs"
		}
		if rest, ok := strings.CutPrefix(fn, "repro/internal/"); ok {
			pkg := rest[:strings.IndexAny(rest, "/.")]
			for _, l := range layers[:len(layers)-3] {
				if pkg == l {
					return l
				}
			}
			return "other"
		}
		if strings.HasPrefix(fn, "runtime.gcBgMarkWorker") {
			gc = true
		}
	}
	if gc {
		return "gc"
	}
	return "runtime"
}

// attribute decodes a runtime/pprof CPU profile and returns CPU nanoseconds
// per layer and their total.
func attribute(gz []byte) (map[string]int64, int64, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, 0, fmt.Errorf("cpu profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, 0, fmt.Errorf("cpu profile: %w", err)
	}
	p, err := decodeProfile(raw)
	if err != nil {
		return nil, 0, fmt.Errorf("cpu profile: %w", err)
	}
	by := make(map[string]int64, len(layers))
	var total int64
	var frames []string
	for _, s := range p.samples {
		frames = frames[:0]
		for _, id := range s.locs {
			for _, fid := range p.locLines[id] {
				frames = append(frames, p.strings[p.funcName[fid]])
			}
		}
		by[layerOf(frames)] += s.cpu
		total += s.cpu
	}
	return by, total, nil
}

// profile is the part of profile.proto the attribution needs.
type profile struct {
	samples  []sample
	locLines map[uint64][]uint64 // location id -> function ids, innermost first
	funcName map[uint64]int64    // function id -> string table index
	strings  []string
}

type sample struct {
	locs []uint64 // leaf first
	cpu  int64    // nanoseconds (the second sample value)
}

// decodeProfile parses the protobuf encoding of a pprof profile.
func decodeProfile(b []byte) (*profile, error) {
	p := &profile{locLines: map[uint64][]uint64{}, funcName: map[uint64]int64{}}
	err := fields(b, func(num int, v uint64, data []byte) error {
		switch num {
		case 2: // sample
			var s sample
			var vals []uint64
			err := fields(data, func(num int, v uint64, data []byte) error {
				switch num {
				case 1:
					s.locs = appendPacked(s.locs, v, data)
				case 2:
					vals = appendPacked(vals, v, data)
				}
				return nil
			})
			if err != nil {
				return err
			}
			if len(vals) != 2 {
				return fmt.Errorf("sample has %d values, want 2", len(vals))
			}
			s.cpu = int64(vals[1])
			p.samples = append(p.samples, s)
		case 4: // location
			var id uint64
			var fids []uint64
			err := fields(data, func(num int, v uint64, data []byte) error {
				switch num {
				case 1:
					id = v
				case 4: // line
					return fields(data, func(num int, v uint64, _ []byte) error {
						if num == 1 {
							fids = append(fids, v)
						}
						return nil
					})
				}
				return nil
			})
			if err != nil {
				return err
			}
			p.locLines[id] = fids
		case 5: // function
			var id uint64
			var name int64
			err := fields(data, func(num int, v uint64, _ []byte) error {
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
		case 6: // string_table
			p.strings = append(p.strings, string(data))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	for _, idx := range p.funcName {
		if idx < 0 || idx >= int64(len(p.strings)) {
			return nil, errors.New("function name outside the string table")
		}
	}
	return p, nil
}

// appendPacked appends a repeated varint field given either one unpacked
// value (data nil) or a packed run.
func appendPacked(dst []uint64, v uint64, data []byte) []uint64 {
	if data == nil {
		return append(dst, v)
	}
	for len(data) > 0 {
		x, n := binary.Uvarint(data)
		if n <= 0 {
			return dst
		}
		dst = append(dst, x)
		data = data[n:]
	}
	return dst
}

// fields calls fn for each field of a protobuf message: varint fields pass
// their value, length-delimited ones their bytes (non-nil).
func fields(b []byte, fn func(num int, v uint64, data []byte) error) error {
	for len(b) > 0 {
		key, n := binary.Uvarint(b)
		if n <= 0 {
			return errors.New("bad field key")
		}
		b = b[n:]
		num, wire := int(key>>3), key&7
		var v uint64
		var data []byte
		switch wire {
		case 0:
			v, n = binary.Uvarint(b)
			if n <= 0 {
				return errors.New("bad varint")
			}
			b = b[n:]
		case 1:
			if len(b) < 8 {
				return errors.New("short fixed64")
			}
			b = b[8:]
			continue
		case 2:
			l, n := binary.Uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return errors.New("bad length")
			}
			data = b[n : n+int(l)]
			b = b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return errors.New("short fixed32")
			}
			b = b[4:]
			continue
		default:
			return fmt.Errorf("unsupported wire type %d", wire)
		}
		if err := fn(num, v, data); err != nil {
			return err
		}
	}
	return nil
}
