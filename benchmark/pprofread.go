package main

import (
	"bytes"
	"compress/gzip"
	"errors"
	"fmt"
	"io"
	"strings"
)

// A minimal reader for the gzip-compressed protobuf runtime/pprof writes:
// just the sample, location, function and string-table messages the CPU
// attribution needs (github.com/google/pprof/proto/profile.proto).

// cpuProfile is the decoded subset: per sample its call stack as function
// names, innermost first (inlined frames expanded), and its sample count.
type cpuProfile struct {
	stacks [][]string
	counts []int64
}

// pbReader walks one protobuf message.
type pbReader struct{ b []byte }

var errTruncated = errors.New("pprof: truncated message")

func (r *pbReader) varint() (uint64, error) {
	var v uint64
	for shift := uint(0); shift < 64; shift += 7 {
		if len(r.b) == 0 {
			return 0, errTruncated
		}
		c := r.b[0]
		r.b = r.b[1:]
		v |= uint64(c&0x7f) << shift
		if c < 0x80 {
			return v, nil
		}
	}
	return 0, errors.New("pprof: varint overflows 64 bits")
}

// next returns the next field: its number, and either its varint value
// (wire type 0) or its bytes (wire type 2). Fixed-width fields are skipped
// over and reported with nil bytes.
func (r *pbReader) next() (field int, v uint64, data []byte, err error) {
	key, err := r.varint()
	if err != nil {
		return 0, 0, nil, err
	}
	field = int(key >> 3)
	switch key & 7 {
	case 0:
		v, err = r.varint()
	case 1:
		err = r.skip(8)
	case 2:
		var n uint64
		if n, err = r.varint(); err == nil {
			if n > uint64(len(r.b)) {
				return 0, 0, nil, errTruncated
			}
			data, r.b = r.b[:n], r.b[n:]
		}
	case 5:
		err = r.skip(4)
	default:
		err = fmt.Errorf("pprof: unsupported wire type %d", key&7)
	}
	return field, v, data, err
}

func (r *pbReader) skip(n int) error {
	if n > len(r.b) {
		return errTruncated
	}
	r.b = r.b[n:]
	return nil
}

// uints decodes a repeated integer field occurrence, packed or not.
func uints(dst []uint64, v uint64, data []byte) ([]uint64, error) {
	if data == nil {
		return append(dst, v), nil
	}
	r := pbReader{data}
	for len(r.b) > 0 {
		x, err := r.varint()
		if err != nil {
			return nil, err
		}
		dst = append(dst, x)
	}
	return dst, nil
}

// parseCPUProfile decodes a profile written by runtime/pprof.
func parseCPUProfile(gz []byte) (*cpuProfile, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, fmt.Errorf("pprof: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("pprof: %w", err)
	}

	type sample struct {
		locs  []uint64
		count int64
	}
	var (
		samples   []sample
		locFuncs  = map[uint64][]uint64{} // location id -> function ids, innermost first
		funcNames = map[uint64]uint64{}   // function id -> string-table index
		strs      []string
	)
	r := pbReader{raw}
	for len(r.b) > 0 {
		field, _, data, err := r.next()
		if err != nil {
			return nil, err
		}
		switch field {
		case 2: // Sample: location_id = 1, value = 2
			var s sample
			var values []uint64
			m := pbReader{data}
			for len(m.b) > 0 {
				f, v, d, err := m.next()
				if err != nil {
					return nil, err
				}
				switch f {
				case 1:
					if s.locs, err = uints(s.locs, v, d); err != nil {
						return nil, err
					}
				case 2:
					if values, err = uints(values, v, d); err != nil {
						return nil, err
					}
				}
			}
			if len(values) > 0 {
				s.count = int64(values[0]) // CPU profiles: [samples/count, cpu/nanoseconds]
			}
			samples = append(samples, s)
		case 4: // Location: id = 1, line = 4 {function_id = 1}
			var id uint64
			var fns []uint64
			m := pbReader{data}
			for len(m.b) > 0 {
				f, v, d, err := m.next()
				if err != nil {
					return nil, err
				}
				switch f {
				case 1:
					id = v
				case 4:
					l := pbReader{d}
					for len(l.b) > 0 {
						lf, lv, _, err := l.next()
						if err != nil {
							return nil, err
						}
						if lf == 1 {
							fns = append(fns, lv)
						}
					}
				}
			}
			locFuncs[id] = fns
		case 5: // Function: id = 1, name = 2
			var id, name uint64
			m := pbReader{data}
			for len(m.b) > 0 {
				f, v, _, err := m.next()
				if err != nil {
					return nil, err
				}
				switch f {
				case 1:
					id = v
				case 2:
					name = v
				}
			}
			funcNames[id] = name
		case 6: // string_table
			strs = append(strs, string(data))
		}
	}

	p := &cpuProfile{}
	for _, s := range samples {
		var stack []string
		for _, loc := range s.locs {
			for _, fn := range locFuncs[loc] {
				idx := funcNames[fn]
				if idx >= uint64(len(strs)) {
					return nil, fmt.Errorf("pprof: string index %d out of range", idx)
				}
				stack = append(stack, strs[idx])
			}
		}
		p.stacks = append(p.stacks, stack)
		p.counts = append(p.counts, s.count)
	}
	return p, nil
}

const (
	modulePrefix  = "github.com/aisle-sim/aisle/internal/"
	harnessPrefix = "github.com/aisle-sim/aisle/benchmark."
)

// Buckets for samples that no layer package owns.
const (
	bucketOther        = "other"         // internal packages outside cpuLayers, and the benchmark's own frames
	bucketGC           = "runtime.gc"    // background GC workers
	bucketRuntimeOther = "runtime.other" // scheduler, idle spinning, profiler signal handling
)

// attribute charges every sample to the package of its innermost
// github.com/aisle-sim/aisle/internal/<pkg> frame (or to "other" when a
// frame of the benchmark itself is further in), so map, allocation and
// GC-assist work is charged to the layer that asked for it. Samples with no
// module frame are the Go runtime's own. The shares sum to 1.
func (p *cpuProfile) attribute(layers []string) (shares map[string]float64, total int64) {
	known := make(map[string]bool, len(layers))
	for _, l := range layers {
		known[l] = true
	}
	shares = map[string]float64{}
	for i, stack := range p.stacks {
		shares[bucketOf(stack, known)] += float64(p.counts[i])
		total += p.counts[i]
	}
	if total > 0 {
		for k := range shares {
			shares[k] /= float64(total)
		}
	}
	return shares, total
}

func bucketOf(stack []string, known map[string]bool) string {
	gc := false
	for _, fn := range stack {
		if rest, ok := strings.CutPrefix(fn, modulePrefix); ok {
			pkg := rest
			if i := strings.IndexAny(rest, "./"); i >= 0 {
				pkg = rest[:i]
			}
			if known[pkg] {
				return pkg
			}
			return bucketOther
		}
		// The benchmark's own callbacks run inside sim events; they are not
		// the sim layer's cost. (Test binaries name the package by its path.)
		if strings.HasPrefix(fn, "main.") || strings.HasPrefix(fn, harnessPrefix) {
			return bucketOther
		}
		if strings.HasPrefix(fn, "runtime.gcBgMarkWorker") || strings.HasPrefix(fn, "runtime.bgsweep") ||
			strings.HasPrefix(fn, "runtime.bgscavenge") {
			gc = true
		}
	}
	if gc {
		return bucketGC
	}
	return bucketRuntimeOther
}
