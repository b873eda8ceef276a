package param

import (
	"encoding/binary"
	"fmt"
	"math"
	"sort"
	"testing"
)

// refKey is the fmt-based form that defined Point.Key before AppendKey
// replaced it. It stays here as the reference.
func refKey(p Point) string {
	names := make([]string, 0, len(p))
	for k := range p {
		names = append(names, k)
	}
	sort.Strings(names)
	out := ""
	for i, k := range names {
		if i > 0 {
			out += ","
		}
		out += fmt.Sprintf("%s=%.6g", k, p[k])
	}
	return out
}

func TestKeyMatchesReference(t *testing.T) {
	nine := Point{}
	for i := 0; i < 9; i++ { // one more name than AppendKey sorts on the stack
		nine[fmt.Sprintf("dim%d", 8-i)] = float64(i) * 12.5
	}
	long := Point{} // past Key's 128-byte buffer
	for i := 0; i < 12; i++ {
		long[fmt.Sprintf("a_rather_long_dimension_name_%02d", i)] = 1 / float64(i+3)
	}
	for _, tc := range []struct {
		p    Point
		want string // "" = reference only
	}{
		{nil, ""},
		{Point{}, ""},
		{Point{"temperature": 150, "halide_ratio": 0.5, "residence_s": 30, "ligand_mM": 2.5},
			"halide_ratio=0.5,ligand_mM=2.5,residence_s=30,temperature=150"},
		{Point{"x": 1e6, "y": 999999.5, "z": 1e-5}, "x=1e+06,y=1e+06,z=1e-05"},
		{Point{"x": 123456.5, "y": 0.0001, "z": 100000}, "x=123456,y=0.0001,z=100000"},
		{Point{"a": math.Inf(1), "b": math.Inf(-1), "c": math.NaN()}, "a=+Inf,b=-Inf,c=NaN"},
		{Point{"neg0": math.Copysign(0, -1), "sub": 5e-324, "max": math.MaxFloat64},
			"max=1.79769e+308,neg0=-0,sub=4.94066e-324"},
		{Point{"": 1, "a=b": 2, "a,b": 3, "é✓": 4, "\xff\x00": 5}, ""},
		{nine, ""},
		{long, ""},
	} {
		got, ref := tc.p.Key(), refKey(tc.p)
		if got != ref {
			t.Errorf("Key() = %q, reference %q", got, ref)
		}
		if tc.want != "" && got != tc.want {
			t.Errorf("Key() = %q, want %q", got, tc.want)
		}
		if app := string(tc.p.AppendKey([]byte("d/obs/"))); app != "d/obs/"+ref {
			t.Errorf("AppendKey after a prefix = %q, want prefix + %q", app, ref)
		}
	}
}

func TestKeyAllocatesOnce(t *testing.T) {
	p := Point{"temperature": 150, "halide_ratio": 0.5, "residence_s": 30, "ligand_mM": 2.5}
	var sink string
	if n := testing.AllocsPerRun(200, func() { sink = p.Key() }); n != 1 {
		t.Fatalf("Point.Key allocates %v times per call, want 1 (the string)", n)
	}
	buf := make([]byte, 0, 128)
	if n := testing.AllocsPerRun(200, func() { buf = p.AppendKey(buf[:0]) }); n != 0 {
		t.Fatalf("AppendKey into a large enough buffer allocates %v times, want 0", n)
	}
	_ = sink
}

// fuzzPoint decodes dimensions from raw: a length byte (low three bits), that
// many name bytes, then eight bytes of float64 bits; a short tail is dropped.
func fuzzPoint(raw []byte) Point {
	p := Point{}
	for len(raw) > 0 {
		n := int(raw[0] & 7)
		raw = raw[1:]
		if len(raw) < n+8 {
			break
		}
		p[string(raw[:n])] = math.Float64frombits(binary.LittleEndian.Uint64(raw[n:]))
		raw = raw[n+8:]
	}
	return p
}

// fuzzDims encodes name/value pairs the way fuzzPoint decodes them.
func fuzzDims(kv ...any) []byte {
	var raw []byte
	for i := 0; i+1 < len(kv); i += 2 {
		name := kv[i].(string)
		raw = append(raw, byte(len(name)))
		raw = append(raw, name...)
		raw = binary.LittleEndian.AppendUint64(raw, math.Float64bits(kv[i+1].(float64)))
	}
	return raw
}

// FuzzPointKey holds Key and AppendKey to the fmt-built reference for
// arbitrary dimension names and float bit patterns.
func FuzzPointKey(f *testing.F) {
	f.Add([]byte(nil), []byte(nil))
	f.Add(fuzzDims("temp", 150.0, "ratio", 0.5), []byte("perovskite/obs/"))
	f.Add(fuzzDims("x", 1e6, "y", 999999.5, "z", 1e-5), []byte{})
	f.Add(fuzzDims("a", math.Inf(1), "b", math.Inf(-1), "c", math.NaN()), []byte("p"))
	f.Add(fuzzDims("n", math.Copysign(0, -1), "s", 5e-324, "m", math.MaxFloat64), []byte{0})
	f.Add(fuzzDims("", 1.0, "a=b", 2.0, "a,b", 3.0, "\xff", 4.0), []byte(","))
	f.Add(fuzzDims("d0", 0.0, "d1", 1.0, "d2", 2.0, "d3", 3.0, "d4", 4.0,
		"d5", 5.0, "d6", 6.0, "d7", 7.0, "d8", 8.0), []byte("nine"))
	f.Add(fuzzDims("x", 1.0, "x", 2.0), []byte("dup"))
	f.Fuzz(func(t *testing.T, raw, prefix []byte) {
		p := fuzzPoint(raw)
		ref := refKey(p)
		if got := p.Key(); got != ref {
			t.Fatalf("Key() = %q, reference %q", got, ref)
		}
		dst := append([]byte(nil), prefix...)
		if got := string(p.AppendKey(dst)); got != string(prefix)+ref {
			t.Fatalf("AppendKey after %q = %q, want the prefix kept and %q appended", prefix, got, ref)
		}
	})
}
