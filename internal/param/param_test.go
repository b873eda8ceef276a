package param

import (
	"math"
	"strings"
	"testing"
	"testing/quick"

	"github.com/aisle-sim/aisle/internal/rng"
)

func testSpace() Space {
	return Space{
		{Name: "temp", Lo: 50, Hi: 250, Unit: "C"},
		{Name: "ratio", Lo: 0, Hi: 1},
		{Name: "steps", Lo: 0, Hi: 10, Step: 2},
	}
}

func TestDimLevels(t *testing.T) {
	d := Dim{Lo: 0, Hi: 10, Step: 2}
	if d.Levels() != 6 {
		t.Fatalf("Levels = %d, want 6 (0,2,4,6,8,10)", d.Levels())
	}
	if (Dim{Lo: 0, Hi: 1}).Levels() != 0 {
		t.Fatal("continuous dim should report 0 levels")
	}
}

func TestDimSnap(t *testing.T) {
	d := Dim{Lo: 0, Hi: 10, Step: 2}
	cases := map[float64]float64{3: 4, 2.9: 2, -5: 0, 15: 10, 7: 8, 6.99: 6}
	for in, want := range cases {
		if got := d.Snap(in); math.Abs(got-want) > 1e-9 {
			t.Errorf("Snap(%v) = %v, want %v", in, got, want)
		}
	}
	c := Dim{Lo: 1, Hi: 9}
	if c.Snap(3.14159) != 3.14159 {
		t.Fatal("continuous snap should be identity inside bounds")
	}
	if c.Snap(100) != 9 {
		t.Fatal("continuous snap should clip")
	}
}

func TestValidate(t *testing.T) {
	s := testSpace()
	good := Point{"temp": 100, "ratio": 0.5, "steps": 4}
	if err := s.Validate(good); err != nil {
		t.Fatalf("valid point rejected: %v", err)
	}
	if err := s.Validate(Point{"temp": 100, "ratio": 0.5}); err == nil {
		t.Fatal("missing dimension accepted")
	}
	if err := s.Validate(Point{"temp": 500, "ratio": 0.5, "steps": 4}); err == nil {
		t.Fatal("out-of-range accepted")
	}
}

func TestSampleInBounds(t *testing.T) {
	s := testSpace()
	r := rng.New(1)
	for i := 0; i < 1000; i++ {
		p := s.Sample(r)
		if err := s.Validate(p); err != nil {
			t.Fatalf("sample invalid: %v", err)
		}
		// Discrete dim must land on lattice.
		k := p["steps"] / 2
		if k != math.Trunc(k) {
			t.Fatalf("steps=%v off lattice", p["steps"])
		}
	}
}

func TestCardinality(t *testing.T) {
	s := Space{
		{Name: "a", Lo: 0, Hi: 10, Step: 1},  // 11
		{Name: "b", Lo: 0, Hi: 1, Step: 0.5}, // 3
	}
	if got := s.Cardinality(); got != 33 {
		t.Fatalf("Cardinality = %v, want 33", got)
	}
	if !math.IsInf(testSpace().Cardinality(), 1) {
		t.Fatal("space with continuous dim should have infinite cardinality")
	}
}

func TestUnitRoundTrip(t *testing.T) {
	s := Space{
		{Name: "x", Lo: -5, Hi: 5},
		{Name: "y", Lo: 100, Hi: 200},
	}
	f := func(a, b uint8) bool {
		u := []float64{float64(a) / 255, float64(b) / 255}
		p := s.FromUnit(u)
		u2 := make([]float64, len(s))
		s.ToUnitInto(p, u2)
		return math.Abs(u[0]-u2[0]) < 1e-9 && math.Abs(u[1]-u2[1]) < 1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestLHSRespectsLattice(t *testing.T) {
	s := Space{{Name: "k", Lo: 0, Hi: 100, Step: 10}}
	pts := s.SampleLHS(rng.New(3), 8)
	if len(pts) != 8 {
		t.Fatalf("got %d points", len(pts))
	}
	for _, p := range pts {
		k := p["k"] / 10
		if k != math.Trunc(k) {
			t.Fatalf("LHS point %v off lattice", p["k"])
		}
	}
}

func TestPointKeyCanonical(t *testing.T) {
	a := Point{"x": 1, "y": 2}
	b := Point{"y": 2, "x": 1}
	if a.Key() != b.Key() {
		t.Fatal("Key not canonical across map order")
	}
	if !strings.Contains(a.Key(), "x=1") {
		t.Fatalf("Key = %q", a.Key())
	}
	if a.Key() == (Point{"x": 1, "y": 3}).Key() {
		t.Fatal("distinct points share a key")
	}
}

func TestClone(t *testing.T) {
	p := Point{"x": 1}
	c := p.Clone()
	c["x"] = 2
	if p["x"] != 1 {
		t.Fatal("Clone aliases original")
	}
}

func TestSnapSpace(t *testing.T) {
	s := testSpace()
	p := s.Snap(Point{"temp": 1000, "ratio": -3, "steps": 3.7})
	if p["temp"] != 250 || p["ratio"] != 0 || p["steps"] != 4 {
		t.Fatalf("Snap = %v", p)
	}
}

func TestDimLookup(t *testing.T) {
	s := testSpace()
	d, ok := s.Dim("ratio")
	if !ok || d.Hi != 1 {
		t.Fatal("Dim lookup failed")
	}
	if _, ok := s.Dim("ghost"); ok {
		t.Fatal("ghost dimension found")
	}
	names := s.Names()
	if len(names) != 3 || names[0] != "temp" {
		t.Fatalf("Names = %v", names)
	}
}
