package rng

import (
	"math"
	"testing"
	"testing/quick"
)

func TestDeterminism(t *testing.T) {
	a, b := New(42), New(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatal("identical seeds diverged")
		}
	}
}

func TestSeedSeparation(t *testing.T) {
	a, b := New(1), New(2)
	same := 0
	for i := 0; i < 100; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 0 {
		t.Fatalf("adjacent seeds collided %d/100 times", same)
	}
}

func TestForkIndependence(t *testing.T) {
	parent := New(7)
	c1 := parent.Fork("network")
	c2 := parent.Fork("instrument")
	if c1.Uint64() == c2.Uint64() {
		t.Fatal("forked streams correlated")
	}
	// Forking again with the same label from an identical parent state must
	// reproduce the same child.
	p2 := New(7)
	d1 := p2.Fork("network")
	e1 := New(7).Fork("network")
	if d1.Uint64() != e1.Uint64() {
		t.Fatal("fork not deterministic")
	}
}

func TestFloat64Range(t *testing.T) {
	s := New(11)
	for i := 0; i < 10000; i++ {
		v := s.Float64()
		if v < 0 || v >= 1 {
			t.Fatalf("Float64() = %v out of [0,1)", v)
		}
	}
}

func TestFloat64Mean(t *testing.T) {
	s := New(12)
	var sum float64
	const n = 100000
	for i := 0; i < n; i++ {
		sum += s.Float64()
	}
	mean := sum / n
	if math.Abs(mean-0.5) > 0.01 {
		t.Fatalf("uniform mean = %v, want ~0.5", mean)
	}
}

func TestNormalMoments(t *testing.T) {
	s := New(13)
	const n = 200000
	var sum, sumsq float64
	for i := 0; i < n; i++ {
		v := s.Normal(10, 2)
		sum += v
		sumsq += v * v
	}
	mean := sum / n
	variance := sumsq/n - mean*mean
	if math.Abs(mean-10) > 0.05 {
		t.Fatalf("normal mean = %v, want ~10", mean)
	}
	if math.Abs(math.Sqrt(variance)-2) > 0.05 {
		t.Fatalf("normal stddev = %v, want ~2", math.Sqrt(variance))
	}
}

func TestExponentialMean(t *testing.T) {
	s := New(14)
	const n = 200000
	var sum float64
	for i := 0; i < n; i++ {
		v := s.Exponential(3)
		if v < 0 {
			t.Fatal("exponential draw negative")
		}
		sum += v
	}
	if mean := sum / n; math.Abs(mean-3) > 0.05 {
		t.Fatalf("exponential mean = %v, want ~3", mean)
	}
}

func TestTriangularBounds(t *testing.T) {
	s := New(16)
	for i := 0; i < 10000; i++ {
		v := s.Triangular(2, 5, 11)
		if v < 2 || v > 11 {
			t.Fatalf("triangular draw %v out of [2,11]", v)
		}
	}
}

func TestIntnBounds(t *testing.T) {
	s := New(17)
	counts := make([]int, 10)
	for i := 0; i < 100000; i++ {
		counts[s.Intn(10)]++
	}
	for d, c := range counts {
		if c < 9000 || c > 11000 {
			t.Fatalf("Intn(10) digit %d count %d far from uniform", d, c)
		}
	}
}

func TestIntnPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Intn(0) did not panic")
		}
	}()
	New(1).Intn(0)
}

func TestPermIsPermutation(t *testing.T) {
	s := New(18)
	f := func(n uint8) bool {
		size := int(n%64) + 1
		p := s.Perm(size)
		seen := make([]bool, size)
		for _, v := range p {
			if v < 0 || v >= size || seen[v] {
				return false
			}
			seen[v] = true
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestLatinHypercubeStratification(t *testing.T) {
	s := New(20)
	const n, d = 16, 3
	pts := s.LatinHypercube(n, d)
	if len(pts) != n {
		t.Fatalf("got %d points", len(pts))
	}
	for j := 0; j < d; j++ {
		binSeen := make([]bool, n)
		for i := 0; i < n; i++ {
			v := pts[i][j]
			if v < 0 || v >= 1 {
				t.Fatalf("point %v outside unit cube", v)
			}
			bin := int(v * n)
			if binSeen[bin] {
				t.Fatalf("dimension %d bin %d occupied twice (not a latin hypercube)", j, bin)
			}
			binSeen[bin] = true
		}
	}
}

func TestRange(t *testing.T) {
	s := New(21)
	for i := 0; i < 1000; i++ {
		v := s.Range(-2, 5)
		if v < -2 || v >= 5 {
			t.Fatalf("Range draw %v outside [-2,5)", v)
		}
	}
}

func TestBoolProbability(t *testing.T) {
	s := New(22)
	hits := 0
	const n = 100000
	for i := 0; i < n; i++ {
		if s.Bool(0.25) {
			hits++
		}
	}
	p := float64(hits) / n
	if math.Abs(p-0.25) > 0.01 {
		t.Fatalf("Bool(0.25) frequency = %v", p)
	}
}

func TestLogNormalPositive(t *testing.T) {
	s := New(23)
	for i := 0; i < 1000; i++ {
		if s.LogNormal(0, 1) <= 0 {
			t.Fatal("lognormal draw non-positive")
		}
	}
}
