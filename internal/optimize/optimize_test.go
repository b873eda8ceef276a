package optimize

import (
	"math"
	"testing"
	"testing/quick"

	"github.com/aisle-sim/aisle/internal/param"
	"github.com/aisle-sim/aisle/internal/rng"
	"github.com/aisle-sim/aisle/internal/twin"
)

// packLower packs the lower triangle (diagonal included) of a dense
// symmetric matrix into the flat layout cholFactor consumes.
func packLower(a [][]float64) []float64 {
	var out []float64
	for i := range a {
		out = append(out, a[i][:i+1]...)
	}
	return out
}

// factorDense factorizes a dense SPD matrix without jitter, for tests.
func factorDense(a [][]float64) (*cholFactor, bool) {
	var f cholFactor
	ok := f.factorize(packLower(a), len(a), 0)
	return &f, ok
}

// cholSolveDense solves (L L^T) x = b, for tests.
func cholSolveDense(f *cholFactor, b []float64) []float64 {
	x := make([]float64, len(b))
	f.forwardInto(x, b)
	f.backInto(x, x)
	return x
}

// at returns L[i][j] (j <= i).
func (f *cholFactor) at(i, j int) float64 { return f.l[rowOff(i)+j] }

// Predict is one candidate's PredictBatch, the posterior the tests read.
func (g *GP) Predict(x []float64) (mean, variance float64) {
	var mu, va [1]float64
	g.PredictBatch([][]float64{x}, mu[:], va[:], &PredictScratch{})
	return mu[0], va[0]
}

func TestCholeskyKnownFactor(t *testing.T) {
	a := [][]float64{
		{4, 12, -16},
		{12, 37, -43},
		{-16, -43, 98},
	}
	l, ok := factorDense(a)
	if !ok {
		t.Fatal("SPD matrix failed to factorize")
	}
	want := [][]float64{
		{2},
		{6, 1},
		{-8, 5, 3},
	}
	for i := range want {
		for j := range want[i] {
			if math.Abs(l.at(i, j)-want[i][j]) > 1e-9 {
				t.Fatalf("L[%d][%d] = %v, want %v", i, j, l.at(i, j), want[i][j])
			}
		}
	}
}

func TestCholeskySolveIdentity(t *testing.T) {
	// Solve (LL^T) x = b and check A x = b.
	a := [][]float64{
		{6, 2, 1},
		{2, 5, 2},
		{1, 2, 4},
	}
	b := []float64{1, -2, 3}
	l, ok := factorDense(a)
	if !ok {
		t.Fatal("SPD matrix failed to factorize")
	}
	x := cholSolveDense(l, b)
	for i := range a {
		var s float64
		for j := range a[i] {
			s += a[i][j] * x[j]
		}
		if math.Abs(s-b[i]) > 1e-9 {
			t.Fatalf("residual row %d: %v vs %v", i, s, b[i])
		}
	}
}

func TestCholeskyAppendRowMatchesFull(t *testing.T) {
	// Growing a factor row by row must equal factorizing the full matrix.
	a := [][]float64{
		{4, 12, -16},
		{12, 37, -43},
		{-16, -43, 98},
	}
	full, ok := factorDense(a)
	if !ok {
		t.Fatal("full factorization failed")
	}
	var inc cholFactor
	for i := range a {
		if !inc.appendRow(a[i][:i], a[i][i]) {
			t.Fatalf("appendRow %d failed", i)
		}
	}
	for i := 0; i < 3; i++ {
		for j := 0; j <= i; j++ {
			if inc.at(i, j) != full.at(i, j) {
				t.Fatalf("incremental L[%d][%d] = %v, full = %v", i, j, inc.at(i, j), full.at(i, j))
			}
		}
	}
	// Retracting the last row recovers the leading 2x2 factor exactly.
	inc.truncate(2)
	for i := 0; i < 2; i++ {
		for j := 0; j <= i; j++ {
			if inc.at(i, j) != full.at(i, j) {
				t.Fatalf("truncated L[%d][%d] = %v, want %v", i, j, inc.at(i, j), full.at(i, j))
			}
		}
	}
}

func TestKernelProperties(t *testing.T) {
	kernels := []Kernel{
		Matern52{LengthScale: 0.5, Variance: 2},
		Matern52{LengthScale: 0.1, Variance: 2},
	}
	f := func(a, b [3]uint8) bool {
		x := []float64{float64(a[0]) / 255, float64(a[1]) / 255, float64(a[2]) / 255}
		y := []float64{float64(b[0]) / 255, float64(b[1]) / 255, float64(b[2]) / 255}
		for _, k := range kernels {
			kxy := k.Eval(x, y)
			kyx := k.Eval(y, x)
			kxx := k.Eval(x, x)
			// symmetry, boundedness by variance, self-covariance = variance
			if math.Abs(kxy-kyx) > 1e-12 {
				return false
			}
			if kxy > kxx+1e-12 {
				return false
			}
			if math.Abs(kxx-2) > 1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestGPInterpolatesTrainingData(t *testing.T) {
	g := NewGP(Matern52{LengthScale: 0.3, Variance: 1}, 1e-8)
	xs := [][]float64{{0.1}, {0.4}, {0.7}, {0.95}}
	ys := []float64{1, 3, 2, 5}
	if err := g.Fit(xs, ys); err != nil {
		t.Fatal(err)
	}
	for i, x := range xs {
		mu, v := g.Predict(x)
		if math.Abs(mu-ys[i]) > 0.01 {
			t.Fatalf("GP at training point %v: mean %v, want ~%v", x, mu, ys[i])
		}
		if v > 0.01 {
			t.Fatalf("GP at training point: variance %v, want ~0", v)
		}
	}
}

func TestGPUncertaintyGrowsAwayFromData(t *testing.T) {
	g := NewGP(Matern52{LengthScale: 0.1, Variance: 1}, 1e-6)
	if err := g.Fit([][]float64{{0.5}}, []float64{1}); err != nil {
		t.Fatal(err)
	}
	_, vNear := g.Predict([]float64{0.5})
	_, vFar := g.Predict([]float64{0.0})
	if vFar <= vNear {
		t.Fatalf("variance should grow away from data: near %v far %v", vNear, vFar)
	}
}

func TestGPEmptyPredictsPrior(t *testing.T) {
	g := NewGP(Matern52{LengthScale: 0.3, Variance: 1}, 1e-6)
	mu, v := g.Predict([]float64{0.3})
	if mu != 0 || v != 1 {
		t.Fatalf("empty GP prior = (%v, %v), want (0, 1)", mu, v)
	}
}

func TestGPDuplicatePointsSurvive(t *testing.T) {
	g := NewGP(Matern52{LengthScale: 0.3, Variance: 1}, 1e-6)
	xs := [][]float64{{0.5}, {0.5}, {0.5}}
	ys := []float64{1, 1.1, 0.9}
	if err := g.Fit(xs, ys); err != nil {
		t.Fatalf("duplicate points broke the fit: %v", err)
	}
	mu, _ := g.Predict([]float64{0.5})
	if math.Abs(mu-1.0) > 0.1 {
		t.Fatalf("duplicate-point mean = %v, want ~1.0", mu)
	}
}

func TestExpectedImprovementProperties(t *testing.T) {
	// Zero variance -> zero EI.
	if ExpectedImprovement(10, 0, 5, 0.01) != 0 {
		t.Fatal("EI with zero variance should be 0")
	}
	// Higher mean -> higher EI.
	lo := ExpectedImprovement(1, 1, 2, 0.01)
	hi := ExpectedImprovement(3, 1, 2, 0.01)
	if hi <= lo {
		t.Fatal("EI should increase with mean")
	}
	// EI is non-negative.
	if ExpectedImprovement(-10, 0.5, 5, 0.01) < 0 {
		t.Fatal("EI must be non-negative")
	}
}

// sphere is a simple concave test objective with optimum at 0.7.
func sphere(p param.Point) float64 {
	d := p["x"] - 0.7
	e := p["y"] - 0.3
	return 1 - d*d - e*e
}

func sphereSpace() param.Space {
	return param.Space{{Name: "x", Lo: 0, Hi: 1}, {Name: "y", Lo: 0, Hi: 1}}
}

func TestBayesBeatsRandomOnSphere(t *testing.T) {
	run := func(opt Optimizer, budget int) float64 {
		for i := 0; i < budget; i++ {
			p := opt.Ask()
			opt.Tell(p, sphere(p))
		}
		_, v := opt.Best()
		return v
	}
	const budget = 30
	var bayesWins int
	const replicas = 10
	for rep := 0; rep < replicas; rep++ {
		seed := rng.New(uint64(100 + rep))
		b := run(NewBayes(sphereSpace(), seed.Fork("b"), BayesOpts{}), budget)
		r := run(NewRandom(sphereSpace(), seed.Fork("r")), budget)
		if b >= r {
			bayesWins++
		}
	}
	if bayesWins < 7 {
		t.Fatalf("Bayes won only %d/%d replicas against random on an easy surface", bayesWins, replicas)
	}
}

func TestBayesFindsPerovskiteRidge(t *testing.T) {
	m := twin.Perovskite{}
	b := NewBayes(m.Space(), rng.New(11), BayesOpts{})
	for i := 0; i < 60; i++ {
		p := b.Ask()
		b.Tell(p, m.Eval(p)["plqy"])
	}
	_, v := b.Best()
	if v < 0.55 {
		t.Fatalf("BO best after 60 evals = %v, want > 0.55", v)
	}
}

func TestBayesRespectsLattice(t *testing.T) {
	space := param.Space{
		{Name: "k", Lo: 0, Hi: 10, Step: 1},
		{Name: "x", Lo: 0, Hi: 1},
	}
	b := NewBayes(space, rng.New(12), BayesOpts{initSamples: 4})
	for i := 0; i < 25; i++ {
		p := b.Ask()
		if p["k"] != math.Trunc(p["k"]) {
			t.Fatalf("Ask proposed off-lattice point %v", p)
		}
		b.Tell(p, -math.Abs(p["k"]-7)-math.Abs(p["x"]-0.5))
	}
	bp, _ := b.Best()
	if bp["k"] != math.Trunc(bp["k"]) {
		t.Fatal("best point off lattice")
	}
}

func TestBayesSeedAcceleratesConvergence(t *testing.T) {
	m := twin.Perovskite{}
	// Donor campaign gathers knowledge.
	donor := NewBayes(m.Space(), rng.New(21), BayesOpts{})
	var pts []param.Point
	var vals []float64
	for i := 0; i < 40; i++ {
		p := donor.Ask()
		v := m.Eval(p)["plqy"]
		donor.Tell(p, v)
		pts = append(pts, p)
		vals = append(vals, v)
	}

	const budget = 15
	wins := 0
	const reps = 8
	for rep := 0; rep < reps; rep++ {
		seedStream := rng.New(uint64(300 + rep))
		cold := NewBayes(m.Space(), seedStream.Fork("cold"), BayesOpts{})
		warm := NewBayes(m.Space(), seedStream.Fork("warm"), BayesOpts{})
		warm.Seed(pts, vals, 0.7)
		run := func(b *Bayes) float64 {
			for i := 0; i < budget; i++ {
				p := b.Ask()
				b.Tell(p, m.Eval(p)["plqy"])
			}
			_, v := b.Best()
			return v
		}
		if run(warm) >= run(cold) {
			wins++
		}
	}
	if wins < 5 {
		t.Fatalf("seeded optimizer won only %d/%d replicas", wins, reps)
	}
}

func TestGridCoversSpace(t *testing.T) {
	g := NewGrid(sphereSpace(), 3)
	seen := map[string]bool{}
	for i := 0; i < 9; i++ {
		p := g.Ask()
		seen[p.Key()] = true
		g.Tell(p, sphere(p))
	}
	if len(seen) != 9 {
		t.Fatalf("grid produced %d distinct points, want 9", len(seen))
	}
	// Exhausted grid keeps producing (phase-shifted pass).
	p := g.Ask()
	if p == nil {
		t.Fatal("grid ran dry")
	}
}

func TestRandomTracksBest(t *testing.T) {
	r := NewRandom(sphereSpace(), rng.New(13))
	var maxSeen float64 = math.Inf(-1)
	for i := 0; i < 50; i++ {
		p := r.Ask()
		v := sphere(p)
		if v > maxSeen {
			maxSeen = v
		}
		r.Tell(p, v)
	}
	_, best := r.Best()
	if best != maxSeen {
		t.Fatalf("Best = %v, want %v", best, maxSeen)
	}
	if r.N() != 50 {
		t.Fatalf("N = %d", r.N())
	}
}

func TestBayesDeterministicGivenSeed(t *testing.T) {
	run := func() []string {
		b := NewBayes(sphereSpace(), rng.New(99), BayesOpts{})
		var keys []string
		for i := 0; i < 15; i++ {
			p := b.Ask()
			keys = append(keys, p.Key())
			b.Tell(p, sphere(p))
		}
		return keys
	}
	a, bb := run(), run()
	for i := range a {
		if a[i] != bb[i] {
			t.Fatalf("asks diverged at %d: %s vs %s", i, a[i], bb[i])
		}
	}
}

func TestMaxFitWindow(t *testing.T) {
	b := NewBayes(sphereSpace(), rng.New(15), BayesOpts{maxFit: 20})
	for i := 0; i < 60; i++ {
		p := b.Ask()
		b.Tell(p, sphere(p))
	}
	b.refit()
	if b.gp.N() > 20 {
		t.Fatalf("GP fitted on %d points, want <= 20", b.gp.N())
	}
}
