package optimize

import (
	"math"
	"testing"
	"testing/quick"

	"github.com/aisle-sim/aisle/internal/param"
	"github.com/aisle-sim/aisle/internal/rng"
)

// Property: growing a GP by rank-1 appends matches a from-scratch Fit to
// 1e-9 in posterior mean and variance across random append sequences —
// including sequences with duplicated points, which force the jitter-
// escalation fallback inside Append.
func TestPropertyIncrementalMatchesBatchFit(t *testing.T) {
	f := func(seed uint32) bool {
		r := rng.New(uint64(seed))
		n := 1 + r.Intn(40)
		d := 1 + r.Intn(3)
		noise := 1e-6
		if r.Bool(0.5) {
			noise = 1e-4
		}
		xs := make([][]float64, n)
		ys := make([]float64, n)
		for i := range xs {
			if i > 0 && r.Bool(0.2) {
				// Duplicate an earlier point: near-singular covariance,
				// exercising the jitter path.
				xs[i] = append([]float64(nil), xs[r.Intn(i)]...)
			} else {
				xs[i] = make([]float64, d)
				for j := range xs[i] {
					xs[i][j] = r.Float64()
				}
			}
			ys[i] = r.Normal(0, 2)
		}

		inc := NewGP(Matern52{LengthScale: 0.4, Variance: 1}, noise)
		for i := range xs {
			if err := inc.Append(xs[i], ys[i], noise); err != nil {
				return true // degenerate beyond jitter: batch fit fails too
			}
		}
		batch := NewGP(Matern52{LengthScale: 0.4, Variance: 1}, noise)
		if err := batch.Fit(xs, ys); err != nil {
			return false // incremental succeeded, batch must too
		}
		for probe := 0; probe < 20; probe++ {
			x := make([]float64, d)
			for j := range x {
				x[j] = r.Float64()
			}
			m1, v1 := inc.Predict(x)
			m2, v2 := batch.Predict(x)
			if math.Abs(m1-m2) > 1e-9 || math.Abs(v1-v2) > 1e-9 {
				t.Logf("divergence at n=%d d=%d: mean %v vs %v, var %v vs %v",
					n, d, m1, m2, v1, v2)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// Property: truncating appended observations restores the exact posterior
// of the shorter training set — the invariant AskBatch's fantasy overlay
// relies on to retract constant-liar rows.
func TestPropertyTruncateRestoresPosterior(t *testing.T) {
	f := func(seed uint32) bool {
		r := rng.New(uint64(seed))
		n := 2 + r.Intn(20)
		extra := 1 + r.Intn(8)
		d := 2
		mk := func() *GP { return NewGP(Matern52{LengthScale: 0.4, Variance: 1}, 1e-4) }
		draw := func() ([]float64, float64) {
			x := make([]float64, d)
			for j := range x {
				x[j] = r.Float64()
			}
			return x, r.Normal(0, 1)
		}
		g := mk()
		ref := mk()
		for i := 0; i < n; i++ {
			x, y := draw()
			if g.Append(x, y, 1e-4) != nil || ref.Append(x, y, 1e-4) != nil {
				return true
			}
		}
		for i := 0; i < extra; i++ {
			x, y := draw()
			if g.Append(x, y, 1e-4) != nil {
				return true
			}
		}
		if err := g.Truncate(n); err != nil {
			return false
		}
		for probe := 0; probe < 10; probe++ {
			x := make([]float64, d)
			for j := range x {
				x[j] = r.Float64()
			}
			m1, v1 := g.Predict(x)
			m2, v2 := ref.Predict(x)
			if m1 != m2 || v1 != v2 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// Parallel candidate scoring must return exactly the serial answer for a
// fixed seed: workers are pure functions merged by candidate index, so the
// worker count cannot influence which point wins.
func TestParallelScoringMatchesSerial(t *testing.T) {
	run := func(workers int) []string {
		b := NewBayes(sphereSpace(), rng.New(77), BayesOpts{scoreWorkers: workers})
		var keys []string
		for i := 0; i < 25; i++ {
			p := b.Ask()
			keys = append(keys, p.Key())
			b.Tell(p, sphere(p))
		}
		// Batch asks take the fantasy-overlay scoring path.
		for _, p := range b.AskBatch(5, nil) {
			keys = append(keys, p.Key())
		}
		return keys
	}
	serial := run(1)
	for _, workers := range []int{2, 4, 8} {
		got := run(workers)
		if len(got) != len(serial) {
			t.Fatalf("workers=%d returned %d points, serial %d", workers, len(got), len(serial))
		}
		for i := range serial {
			if got[i] != serial[i] {
				t.Fatalf("workers=%d diverged at ask %d: %s vs serial %s",
					workers, i, got[i], serial[i])
			}
		}
	}
}

// AskBatch(1, inflight) must propose exactly what a serial Ask would after
// fantasizing the in-flight points — the path campaign refills take.
func TestAskBatchSingleMatchesSerialPath(t *testing.T) {
	mk := func() *Bayes {
		b := NewBayes(sphereSpace(), rng.New(31), BayesOpts{initSamples: 4})
		for i := 0; i < 9; i++ {
			p := b.Ask()
			b.Tell(p, sphere(p))
		}
		return b
	}
	a := mk()
	bb := mk()
	fly := []param.Point{{"x": 0.5, "y": 0.5}, {"x": 0.1, "y": 0.9}}
	p1 := a.AskBatch(1, fly)[0]
	p2 := bb.AskBatch(1, fly)[0]
	if p1.Key() != p2.Key() {
		t.Fatalf("replayed AskBatch(1) diverged: %s vs %s", p1.Key(), p2.Key())
	}
	if a.N() != 9 {
		t.Fatalf("fantasies leaked: N = %d", a.N())
	}
}

// Transfer-seeded observations are down-weighted through per-observation
// noise: a seeded value must pull the posterior mean less than the same
// value told locally, and more for lower weights.
func TestSeedNoiseDownWeighting(t *testing.T) {
	probe := param.Point{"x": 0.3, "y": 0.3}
	post := func(weight float64) float64 {
		b := NewBayes(sphereSpace(), rng.New(41), BayesOpts{initSamples: 2})
		// Local anchor far from the probe keeps the GP standardization
		// non-degenerate.
		b.Tell(param.Point{"x": 0.9, "y": 0.9}, 0)
		if weight >= 1 {
			b.Tell(probe, 5)
		} else {
			b.Seed([]param.Point{probe}, []float64{5}, weight)
		}
		b.refit()
		u := make([]float64, len(b.space))
		b.space.ToUnitInto(probe, u)
		mu, _ := b.gp.Predict(u)
		return mu
	}
	local := post(1)
	warm := post(0.7)
	weak := post(0.2)
	if !(local > warm && warm > weak) {
		t.Fatalf("down-weighting not monotone: local %v, w=0.7 %v, w=0.2 %v", local, warm, weak)
	}
	if weak <= 0 {
		t.Fatalf("weakly weighted evidence should still pull the mean up: %v", weak)
	}
}

// Grid lattice sizes that overflow levels^dims must saturate, not wrap.
func TestGridOverflowSaturates(t *testing.T) {
	space := make(param.Space, 64)
	for i := range space {
		space[i] = param.Dim{Name: string(rune('a'+i%26)) + string(rune('0'+i/26)), Lo: 0, Hi: 1}
	}
	g := NewGrid(space, 10) // 10^64 lattice points
	if g.total != math.MaxInt {
		t.Fatalf("total = %d, want MaxInt saturation", g.total)
	}
	for i := 0; i < 10; i++ {
		p := g.Ask()
		if err := space.Validate(p); err != nil {
			t.Fatalf("overflowed grid proposed invalid point: %v", err)
		}
	}
}

// negKernel is intentionally not positive definite, defeating every
// jitter escalation.
type negKernel struct{}

func (negKernel) Eval(a, b []float64) float64 { return -1 }

// A GP that survives a factorization failure must behave as a consistent
// empty model: no stale rows, and subsequent appends start fresh.
func TestGPErrorPathLeavesCleanModel(t *testing.T) {
	g := NewGP(negKernel{}, 1e-6)
	if err := g.Append([]float64{0.5}, 1, 1e-6); err == nil {
		t.Fatal("negative-definite kernel should fail to factorize")
	}
	if g.N() != 0 {
		t.Fatalf("failed GP holds %d observations, want 0", g.N())
	}
	if mu, v := g.Predict([]float64{0.5}); mu != 0 || v != 1 {
		t.Fatalf("failed GP predicts (%v, %v), want the (0, 1) prior", mu, v)
	}
	// Swapping in a valid kernel, the same GP must accept appends with no
	// residue from the failed rows.
	g.Kernel = Matern52{LengthScale: 0.4, Variance: 1}
	if err := g.Append([]float64{0.25}, 2, 1e-6); err != nil {
		t.Fatalf("append after failure: %v", err)
	}
	if g.N() != 1 {
		t.Fatalf("N = %d after recovery append, want 1", g.N())
	}
	if mu, _ := g.Predict([]float64{0.25}); math.Abs(mu-2) > 0.01 {
		t.Fatalf("recovered GP mean at training point = %v, want ~2", mu)
	}
}

// flakyKernel behaves like a Matérn until bad flips, then turns negative
// definite — forcing a factorization failure in the middle of a batch.
type flakyKernel struct{ bad *bool }

func (k flakyKernel) Eval(a, b []float64) float64 {
	if *k.bad {
		return -1
	}
	return Matern52{LengthScale: 0.4, Variance: 1}.Eval(a, b)
}

// Losing the model mid-batch (a fantasy row that cannot factorize even
// with jitter) must degrade gracefully: the batch still returns k distinct
// finite points from the last good scores, nothing leaks, and the
// optimizer keeps working afterwards.
func TestAskBatchSurvivesMidBatchModelLoss(t *testing.T) {
	bad := false
	b := NewBayes(sphereSpace(), rng.New(51), BayesOpts{
		initSamples: 4, kernel: flakyKernel{bad: &bad},
	})
	for i := 0; i < 10; i++ {
		p := b.Ask()
		b.Tell(p, sphere(p))
	}
	b.Ask() // sync the GP while the kernel is still healthy
	bad = true
	out := b.AskBatch(4, nil)
	if len(out) != 4 {
		t.Fatalf("AskBatch returned %d points, want 4", len(out))
	}
	seen := map[string]bool{}
	for _, p := range out {
		if err := sphereSpace().Validate(p); err != nil {
			t.Fatalf("degraded batch proposed invalid point: %v", err)
		}
		if seen[p.Key()] {
			t.Fatalf("degraded batch proposed duplicate point %v", p)
		}
		seen[p.Key()] = true
	}
	if b.N() != 10 {
		t.Fatalf("fantasies leaked through model loss: N = %d", b.N())
	}
	// The optimizer recovers (pure-exploration fallback) on later asks.
	p := b.Ask()
	if err := sphereSpace().Validate(p); err != nil {
		t.Fatalf("post-loss Ask proposed invalid point: %v", err)
	}
	b.Tell(p, sphere(p))
}
