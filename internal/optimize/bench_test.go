package optimize

import (
	"fmt"
	"math"
	"testing"

	"github.com/aisle-sim/aisle/internal/param"
	"github.com/aisle-sim/aisle/internal/rng"
)

// benchSpace is a 4-d continuous space, typical of the digital-twin
// response surfaces the campaigns optimize over.
func benchSpace() param.Space {
	return param.Space{
		{Name: "a", Lo: 0, Hi: 1},
		{Name: "b", Lo: 0, Hi: 1},
		{Name: "c", Lo: 0, Hi: 1},
		{Name: "d", Lo: 0, Hi: 1},
	}
}

// benchData draws n training points in the unit cube.
func benchData(n, d int) ([][]float64, []float64) {
	r := rng.New(7)
	xs := make([][]float64, n)
	ys := make([]float64, n)
	for i := range xs {
		xs[i] = make([]float64, d)
		for j := range xs[i] {
			xs[i][j] = r.Float64()
		}
		ys[i] = r.Normal(0, 1)
	}
	return xs, ys
}

// BenchmarkGPFit measures a from-scratch factorization at n=256, the
// MaxFit window size — the cost AskBatch used to pay k times per batch.
func BenchmarkGPFit(b *testing.B) {
	xs, ys := benchData(256, 4)
	g := NewGP(defaultKernel(4), 1e-4)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := g.Fit(xs, ys); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkGPPredictBatch measures scoring 576 candidates (the default
// Candidates+LocalCandidates pool) against a 256-observation posterior.
func BenchmarkGPPredictBatch(b *testing.B) {
	xs, ys := benchData(256, 4)
	g := NewGP(defaultKernel(4), 1e-4)
	if err := g.Fit(xs, ys); err != nil {
		b.Fatal(err)
	}
	cands, _ := benchData(576, 4)
	mu := make([]float64, len(cands))
	va := make([]float64, len(cands))
	var scratch PredictScratch
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g.PredictBatch(cands, mu, va, &scratch)
	}
}

// BenchmarkAskBatch measures a parallel refill at n=256 observations:
// 4 in-flight fantasies plus an 8-point constant-liar batch, the hot
// per-decision path of a saturated Parallelism>=8 campaign.
func BenchmarkAskBatch(b *testing.B) {
	space := benchSpace()
	bo := NewBayes(space, rng.New(11), BayesOpts{})
	r := rng.New(13)
	for i := 0; i < 256; i++ {
		p := space.Sample(r)
		bo.Tell(p, r.Normal(0, 1))
	}
	inflight := []param.Point{space.Sample(r), space.Sample(r), space.Sample(r), space.Sample(r)}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if got := bo.AskBatch(8, inflight); len(got) != 8 {
			b.Fatalf("AskBatch returned %d points", len(got))
		}
	}
}

// BenchmarkAsk measures a single serial decision at n=256.
func BenchmarkAsk(b *testing.B) {
	space := benchSpace()
	bo := NewBayes(space, rng.New(11), BayesOpts{})
	r := rng.New(13)
	for i := 0; i < 256; i++ {
		p := space.Sample(r)
		bo.Tell(p, r.Normal(0, 1))
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		bo.stale = true // each iteration pays one incremental sync
		_ = bo.Ask()
	}
}

// refillState is a campaign mid-flight: n told observations on the 4-d
// bench space and three experiments in flight, the state every
// deep_campaign refill asks from.
func refillState(n int, opts BayesOpts) (*Bayes, []param.Point) {
	space := benchSpace()
	bo := NewBayes(space, rng.New(11), opts)
	r := rng.New(13)
	for i := 0; i < n; i++ {
		bo.Tell(space.Sample(r), r.Normal(0, 1))
	}
	return bo, []param.Point{space.Sample(r), space.Sample(r), space.Sample(r)}
}

// BenchmarkAskRefill measures the decision campaigns actually make: one
// AskBatch(1, fly) refill with three points in flight, at the small
// training sets (n <= 67) a 64-experiment campaign asks from. scored/ask
// is the number of pool candidates each ask scored exactly; the screen
// fixes its threshold before any helper starts, so the count is the same
// at every worker count.
func BenchmarkAskRefill(b *testing.B) {
	for _, n := range []int{16, 64} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			bo, fly := refillState(n, BayesOpts{})
			for len(bo.initPlan) > 0 {
				bo.AskBatch(1, fly) // serve the warm-up plan untimed
			}
			scored := 0
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if got := bo.AskBatch(1, fly); len(got) != 1 {
					b.Fatalf("AskBatch returned %d points", len(got))
				}
				scored += scoredExactly(bo)
			}
			b.ReportMetric(float64(scored)/float64(b.N), "scored/ask")
		})
	}
}

// scoredExactly counts the candidates the last ask scored exactly: the
// screen leaves every other score at -Inf.
func scoredExactly(bo *Bayes) int {
	n := 0
	for _, s := range bo.cand.scores {
		if !math.IsInf(s, -1) {
			n++
		}
	}
	return n
}
