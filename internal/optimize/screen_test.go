package optimize

import (
	"math"
	"testing"

	"github.com/aisle-sim/aisle/internal/param"
	"github.com/aisle-sim/aisle/internal/rng"
)

// fullArgmax scores the pool's first m candidates with one PredictBatch
// pass, the way an ask did before screening, and returns the first argmax
// with every score.
func fullArgmax(b *Bayes, m int, best float64) (int, []float64) {
	mu, va := make([]float64, m), make([]float64, m)
	b.gp.PredictBatch(b.cand.uview[:m], mu, va, &PredictScratch{})
	scores := make([]float64, m)
	for i := range scores {
		scores[i] = ExpectedImprovement(mu[i], va[i], best, eiMargin)
	}
	return firstMax(scores), scores
}

// firstMax is an ask's argmax rule: the first index of the largest score,
// -1 when none is above -Inf.
func firstMax(scores []float64) int {
	idx, top := -1, math.Inf(-1)
	for i, s := range scores {
		if s > top {
			idx, top = i, s
		}
	}
	return idx
}

// checkScreen holds the screen's last ask to the full pass: the same
// argmax, and every score it computed equal bit for bit.
func checkScreen(t *testing.T, b *Bayes, m, idx int, best float64) []float64 {
	t.Helper()
	want, full := fullArgmax(b, m, best)
	if idx != want {
		t.Fatalf("screened argmax %d, full argmax %d (scores %v vs %v)", idx, want, scoreAt(full, idx), scoreAt(full, want))
	}
	for i, s := range b.cand.scores[:m] {
		if !math.IsInf(s, -1) && math.Float64bits(s) != math.Float64bits(full[i]) {
			t.Fatalf("candidate %d scored %v, full pass %v", i, s, full[i])
		}
	}
	return full
}

// scoreAt is s[i], or NaN for no index.
func scoreAt(s []float64, i int) float64 {
	if i < 0 {
		return math.NaN()
	}
	return s[i]
}

// Every refill of three deep_campaign-shaped runs proposes the full-pool
// argmax, at 1, 2 and 4 scoring workers.
func TestParallelScreenMatchesFullPool(t *testing.T) {
	for _, seed := range []uint64{42, 41, 7} {
		for _, workers := range []int{1, 2, 4} {
			asks := 0
			refillRun(seed, workers, func(b *Bayes, p param.Point, scored bool) {
				if !scored {
					return
				}
				asks++
				m := len(b.cand.scores)
				screened := firstMax(b.cand.scores)
				checkScreen(t, b, m, screened, b.incumbent())
				for i, d := range b.space {
					if v := b.cand.row(screened)[i]; math.Float64bits(p[d.Name]) != math.Float64bits(v) {
						t.Fatalf("seed %d workers %d ask %d: proposed %s=%v, full-pool argmax has %v", seed, workers, asks, d.Name, p[d.Name], v)
					}
				}
			})
			if asks < 60 {
				t.Fatalf("seed %d: only %d scored asks", seed, asks)
			}
		}
	}
}

// FuzzAcquisitionBound builds random posteriors and pools and holds the
// screen to the full pass: every candidate's improvement bound is at least
// its computed score, and the screened argmax is the full argmax. The
// posteriors have 1 to 80 observations, among them duplicate rows without
// noise (which force jitter), transferred rows with inflated noise, or
// constant targets; the pools hold a candidate on a training point and one
// in the cube's corner opposite another.
func FuzzAcquisitionBound(f *testing.F) {
	f.Add(uint64(1), uint8(16), uint8(3), uint8(0x30))
	f.Add(uint64(2), uint8(79), uint8(3), uint8(0x31))
	f.Add(uint64(3), uint8(40), uint8(1), uint8(0x32))
	f.Add(uint64(4), uint8(0), uint8(5), uint8(0x04))
	f.Fuzz(func(t *testing.T, seed uint64, nObs, dimsIn, flags uint8) {
		r := rng.New(seed)
		dims, n := 1+int(dimsIn%6), 1+int(nObs%80)
		k := defaultKernel(dims) // the screened kernel; the others are bounded only
		if ls := []float64{0.15, 0.6, 1.5}; flags>>4%4 < 3 {
			k = Matern52{LengthScale: ls[flags>>4%4], Variance: 0.5 + float64(flags>>4%4)}
		}
		xs, ys, noise := make([][]float64, n), make([]float64, n), make([]float64, n)
		for i := range xs {
			xs[i], ys[i], noise[i] = make([]float64, dims), r.Normal(0, 1), gpNoise
			switch {
			case i == 0: // a cube corner, the origin
			case flags&1 != 0 && r.Bool(0.3):
				j := r.Intn(i)
				copy(xs[i], xs[j])
				noise[i], noise[j] = 0, 0
			default:
				for d := range xs[i] {
					xs[i][d] = r.Float64()
				}
			}
			if flags&2 != 0 {
				ys[i] = 0.25
			}
			if w := r.Float64(); flags&4 != 0 && w < 0.5 {
				noise[i] += (1 - w) / w
			}
		}
		b := &Bayes{space: make(param.Space, dims), gp: NewGP(k, gpNoise), opts: BayesOpts{scoreWorkers: 1 + int(flags>>6)}}
		if err := b.gp.FitNoise(xs, ys, noise); err != nil {
			t.Skip(err)
		}
		const m = 100
		c := &b.cand
		c.ensure(m, dims, b.workers())
		for i := 0; i < m; i++ {
			for d := 0; d < dims; d++ {
				switch i {
				case 0:
					c.uview[i][d] = xs[n-1][d] // on a training point: d2 = 0
				case 1:
					c.uview[i][d] = 1 // opposite the origin: d2 = dims
				default:
					c.uview[i][d] = r.Float64()
				}
			}
		}
		best := ys[r.Intn(n)] + r.Normal(0, 0.5)
		full := checkScreen(t, b, m, b.argmaxEI(m, best), best)

		g := b.gp
		ub := make([]float64, m)
		g.meanBounds(c.units[:m*dims], ub, newKernelTable(k, dims))
		kxx, _ := selfCov(k)
		va := max(kxx, 1e-12) * g.std * g.std
		mu := make([]float64, m)
		g.PredictBatch(c.uview[:m], mu, make([]float64, m), &PredictScratch{})
		for i, u := range ub {
			if mean := g.mean + g.std*u; !(mean >= mu[i]) || !(eiBound(mean, va, best) >= full[i]) {
				t.Fatalf("candidate %d: bound mean %v, improvement %v; computed %v, %v",
					i, mean, eiBound(mean, va, best), mu[i], full[i])
			}
		}
	})
}
