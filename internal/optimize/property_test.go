package optimize

import (
	"math"
	"testing"
	"testing/quick"

	"github.com/aisle-sim/aisle/internal/rng"
)

// Property: any matrix of the form B*B^T + I is SPD, must factorize, and
// the factorization must solve linear systems to tight residuals.
func TestPropertyCholeskySolvesSPD(t *testing.T) {
	f := func(seed uint32) bool {
		r := rng.New(uint64(seed))
		n := 2 + r.Intn(6)
		b := make([][]float64, n)
		for i := range b {
			b[i] = make([]float64, n)
			for j := range b[i] {
				b[i][j] = r.Normal(0, 1)
			}
		}
		a := make([][]float64, n)
		for i := range a {
			a[i] = make([]float64, n)
			for j := range a[i] {
				var s float64
				for k := 0; k < n; k++ {
					s += b[i][k] * b[j][k]
				}
				a[i][j] = s
				if i == j {
					a[i][j] += 1
				}
			}
		}
		l, ok := factorDense(a)
		if !ok {
			return false
		}
		rhs := make([]float64, n)
		for i := range rhs {
			rhs[i] = r.Normal(0, 1)
		}
		x := cholSolveDense(l, rhs)
		for i := range a {
			var s float64
			for j := range a[i] {
				s += a[i][j] * x[j]
			}
			if math.Abs(s-rhs[i]) > 1e-8 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// Property: GP posterior variance is non-negative everywhere and the
// posterior mean at any point stays within a modest extrapolation band of
// the target range (standardized GPs revert to the mean away from data).
func TestPropertyGPPosteriorSane(t *testing.T) {
	f := func(seed uint32) bool {
		r := rng.New(uint64(seed))
		n := 3 + r.Intn(10)
		xs := make([][]float64, n)
		ys := make([]float64, n)
		lo, hi := math.Inf(1), math.Inf(-1)
		for i := range xs {
			xs[i] = []float64{r.Float64(), r.Float64()}
			ys[i] = r.Normal(0, 3)
			lo = math.Min(lo, ys[i])
			hi = math.Max(hi, ys[i])
		}
		// Moderate noise keeps the solve well-conditioned; near-duplicate
		// inputs with conflicting targets otherwise produce legitimate
		// (but unbounded) interpolation overshoot.
		g := NewGP(Matern52{LengthScale: 0.4, Variance: 1}, 1e-2)
		if err := g.Fit(xs, ys); err != nil {
			return false
		}
		span := hi - lo + 1e-9
		for probe := 0; probe < 20; probe++ {
			mu, v := g.Predict([]float64{r.Float64(), r.Float64()})
			if v < 0 || math.IsNaN(mu) || math.IsNaN(v) {
				return false
			}
			if mu < lo-5*span || mu > hi+5*span {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// Property: Bayes.Ask always returns a point inside the space, regardless
// of what values Tell has seen (including extreme ones).
func TestPropertyBayesAskInSpace(t *testing.T) {
	f := func(seed uint32, raw []int8) bool {
		b := NewBayes(sphereSpace(), rng.New(uint64(seed)), BayesOpts{initSamples: 3})
		for i, v := range raw {
			if i > 20 {
				break
			}
			p := b.Ask()
			if err := sphereSpace().Validate(p); err != nil {
				return false
			}
			b.Tell(p, float64(v)*1e6) // extreme targets
		}
		p := b.Ask()
		return sphereSpace().Validate(p) == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}
