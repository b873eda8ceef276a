package optimize

import (
	"math"
	"sync"
)

// An ask's argmax is exact, but it scores exactly only the candidates that
// can still win. Screening bounds each candidate's expected improvement
// from above with no exp, solve or square root: the standardized mean
// sum_j alpha_j k(x, x_j) by the same sum over a linearly interpolated
// kernel table plus the table's error times sum_j |alpha_j|, and the
// variance by the prior k(x, x), since the solve norm it subtracts is a
// sum of squares. Expected improvement increases in both, so a candidate
// whose bound is below a computed score cannot be the argmax. Exact scores
// are PredictBatch's lane for lane, and the argmax keeps the first-index
// rule: the decision is bit for bit the one scoring the whole pool makes.

const tableSteps = 4096 // interpolation steps over [0, dims]

// kernelTable is a Matérn-5/2 kernel tabulated in squared distance over
// the unit cube, one knot past its largest distance for rounding there.
type kernelTable struct {
	v         [tableSteps + 2]float64 // v[k] = k(k*h), h = max/tableSteps
	invh, max float64                 // 1/h; dims
	err, eps  float64                 // interpolation error; summation slack per row, both per unit |alpha|
}

// newKernelTable tabulates k over [0, dims]. With a^2 = 5/l^2 and
// s = a*sqrt(w), k = V(1+s+s^2/3)e^-s has second derivative
// V a^4 e^-s/12 <= V a^4/12 in w, so interpolating on steps of h is within
// V a^4/12 * h^2/8 of it (4.1e-6 for the 4-d default). The slope
// |dk/dw| <= V a^2/6 makes the position's 2u relative rounding at most
// V a^2 dims u/3, and the knots, the interpolation and scoreBlock's kernel
// round by a few ulps of V: err adds (a^2 dims + 32) 2u V. Each of the two
// weighted sums compared rounds by at most n u V per unit |alpha|.
func newKernelTable(k Matern52, dims int) *kernelTable {
	const u = 0x1p-53
	t := &kernelTable{max: float64(dims), invh: tableSteps / float64(dims)}
	h := t.max / tableSteps
	for i := range t.v {
		t.v[i] = k.fromD2(float64(i) * h)
	}
	a2 := 5 / (k.LengthScale * k.LengthScale)
	t.err = k.Variance*a2*a2/12*h*h/8 + (a2*t.max+32)*2*u*k.Variance
	t.eps = 4 * u * k.Variance
	return t
}

// kernelTables maps dims to the table of defaultKernel(dims), built on
// first use and read-only after, shared by every optimizer and goroutine.
var kernelTables sync.Map

// tableFor returns the table of k over dims dimensions, or nil unless k is
// the default kernel of dims, the one every program asks with.
func tableFor(k Kernel, dims int) *kernelTable {
	if mk, ok := k.(Matern52); !ok || dims < 1 || mk != defaultKernel(dims) {
		return nil
	}
	t, ok := kernelTables.Load(dims)
	if !ok {
		t, _ = kernelTables.LoadOrStore(dims, newKernelTable(defaultKernel(dims), dims))
	}
	return t.(*kernelTable)
}

// at interpolates the table at squared distance w; NaN beyond it.
func (t *kernelTable) at(w float64) float64 {
	if !(w <= t.max) {
		return math.NaN()
	}
	p := w * t.invh
	k := int(p)
	return t.v[k] + (t.v[k+1]-t.v[k])*(p-float64(k))
}

// meanBounds sets ub[i] to an upper bound on the standardized mean
// scoreBlock computes at the candidate with unit coordinates
// units[i*d:(i+1)*d]: the weighted sum over the table plus sum_j |alpha_j|
// times the table's error and slack. Four candidates share each pass over
// the training points, with sqDist's squared distances term for term. A
// distance beyond the table, or a NaN weight, bounds nothing: +Inf.
func (g *GP) meanBounds(units, ub []float64, t *kernelTable) {
	n, d := g.n, g.d
	alpha, xs := g.alpha[:n], g.xs[:n*d]
	var abs float64
	for _, a := range alpha {
		abs += math.Abs(a)
	}
	slack := abs * (t.err + float64(n)*t.eps)
	for base := 0; base < len(ub); base += 4 {
		var c [4][]float64
		for q := range c {
			i := min(base+q, len(ub)-1)
			c[q] = units[i*d : i*d+d]
		}
		c0, c1, c2, c3 := c[0], c[1], c[2], c[3]
		var s [4]float64
		for j, a := range alpha {
			var w0, w1, w2, w3 float64
			for k, v := range xs[j*d : j*d+d] {
				e0, e1, e2, e3 := c0[k]-v, c1[k]-v, c2[k]-v, c3[k]-v
				w0 += e0 * e0
				w1 += e1 * e1
				w2 += e2 * e2
				w3 += e3 * e3
			}
			s[0] += a * t.at(w0)
			s[1] += a * t.at(w1)
			s[2] += a * t.at(w2)
			s[3] += a * t.at(w3)
		}
		for q := 0; q < len(s) && base+q < len(ub); q++ {
			if ub[base+q] = s[q] + slack; ub[base+q] != ub[base+q] {
				ub[base+q] = math.Inf(1)
			}
		}
	}
}

// eiBound bounds from above the expected improvement computed at any mean
// and variance no larger than these. The exact improvement increases in
// both; a computed one is within a few ulps of |mean|+|best|+xi+sd of it,
// and the slack is 1e-12 of that.
func eiBound(mean, variance, best float64) float64 {
	return ExpectedImprovement(mean, variance, best, eiMargin) +
		1e-12*(math.Abs(mean)+math.Abs(best)+eiMargin+math.Sqrt(variance))
}

// argmaxEI returns the first of the pool's m candidates with the highest
// expected improvement against best, or -1 when none scores. It scores the
// block of the best mean bounds, then, on the scoring workers, every other
// candidate whose bound reaches that block's best score; the rest keep
// -Inf. The improvement bound is evaluated only between the largest losing
// and the smallest winning mean bound so far, a cut found in a few tries.
func (b *Bayes) argmaxEI(m int, best float64) int {
	c, g, d := &b.cand, b.gp, len(b.space)
	bound, scores := c.bound[:m], c.scores[:m]
	for i := range scores {
		scores[i], bound[i] = math.Inf(-1), math.Inf(1)
	}
	if t := tableFor(g.Kernel, d); t != nil && g.N() > 0 {
		g.meanBounds(c.units[:m*d], bound, t)
	}
	top := c.order[:min(predictBlock, m)]
	for n := range top {
		k := 0
		for i, u := range bound {
			if u > bound[k] {
				k = i
			}
		}
		top[n], bound[k] = int32(k), math.Inf(-1) // scored now
	}
	b.scoreExact(top, best, &c.scratch[0])
	s0 := math.Inf(-1)
	for _, i := range top {
		s0 = math.Max(s0, scores[i])
	}
	kxx, _ := selfCov(g.Kernel)
	va := max(kxx, 1e-12) * g.std * g.std
	order := c.order[len(top):len(top)]
	lose, win := math.Inf(-1), math.Inf(1)
	for i, u := range bound {
		if u <= lose {
			continue
		}
		if u < win {
			if eiBound(g.mean+g.std*u, va, best) < s0 {
				lose = u
				continue
			}
			win = u
		}
		order = append(order, int32(i))
	}
	b.shard(len(order), func(lo, hi, w int) {
		for ; lo < hi; lo += predictBlock {
			b.scoreExact(order[lo:min(lo+predictBlock, hi)], best, &c.scratch[w])
		}
	})
	idx, bestScore := -1, math.Inf(-1)
	for i, s := range scores {
		if s > bestScore {
			idx, bestScore = i, s
		}
	}
	return idx
}

// scoreExact scores the listed candidates, at most predictBlock of them,
// packed into one PredictBatch block.
func (b *Bayes) scoreExact(idx []int32, best float64, sc *PredictScratch) {
	var xs [predictBlock][]float64
	var mu, va [predictBlock]float64
	for t, i := range idx {
		xs[t] = b.cand.uview[i]
	}
	b.gp.PredictBatch(xs[:len(idx)], mu[:len(idx)], va[:len(idx)], sc)
	for t, i := range idx {
		b.cand.scores[i] = ExpectedImprovement(mu[t], va[t], best, eiMargin)
	}
}
