// Package optimize implements the decision-making methods the paper's
// orchestration layer coordinates (dimension 3): Gaussian-process surrogate
// models, Bayesian optimisation with an expected-improvement acquisition,
// nested discrete-continuous search (the Smart Dope strategy),
// random and grid baselines, and cross-facility transfer seeding — the
// mechanism behind milestone M9's "reduce required experiments by >30%".
//
// All optimizers follow the ask/tell protocol so campaign engines control
// execution: Ask proposes the next experiment, Tell reports its measured
// objective.
//
// The GP is built for the per-decision hot path of batched campaigns: the
// Cholesky factor lives in flat packed-triangular storage (chol.go) and
// grows by O(n^2) rank-1 appends on Tell instead of O(n^3) refits, fantasy
// observations append and retract against the shared factor, and candidate
// scoring runs through PredictBatch, which is allocation-free in steady
// state with caller-owned scratch buffers.
package optimize

import (
	"errors"
	"math"
)

// Kernel is a positive-definite covariance function on unit-cube vectors.
type Kernel interface {
	// Eval returns k(a, b).
	Eval(a, b []float64) float64
}

// sqDist is the squared Euclidean distance every stationary kernel here
// is a function of.
func sqDist(a, b []float64) float64 {
	var d2 float64
	for i := range a {
		d := a[i] - b[i]
		d2 += d * d
	}
	return d2
}

// Matern52 is the Matérn 5/2 kernel, the default for physical response
// surfaces (twice differentiable, rougher than a squared exponential).
type Matern52 struct {
	LengthScale float64
	Variance    float64
}

// Eval implements Kernel.
func (k Matern52) Eval(a, b []float64) float64 { return k.fromD2(sqDist(a, b)) }

// fromD2 is the kernel value at squared distance d2 — the single copy of
// the formula shared by Eval and the devirtualized row/block loops, so
// training and prediction covariances can never drift apart.
func (k Matern52) fromD2(d2 float64) float64 {
	r := math.Sqrt(d2) / k.LengthScale
	s5 := math.Sqrt(5) * r
	return k.Variance * (1 + s5 + 5*r*r/3) * math.Exp(-s5)
}

// ErrNotPD is returned when the covariance matrix cannot be factorized even
// with jitter, typically from duplicate points with zero noise.
var ErrNotPD = errors.New("optimize: covariance matrix not positive definite")

// GP is a Gaussian-process regressor over unit-cube inputs. Targets are
// standardized internally; predictions are on the original scale.
// Observations arrive in bulk (Fit, FitNoise, O(n^3)) or one at a time
// (Append, an O(n^2) Cholesky row append); Truncate withdraws trailing ones,
// which is how constant-liar fantasies retract. PredictBatch is O(n^2) per
// point and is the only method safe for concurrent use, with one
// PredictScratch per goroutine.
type GP struct {
	Kernel Kernel
	// Noise is the observation noise variance (on standardized targets)
	// used when no per-observation noise is given.
	Noise float64

	d      int       // input dimensionality
	n      int       // observations
	xs     []float64 // flat row-major inputs, n*d
	ys     []float64
	noises []float64 // per-observation noise variance
	mean   float64
	std    float64

	fac      cholFactor // factor of K + diag(noises)
	alpha    []float64  // (L L^T)^{-1} z, standardized targets z
	w        []float64  // forward half L^{-1} z (alpha's intermediate)
	jittered bool       // factor was built with diagonal jitter

	kbuf   []float64 // packed covariance scratch for full factorizations
	krow   []float64 // covariance row scratch for appends
	frozen int       // trailing rows appended under frozen standardization
}

// NewGP returns a GP with the given kernel and noise variance.
func NewGP(k Kernel, noise float64) *GP {
	if noise <= 0 {
		noise = 1e-6
	}
	return &GP{Kernel: k, Noise: noise}
}

// N reports the number of observations.
func (g *GP) N() int { return g.n }

// Fit replaces the training set and factorizes the covariance in O(n^3).
func (g *GP) Fit(xs [][]float64, ys []float64) error {
	return g.FitNoise(xs, ys, nil)
}

// FitNoise is Fit with a per-observation noise variance vector, the
// mechanism behind transfer-learning down-weighting: foreign observations
// carry inflated noise instead of distorted targets. A nil noise vector
// applies the uniform g.Noise.
func (g *GP) FitNoise(xs [][]float64, ys []float64, noise []float64) error {
	if len(xs) != len(ys) {
		panic("optimize: xs/ys length mismatch")
	}
	if noise != nil && len(noise) != len(xs) {
		panic("optimize: xs/noise length mismatch")
	}
	n := len(xs)
	g.n = n
	g.frozen = 0
	if n == 0 {
		g.clear()
		return nil
	}
	g.d = len(xs[0])
	g.xs = growTo(g.xs, n*g.d)
	g.ys = growTo(g.ys, n)
	g.noises = growTo(g.noises, n)
	for i := range xs {
		copy(g.xs[i*g.d:(i+1)*g.d], xs[i])
		g.ys[i] = ys[i]
		if noise != nil {
			g.noises[i] = noise[i]
		} else {
			g.noises[i] = g.Noise
		}
	}
	if err := g.refactor(); err != nil {
		g.clear()
		return err
	}
	g.resolve()
	return nil
}

// clear empties the model entirely — observations, factor, and solves —
// so a GP that survives a factorization error is a consistent empty GP
// (prior predictions) rather than one holding stale rows.
func (g *GP) clear() {
	g.n = 0
	g.frozen = 0
	g.fac.reset()
	g.xs, g.ys, g.noises = g.xs[:0], g.ys[:0], g.noises[:0]
	g.alpha, g.w = nil, nil
}

// Append extends the training set by one observation in O(n^2) via a
// Cholesky rank-1 append. When the extended matrix loses positive
// definiteness (or an earlier factorization needed jitter), it falls back
// to a from-scratch refactorization with escalating jitter — the same path
// Fit takes — so incremental growth always matches a bulk Fit bit for bit.
func (g *GP) Append(x []float64, y, noise float64) error {
	if g.n == 0 {
		g.d = len(x)
	}
	g.pushObs(x, y, noise)
	if g.jittered || !g.tryAppendRow(g.n-1) {
		if err := g.refactor(); err != nil {
			g.clear()
			return err
		}
	}
	g.resolve()
	return nil
}

// appendFrozen extends the factor by one observation without
// restandardizing targets: mean, std, and alpha stay those of the
// observations present at the last resolve, and only the forward half w is
// extended. This is the fantasy-overlay fast path — batch asks score
// incremental posterior updates against frozen standardization, then
// Truncate retracts the rows. It reports false when the appended row broke
// positive definiteness; the caller must then Resync and rescore.
// PredictBatch must not be called while frozen rows are pending.
func (g *GP) appendFrozen(x []float64, y, noise float64) bool {
	g.pushObs(x, y, noise)
	if g.jittered || !g.tryAppendRow(g.n-1) {
		if err := g.refactor(); err != nil {
			g.clear()
			return false
		}
		g.resolve()
		return false
	}
	g.frozen++
	g.w = append(g.w, g.fac.extendForward(g.w, (y-g.mean)/g.std))
	return true
}

// pushObs records an observation's raw data without touching the factor.
func (g *GP) pushObs(x []float64, y, noise float64) {
	g.xs = append(g.xs, x...)
	g.ys = append(g.ys, y)
	g.noises = append(g.noises, noise)
	g.n++
}

// tryAppendRow extends the factor with observation i's covariance row,
// reporting whether the extended matrix stayed positive definite.
func (g *GP) tryAppendRow(i int) bool {
	x := g.xs[i*g.d : (i+1)*g.d]
	g.krow = growTo(g.krow, i)
	g.kernelRow(x, g.krow[:i], i)
	return g.fac.appendRow(g.krow[:i], g.Kernel.Eval(x, x)+g.noises[i])
}

// Truncate retracts the training set to its first n observations in
// O(n^2): the factor's trailing rows are dropped (O(1) in packed storage)
// and the target solve is recomputed. A factor that was built with jitter
// is refactorized from scratch instead, so the retracted state matches
// what a bulk Fit of the first n observations would produce; like Fit and
// Append, an unfactorizable window clears the model and surfaces
// ErrNotPD.
func (g *GP) Truncate(n int) error {
	if n >= g.n {
		return nil
	}
	g.n = n
	g.xs = g.xs[:n*g.d]
	g.ys = g.ys[:n]
	g.noises = g.noises[:n]
	g.frozen = 0
	if n == 0 {
		g.fac.reset()
		g.alpha, g.w = nil, nil
		return nil
	}
	if g.jittered {
		if err := g.refactor(); err != nil {
			g.clear()
			return err
		}
	} else {
		g.fac.truncate(n)
	}
	g.resolve()
	return nil
}

// refactor rebuilds the packed covariance from stored observations and
// factorizes with escalating jitter, mirroring the classic bulk-fit path.
func (g *GP) refactor() error {
	n := g.n
	g.kbuf = growTo(g.kbuf, rowOff(n))
	for i := 0; i < n; i++ {
		xi := g.xs[i*g.d : (i+1)*g.d]
		row := g.kbuf[rowOff(i):]
		g.kernelRow(xi, row[:i], i)
		row[i] = g.Kernel.Eval(xi, xi) + g.noises[i]
	}
	jitter := 0.0
	for try := 0; try < 6; try++ {
		if g.fac.factorize(g.kbuf, n, jitter) {
			g.jittered = jitter > 0
			return nil
		}
		if jitter == 0 {
			jitter = 1e-10
		} else {
			jitter *= 100
		}
	}
	return ErrNotPD
}

// resolve recomputes target standardization and the solves against the
// current factor: z the standardized targets, w = L^{-1} z, and
// alpha = L^{-T} w. O(n^2), no allocations in steady state.
func (g *GP) resolve() {
	n := g.n
	g.frozen = 0
	var sum float64
	for _, y := range g.ys {
		sum += y
	}
	g.mean = sum / float64(n)
	var ss float64
	for _, y := range g.ys {
		d := y - g.mean
		ss += d * d
	}
	g.std = math.Sqrt(ss / float64(n))
	if g.std < 1e-12 {
		g.std = 1
	}
	g.w = growTo(g.w, n)
	g.alpha = growTo(g.alpha, n)
	for i, y := range g.ys {
		g.w[i] = (y - g.mean) / g.std
	}
	g.fac.forwardInto(g.w, g.w)
	copy(g.alpha, g.w)
	g.fac.backInto(g.alpha, g.alpha)
}

// kernelRow fills dst[j] = k(x, x_j) for j < m. The default Matérn kernel
// is devirtualized so the hot scoring loops run without interface calls;
// the formula is exactly its Eval.
func (g *GP) kernelRow(x, dst []float64, m int) {
	switch k := g.Kernel.(type) {
	case Matern52:
		for j := 0; j < m; j++ {
			dst[j] = k.fromD2(sqDist(x, g.xs[j*g.d:j*g.d+g.d]))
		}
	default:
		for j := 0; j < m; j++ {
			dst[j] = g.Kernel.Eval(x, g.xs[j*g.d:j*g.d+g.d])
		}
	}
}

// PredictScratch holds the reusable buffers PredictBatch needs; one
// instance per scoring goroutine makes batch prediction allocation-free in
// steady state.
type PredictScratch struct {
	k []lanes // kernel rows for one block, one row per training point
	v []lanes // interleaved forward solves, one row per training point
}

// predictBlock is the candidate block width: the triangular solve streams
// the factor once per block instead of once per candidate, and the 8-wide
// inner loop keeps the accumulators in registers.
const predictBlock = 8

// lanes is one row of a block: a value per candidate. Fixed-size rows
// let the block loops index lanes without bounds checks.
type lanes = [predictBlock]float64

func (s *PredictScratch) ensure(n int) {
	s.k = growTo(s.k, n)
	s.v = growTo(s.v, n)
}

// growTo returns buf resized to n, reallocating only on growth.
func growTo[T any](buf []T, n int) []T {
	if cap(buf) < n {
		grown := make([]T, n, n+n/2+8)
		copy(grown, buf)
		return grown
	}
	return buf[:n]
}

// PredictBatch fills mu and variance for every candidate in xs, on the
// original target scale. It allocates nothing once scratch has grown to
// the training-set size: candidates are scored in blocks of eight so the
// factor streams through cache once per block rather than once per
// candidate. Each candidate's arithmetic is the same in every lane and
// block, so results do not depend on batching or on how callers shard xs
// across goroutines.
func (g *GP) PredictBatch(xs [][]float64, mu, va []float64, scratch *PredictScratch) {
	if g.n == 0 {
		for i := range xs {
			mu[i], va[i] = 0, 1
		}
		return
	}
	scratch.ensure(g.n)
	var vv, kxx [predictBlock]float64
	for base := 0; base < len(xs); base += predictBlock {
		c := len(xs) - base
		if c > predictBlock {
			c = predictBlock
		}
		blk := xs[base : base+c]
		g.scoreBlock(blk, scratch.k, scratch.v, mu[base:base+c], vv[:c], kxx[:c])
		for i := 0; i < c; i++ {
			variance := kxx[i] - vv[i]
			if variance < 1e-12 {
				variance = 1e-12
			}
			mu[base+i] = g.mean + g.std*mu[base+i]
			va[base+i] = variance * g.std * g.std
		}
	}
}

// scoreBlock computes, for a block of at most predictBlock candidates, the
// standardized posterior mean (into mu), the squared norm of the forward
// solve v = L^{-1} k* (into vv), and the prior variance k(x,x) (into kxx).
// The interleaved solves remain in v (v[row][cand]) for callers that cache
// them for incremental fantasy updates.
//
// Kernel rows are stored lane-interleaved (kbuf[j][t]) and every loop runs
// all predictBlock lanes with fixed bounds — unused lanes compute on zeros
// — so the eight forward-solve recurrences proceed as independent
// dependency chains over contiguous loads, and the fixed-size rows leave
// the inner loops without bounds checks. Each lane's arithmetic is exactly
// the single-candidate recurrence.
func (g *GP) scoreBlock(blk [][]float64, kbuf, v []lanes, mu, vv, kxx []float64) {
	n := g.n
	kbuf, v = kbuf[:n], v[:n]
	g.kernelBlock(blk, kbuf)
	if kd, ok := selfCov(g.Kernel); ok {
		for t := range blk {
			kxx[t] = kd
		}
	} else {
		for t, x := range blk {
			kxx[t] = g.Kernel.Eval(x, x)
		}
	}
	var m lanes
	alpha := g.alpha[:n]
	for j := range kbuf {
		kb, av := &kbuf[j], alpha[j]
		for t := range kb {
			m[t] += kb[t] * av
		}
	}
	l := g.fac.l
	var sq lanes
	for i := range v {
		row := l[rowOff(i) : rowOff(i)+i+1]
		kb := &kbuf[i]
		// Eight accumulators in registers: the eight candidates' solve
		// recurrences are independent chains, so the loop runs at multiply
		// throughput instead of one candidate's dependency latency.
		a0, a1, a2, a3 := kb[0], kb[1], kb[2], kb[3]
		a4, a5, a6, a7 := kb[4], kb[5], kb[6], kb[7]
		solved := v[:i]
		lrow := row[:len(solved)]
		for k := range solved {
			lv, vb := lrow[k], &solved[k]
			a0 -= lv * vb[0]
			a1 -= lv * vb[1]
			a2 -= lv * vb[2]
			a3 -= lv * vb[3]
			a4 -= lv * vb[4]
			a5 -= lv * vb[5]
			a6 -= lv * vb[6]
			a7 -= lv * vb[7]
		}
		d := row[i]
		a0, a1, a2, a3 = a0/d, a1/d, a2/d, a3/d
		a4, a5, a6, a7 = a4/d, a5/d, a6/d, a7/d
		v[i] = lanes{a0, a1, a2, a3, a4, a5, a6, a7}
		sq[0] += a0 * a0
		sq[1] += a1 * a1
		sq[2] += a2 * a2
		sq[3] += a3 * a3
		sq[4] += a4 * a4
		sq[5] += a5 * a5
		sq[6] += a6 * a6
		sq[7] += a7 * a7
	}
	for t := range blk {
		mu[t] = m[t]
		vv[t] = sq[t]
	}
}

// selfCov returns the prior variance k(x, x) of the devirtualized kernel,
// which for every finite x is fromD2(0); ok is false for other kernels.
func selfCov(k Kernel) (kxx float64, ok bool) {
	if k, ok := k.(Matern52); ok {
		return k.fromD2(0), true
	}
	return 0, false
}

// kernelBlock fills kbuf[j][t] = k(blk[t], x_j), zeroing lanes past
// len(blk). The default Matérn kernel is devirtualized; the formula
// matches its Eval exactly.
func (g *GP) kernelBlock(blk [][]float64, kbuf []lanes) {
	d := g.d
	switch k := g.Kernel.(type) {
	case Matern52:
		for j := range kbuf {
			xj := g.xs[j*d : j*d+d]
			kb := &kbuf[j]
			*kb = lanes{}
			for t, x := range blk {
				kb[t] = k.fromD2(sqDist(x, xj))
			}
		}
	default:
		for j := range kbuf {
			xj := g.xs[j*d : j*d+d]
			kb := &kbuf[j]
			*kb = lanes{}
			for t, x := range blk {
				kb[t] = g.Kernel.Eval(x, xj)
			}
		}
	}
}

// normPDF/normCDF for expected improvement.
func normPDF(z float64) float64 { return math.Exp(-z*z/2) / math.Sqrt(2*math.Pi) }
func normCDF(z float64) float64 { return 0.5 * math.Erfc(-z/math.Sqrt2) }

// ExpectedImprovement scores a candidate under the GP posterior against the
// current best observation (maximization).
func ExpectedImprovement(mean, variance, best, xi float64) float64 {
	sd := math.Sqrt(variance)
	if sd < 1e-12 {
		return 0
	}
	z := (mean - best - xi) / sd
	return (mean-best-xi)*normCDF(z) + sd*normPDF(z)
}

// defaultKernel builds the default surrogate kernel for a dimensionality.
func defaultKernel(dims int) Matern52 {
	// Length scale shrinks slowly with dimension so high-d spaces keep
	// useful correlation.
	return Matern52{LengthScale: 0.35 * math.Pow(float64(dims), 0.25), Variance: 1}
}
