package optimize

import (
	"math"
	"runtime"
	"sync"
	"sync/atomic"

	"github.com/aisle-sim/aisle/internal/param"
	"github.com/aisle-sim/aisle/internal/rng"
)

// Optimizer is the ask/tell protocol campaigns drive: Ask proposes the next
// parameter point; Tell reports its measured objective (maximization).
type Optimizer interface {
	Ask() param.Point
	Tell(p param.Point, value float64)
	Best() (param.Point, float64)
	N() int
}

// Observation is one completed experiment.
type Observation struct {
	Point param.Point
	Value float64
	// Weight < 1 marks transferred observations from other facilities,
	// modelled as noisier evidence.
	Weight float64
}

// Every program asks with BayesOpts{}, so these are fixed.
const (
	candidates      = 512  // uniform candidates per Ask
	localCandidates = 64   // perturbations of the incumbent per Ask
	eiMargin        = 0.01 // the expected-improvement exploration margin (xi)
	gpNoise         = 1e-4 // GP observation-noise variance (standardized)
)

// BayesOpts configures a Bayesian optimizer. Programs pass the zero value;
// in-package tests set the fields to shrink a scenario or vary the workers.
type BayesOpts struct {
	initSamples int    // Latin-hypercube warm-up before the GP engages; max(5, dims+2)
	kernel      Kernel // default Matérn-5/2
	maxFit      int    // GP window: older observations are dropped; 256
	// scoreWorkers caps the goroutines scoring the pool, the asking one
	// included; 0 uses GOMAXPROCS. Scores are pure functions of the shared
	// posterior, merged by candidate index, so any count proposes the same.
	scoreWorkers int
}

func (o *BayesOpts) defaults(dims int) {
	if o.initSamples == 0 {
		o.initSamples = max(5, dims+2)
	}
	if o.kernel == nil {
		o.kernel = defaultKernel(dims)
	}
	if o.maxFit == 0 {
		o.maxFit = 256
	}
}

// candPool holds the reusable candidate and scoring buffers, so a warm Ask
// allocates only the returned point: candidates are flat rows of values in
// dimension order, and only a returned one becomes a param.Point.
type candPool struct {
	dims   int
	vals   []float64   // flat candidate values, total*dims
	units  []float64   // flat unit-cube coordinates, total*dims
	uview  [][]float64 // per-candidate views into units
	bound  []float64   // mean bounds of the screened ask (screen.go)
	order  []int32     // the candidates it scores exactly after the first block
	scores []float64

	// AskBatch k>1 state: standardized means, solve norms, prior variances
	// and the forward solves that make a constant-liar update O(n) each.
	mustd  []float64
	vvs    []float64
	kxx    []float64
	picked []bool
	vcache []float64

	scratch []PredictScratch // one per scoring worker

	ubuf     []float64 // single-point ToUnit scratch
	fitUnits []float64 // full-refit buffers
	fitXs    [][]float64
	fitYs    []float64
	fitNoise []float64
}

func (c *candPool) ensure(total, dims, workers int) {
	c.dims = dims
	c.vals = growTo(c.vals, total*dims)
	c.units = growTo(c.units, total*dims)
	c.uview = growTo(c.uview, total)
	for i := range c.uview {
		c.uview[i] = c.units[i*dims : (i+1)*dims]
	}
	c.bound = growTo(c.bound, total)
	c.order = growTo(c.order, total)
	c.scores = growTo(c.scores, total)
	c.scratch = growTo(c.scratch, workers)
}

// row is candidate i's values in dimension order.
func (c *candPool) row(i int) []float64 { return c.vals[i*c.dims : (i+1)*c.dims] }

// Bayes is a Gaussian-process Bayesian optimizer with native support for
// discrete-continuous spaces: candidates are snapped to parameter lattices
// before scoring, the nested strategy the paper describes for real
// experimental hardware.
//
// The surrogate is maintained incrementally: Tell marks the model stale and
// the next decision extends the shared Cholesky factor by one O(n^2) row
// append instead of refitting in O(n^3). AskBatch fantasizes constant-liar
// rows against the same factor and retracts them by truncation.
type Bayes struct {
	space param.Space
	rnd   *rng.Stream
	opts  BayesOpts

	obs      []Observation
	initPlan []param.Point
	gp       *GP
	gpLo     int // index into obs of the first GP row
	gpHi     int // index into obs one past the last valid GP row
	stale    bool

	bestP param.Point
	bestV float64

	cand candPool
}

// NewBayes builds a Bayesian optimizer over the space.
func NewBayes(space param.Space, rnd *rng.Stream, opts BayesOpts) *Bayes {
	opts.defaults(len(space))
	b := &Bayes{
		space: space,
		rnd:   rnd.Fork("bayes"),
		opts:  opts,
		gp:    NewGP(opts.kernel, gpNoise),
		bestV: math.Inf(-1),
	}
	b.initPlan = space.SampleLHS(b.rnd, opts.initSamples)
	return b
}

// N implements Optimizer.
func (b *Bayes) N() int { return len(b.obs) }

// Best implements Optimizer.
func (b *Bayes) Best() (param.Point, float64) { return b.bestP, b.bestV }

// Seed imports observations from another facility (transfer learning).
// weight in (0,1] down-weights foreign evidence by inflating its GP noise.
// Transferred values inform the surrogate only; campaigns track their own
// locally-confirmed best, so bestP/bestV update only on local Tell.
func (b *Bayes) Seed(points []param.Point, values []float64, weight float64) {
	if weight <= 0 || weight > 1 {
		weight = 0.5
	}
	for i := range points {
		b.obs = append(b.obs, Observation{Point: points[i], Value: values[i], Weight: weight})
	}
	b.stale = true
	// Each seeded point replaces one pending warm-up sample.
	b.initPlan = b.initPlan[min(len(points), len(b.initPlan)):]
}

// Tell implements Optimizer.
func (b *Bayes) Tell(p param.Point, value float64) {
	b.obs = append(b.obs, Observation{Point: p, Value: value, Weight: 1})
	if value > b.bestV {
		b.bestP, b.bestV = p, value
	}
	b.stale = true
}

// AskBatch proposes k points for parallel evaluation using the
// constant-liar strategy: each proposed point is given a fantasy
// observation at the worst value seen so far (CL-min), which collapses
// posterior variance around it and pushes subsequent asks toward
// unexplored regions. Points already in flight elsewhere (asked earlier
// but not yet told) are fantasized the same way first, so refill batches
// do not re-propose experiments that are still executing.
//
// Fantasies are an overlay on the shared Cholesky factor: each one appends
// a row in O(n^2) (k > 1 batches then update cached candidate scores in
// O(n) per candidate per fantasy), and retraction is a factor truncation —
// the surrogate's real evidence is never refit. During the LHS warm-up the
// plan already spreads points, and the fantasies are harmless.
func (b *Bayes) AskBatch(k int, inflight []param.Point) []param.Point {
	if k <= 1 && len(inflight) == 0 {
		return []param.Point{b.Ask()}
	}
	if k < 1 {
		k = 1
	}
	lie := math.Inf(1)
	for _, o := range b.obs {
		if o.Value < lie {
			lie = o.Value
		}
	}
	if math.IsInf(lie, 1) {
		lie = 0
	}
	saved := len(b.obs)
	savedP, savedV := b.bestP, b.bestV
	for _, p := range inflight {
		b.fantasize(p, lie)
	}
	out := make([]param.Point, 0, k)
	// The LHS warm-up plan serves batch asks exactly as it serves serial
	// ones.
	for len(out) < k && len(b.initPlan) > 0 {
		p := b.initPlan[0]
		b.initPlan = b.initPlan[1:]
		out = append(out, p)
		b.fantasize(p, lie)
	}
	if len(out) < k && len(b.obs) == 0 {
		// No evidence at all: open uniformly, like a serial Ask would.
		p := b.space.Sample(b.rnd)
		out = append(out, p)
		b.fantasize(p, lie)
	}
	if rem := k - len(out); rem > 0 {
		out = append(out, b.askFantasies(rem, lie)...)
	}
	b.obs = b.obs[:saved]
	if b.gpHi > saved {
		b.gpHi = saved // fantasy rows beyond here retract at the next refit
	}
	b.bestP, b.bestV = savedP, savedV
	b.stale = true
	return out
}

// fantasize appends a constant-liar observation (retracted by AskBatch).
func (b *Bayes) fantasize(p param.Point, lie float64) {
	b.obs = append(b.obs, Observation{Point: p, Value: lie, Weight: 1})
	b.stale = true
}

// Ask implements Optimizer.
func (b *Bayes) Ask() param.Point {
	if len(b.initPlan) > 0 {
		p := b.initPlan[0]
		b.initPlan = b.initPlan[1:]
		return p
	}
	if len(b.obs) == 0 {
		return b.space.Sample(b.rnd)
	}
	b.refit()
	return b.askScored(b.incumbent())
}

// incumbent is the EI reference value: the locally-confirmed best, or the
// best transferred value when nothing local has been told yet.
func (b *Bayes) incumbent() float64 {
	best := b.bestV
	if math.IsInf(best, -1) {
		for _, o := range b.obs {
			if o.Value > best {
				best = o.Value
			}
		}
	}
	return best
}

// askScored draws one candidate pool and returns its expected-improvement
// argmax against the current posterior (first index wins ties). With no
// scorable candidate it falls back to a uniform sample.
func (b *Bayes) askScored(best float64) param.Point {
	m := b.drawCandidates()
	if idx := b.argmaxEI(m, best); idx >= 0 {
		return b.space.PointOf(b.cand.row(idx))
	}
	return b.space.Sample(b.rnd)
}

// workers resolves the scoring worker count.
func (b *Bayes) workers() int {
	if b.opts.scoreWorkers > 0 {
		return b.opts.scoreWorkers
	}
	return runtime.GOMAXPROCS(0)
}

// drawCandidates fills the pool with uniform samples plus perturbations of
// the incumbent, drawn straight into the pool's flat rows and mapped to
// unit coordinates. Draws come from the optimizer's own stream, in the
// same order as serial asks, so a fixed seed proposes identical points
// regardless of scoring parallelism.
func (b *Bayes) drawCandidates() int {
	dims := len(b.space)
	m := candidates
	total := m
	if b.bestP != nil {
		total += localCandidates
	}
	c := &b.cand
	c.ensure(total, dims, b.workers())
	for i := 0; i < m; i++ {
		b.space.SampleValues(b.rnd, c.row(i))
	}
	for i := m; i < total; i++ {
		b.perturbInto(c.row(i), b.bestP)
	}
	for i := 0; i < total; i++ {
		b.space.ValuesToUnit(c.row(i), c.uview[i])
	}
	return total
}

// perturbInto samples near src with per-dimension Gaussian steps (10% of
// range), snapped onto lattices, into dst in dimension order.
func (b *Bayes) perturbInto(dst []float64, src param.Point) {
	for i, d := range b.space {
		sigma := (d.Hi - d.Lo) * 0.1
		dst[i] = d.Snap(src[d.Name] + b.rnd.Normal(0, sigma))
	}
}

// shard runs f over [0,m) one predictBlock-aligned block at a time. The
// calling goroutine and at most workers-1 helpers claim blocks from one
// atomic counter, so a slow worker never leaves the others idle; each
// worker has its own scratch (the worker argument) and results are written
// by candidate index, so which worker scored a block cannot change the
// outcome. Every helper has exited when shard returns.
func (b *Bayes) shard(m int, f func(lo, hi, worker int)) {
	blocks := (m + predictBlock - 1) / predictBlock
	workers := min(b.workers(), blocks)
	if workers <= 1 {
		f(0, m, 0)
		return
	}
	var next atomic.Int32
	claim := func(w int) {
		for blk := int(next.Add(1)) - 1; blk < blocks; blk = int(next.Add(1)) - 1 {
			lo := blk * predictBlock
			f(lo, min(lo+predictBlock, m), w)
		}
	}
	var wg sync.WaitGroup
	wg.Add(workers - 1)
	for w := 1; w < workers; w++ {
		go func(w int) {
			defer wg.Done()
			claim(w)
		}(w)
	}
	claim(0)
	wg.Wait()
}

// askFantasies proposes rem points against the current evidence plus any
// already-fantasized rows. A single ask takes the same scoring path as
// serial Ask; larger batches score one shared candidate pool and run the
// constant-liar loop with O(n)-per-candidate incremental posterior updates
// against the fantasy overlay.
func (b *Bayes) askFantasies(rem int, lie float64) []param.Point {
	b.refit()
	best := b.incumbent()
	out := make([]param.Point, 0, rem)
	if rem == 1 || b.gp.N() == 0 {
		// Degenerate surrogate keeps the serial per-ask behavior: each ask
		// draws a fresh pool against the (prior) posterior.
		for len(out) < rem {
			p := b.askScored(best)
			out = append(out, p)
			if len(out) < rem {
				b.fantasize(p, lie)
				b.refit()
			}
		}
		return out
	}

	m := b.drawCandidates()
	c := &b.cand
	baseN := b.gp.N()
	stride := baseN + rem // room for the fantasy rows each solve may grow by
	c.mustd = growTo(c.mustd, m)
	c.vvs = growTo(c.vvs, m)
	c.kxx = growTo(c.kxx, m)
	c.vcache = growTo(c.vcache, m*stride)
	c.picked = growTo(c.picked, m)
	clear(c.picked)
	b.scorePoolBase(m, stride)
	// Standardization frozen at scoring time: if the model is lost
	// mid-batch (degraded), remaining picks keep selecting from the last
	// good scores without touching the GP.
	gmean, gstd := b.gp.mean, b.gp.std
	degraded := false
	for step := 0; step < rem; step++ {
		idx := -1
		bestScore := math.Inf(-1)
		for i := 0; i < m; i++ {
			if c.picked[i] {
				continue
			}
			mu := gmean + gstd*c.mustd[i]
			variance := c.kxx[i] - c.vvs[i]
			if variance < 1e-12 {
				variance = 1e-12
			}
			variance = variance * gstd * gstd
			if s := ExpectedImprovement(mu, variance, best, eiMargin); s > bestScore {
				bestScore = s
				idx = i
			}
		}
		if idx < 0 {
			out = append(out, b.space.Sample(b.rnd))
			continue
		}
		c.picked[idx] = true
		p := b.space.PointOf(c.row(idx))
		out = append(out, p)
		if step+1 == rem || degraded {
			continue
		}
		// Fantasize the pick against the shared factor and fold the new
		// row into every cached candidate solve in O(n).
		u := c.uview[idx]
		b.fantasize(p, lie)
		if !b.gp.appendFrozen(u, lie, b.gp.Noise) {
			// Positive definiteness broke. The GP either resynced itself
			// with jitter (rebuild the pool's solve cache and continue) or
			// emptied; then later picks reuse the last good scores and must
			// not fantasize against the cleared, unresolved model.
			if b.gp.N() == 0 {
				b.gpFail(len(b.obs))
				degraded = true
				continue
			}
			b.gpHi = len(b.obs)
			b.scorePoolBase(m, stride)
			gmean, gstd = b.gp.mean, b.gp.std
			continue
		}
		b.gpHi = len(b.obs)
		nn := b.gp.N()
		wNew := b.gp.w[nn-1]
		b.shard(m, func(lo, hi, _ int) {
			for i := lo; i < hi; i++ {
				if c.picked[i] {
					continue
				}
				vrow := c.vcache[i*stride : i*stride+nn-1]
				kv := b.gp.Kernel.Eval(u, c.uview[i])
				vnew := b.gp.fac.extendForward(vrow, kv)
				c.vcache[i*stride+nn-1] = vnew
				c.mustd[i] += vnew * wNew
				c.vvs[i] += vnew * vnew
			}
		})
	}
	return out
}

// scorePoolBase scores the pool against the current posterior keeping the
// per-candidate forward solves, standardized means, solve norms, and prior
// variances for incremental fantasy updates.
func (b *Bayes) scorePoolBase(m, stride int) {
	c := &b.cand
	n := b.gp.N()
	b.shard(m, func(lo, hi, w int) {
		sc := &c.scratch[w]
		sc.ensure(n)
		var vv, kxx [predictBlock]float64
		for base := lo; base < hi; base += predictBlock {
			cnt := hi - base
			if cnt > predictBlock {
				cnt = predictBlock
			}
			b.gp.scoreBlock(c.uview[base:base+cnt], sc.k, sc.v, c.mustd[base:base+cnt], vv[:cnt], kxx[:cnt])
			for t := 0; t < cnt; t++ {
				c.vvs[base+t] = vv[t]
				c.kxx[base+t] = kxx[t]
				vrow := c.vcache[(base+t)*stride:]
				for r := 0; r < n; r++ {
					vrow[r] = sc.v[r][t]
				}
			}
		}
	})
}

// refit brings the GP in sync with the observation window: new
// observations extend the factor by O(n^2) row appends, retracted
// fantasies truncate it, and only a slid MaxFit window (or a positive-
// definiteness failure, which falls back to pure exploration by clearing
// the model) pays a full O(n^3) refit. Per-observation noise realizes
// transfer down-weighting: foreign observations carry inflated noise
// rather than distorted targets.
func (b *Bayes) refit() {
	if !b.stale {
		return
	}
	b.stale = false
	hi := len(b.obs)
	lo := 0
	if hi > b.opts.maxFit {
		lo = hi - b.opts.maxFit
	}
	if lo != b.gpLo || b.gpHi < lo {
		if err := b.fullFit(lo, hi); err != nil {
			b.gpFail(lo)
			return
		}
		b.gpLo, b.gpHi = lo, hi
		return
	}
	if b.gpHi > hi {
		b.gpHi = hi
	}
	if b.gp.N() > b.gpHi-lo {
		if err := b.gp.Truncate(b.gpHi - lo); err != nil {
			b.gpFail(lo)
			return
		}
	}
	b.cand.ubuf = growTo(b.cand.ubuf, len(b.space))
	for i := b.gpHi; i < hi; i++ {
		o := b.obs[i]
		b.space.ToUnitInto(o.Point, b.cand.ubuf)
		if err := b.gp.Append(b.cand.ubuf, o.Value, b.obsNoise(o)); err != nil {
			b.gpFail(lo)
			return
		}
	}
	b.gpHi = hi
	if b.gp.frozen > 0 {
		b.gp.resolve()
	}
}

// obsNoise is the per-observation GP noise: transferred observations
// (Weight < 1) carry extra variance (1-w)/w on the standardized scale, so
// weight 1 is exact local evidence and weight -> 0 carries no information.
func (b *Bayes) obsNoise(o Observation) float64 {
	base := b.gp.Noise
	if o.Weight >= 1 || o.Weight <= 0 {
		return base
	}
	return base + (1-o.Weight)/o.Weight
}

// fullFit refits the GP from scratch on the observation window [lo, hi).
func (b *Bayes) fullFit(lo, hi int) error {
	n := hi - lo
	dims := len(b.space)
	c := &b.cand
	c.fitUnits = growTo(c.fitUnits, n*dims)
	c.fitYs = growTo(c.fitYs, n)
	c.fitNoise = growTo(c.fitNoise, n)
	c.fitXs = growTo(c.fitXs, n)
	for i := 0; i < n; i++ {
		o := b.obs[lo+i]
		c.fitXs[i] = c.fitUnits[i*dims : (i+1)*dims]
		b.space.ToUnitInto(o.Point, c.fitXs[i])
		c.fitYs[i] = o.Value
		c.fitNoise[i] = b.obsNoise(o)
	}
	return b.gp.FitNoise(c.fitXs, c.fitYs, c.fitNoise)
}

// gpFail falls back to pure exploration after an unfactorizable window
// (degenerate duplicates): the model is cleared and refits retry with
// inflated noise.
func (b *Bayes) gpFail(lo int) {
	b.gp = NewGP(b.opts.kernel, gpNoise*10)
	b.gpLo, b.gpHi = lo, lo
}

// Random is the uniform-sampling baseline.
type Random struct {
	space param.Space
	rnd   *rng.Stream
	n     int
	bestP param.Point
	bestV float64
}

// NewRandom builds the random-search baseline.
func NewRandom(space param.Space, rnd *rng.Stream) *Random {
	return &Random{space: space, rnd: rnd.Fork("random"), bestV: math.Inf(-1)}
}

// Ask implements Optimizer.
func (r *Random) Ask() param.Point { return r.space.Sample(r.rnd) }

// Tell implements Optimizer.
func (r *Random) Tell(p param.Point, v float64) {
	r.n++
	if v > r.bestV {
		r.bestP, r.bestV = p, v
	}
}

// Best implements Optimizer.
func (r *Random) Best() (param.Point, float64) { return r.bestP, r.bestV }

// N implements Optimizer.
func (r *Random) N() int { return r.n }

// Grid sweeps a fixed lattice: Levels points per dimension, row-major. The
// classical high-throughput strategy the paper contrasts with AI-driven
// search.
type Grid struct {
	space  param.Space
	levels int
	total  int // lattice size, saturated at MaxInt for huge spaces
	idx    int
	n      int
	bestP  param.Point
	bestV  float64
}

// NewGrid builds a grid search with the given per-dimension level count.
// The lattice size is computed once, saturating at MaxInt when
// levels^dims overflows (the paper's 10^13-condition spaces), where the
// phase-shifted restart simply never engages.
func NewGrid(space param.Space, levels int) *Grid {
	if levels < 2 {
		levels = 2
	}
	total := 1
	for range space {
		if total > math.MaxInt/levels {
			total = math.MaxInt
			break
		}
		total *= levels
	}
	return &Grid{space: space, levels: levels, total: total, bestV: math.Inf(-1)}
}

// Ask implements Optimizer. When the lattice is exhausted it restarts with
// a phase shift, so Ask never runs dry.
func (g *Grid) Ask() param.Point {
	i := g.idx % g.total
	pass := g.idx / g.total
	g.idx++
	p := make(param.Point, len(g.space))
	for _, d := range g.space {
		level := i % g.levels
		i /= g.levels
		frac := (float64(level) + 0.5*float64(pass%2)) / float64(g.levels-1)
		if frac > 1 {
			frac = 1
		}
		p[d.Name] = d.Snap(d.Lo + frac*(d.Hi-d.Lo))
	}
	return p
}

// Tell implements Optimizer.
func (g *Grid) Tell(p param.Point, v float64) {
	g.n++
	if v > g.bestV {
		g.bestP, g.bestV = p, v
	}
}

// Best implements Optimizer.
func (g *Grid) Best() (param.Point, float64) { return g.bestP, g.bestV }

// N implements Optimizer.
func (g *Grid) N() int { return g.n }
