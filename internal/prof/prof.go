// Package prof is a sim-clock-native continuous profiler for the federation
// spine. It attributes wall time, virtual time, and (sampled) allocations to
// a fixed set of instrumented call-sites threaded through the hot packages —
// the sim event loop, netsim delivery, bus dispatch, scheduler routing and
// stealing, telemetry recording, and knowledge merging.
//
// Design rules, in the spirit of internal/trace and internal/obs:
//
//   - A nil *Profiler is the disabled profiler. Every method short-circuits
//     on nil — Enter, End and Sample inline to one pointer test — and the
//     disabled path allocates nothing (guard-tested).
//   - The profiler only observes. It never schedules events, draws
//     randomness, or mutates spine state, so a fixed-seed run's virtual
//     trajectory is bit-identical with profiling on or off.
//   - Everything keyed by the virtual clock — region counts, virtual-time
//     attributions, duration histograms, exemplars, and the windowed ring —
//     is deterministic for a fixed seed and exported as byte-stable JSON and
//     pprof-compatible folded stacks. Wall time and allocation estimates are
//     inherently run-dependent and live in a separate "measured" overlay
//     that the deterministic exports never touch.
//   - The overlay is sampled by region tree. Every top-level region (the
//     sim event in the wired spine) has its exact wall time; nested wall
//     and allocations are measured only inside every 64th top-level tree
//     (Options.AllocSampleStride) and scaled by each path's count ÷
//     measured count, so a region outside a sampled tree reads no clock.
//     A path's self-wall is its wall estimate less its children's.
//   - Region stack paths form a trie: each open frame holds its path node
//     and a nested region's node is its parent's child at that site, so
//     entering and leaving a region does no lookup.
//   - The spine runs on the single sim goroutine; the profiler is not
//     goroutine-safe and needs no atomics or locks on the hot path.
//
// Histogram buckets carry trace-ID exemplars: the slowest sample in each
// bucket remembers its causal trace (PR 3), so a slow bucket links straight
// to its span tree and any flight-recorder snapshot (PR 8) holding it.
package prof

import (
	"math/bits"
	"runtime/metrics"
	"time"
)

// Site identifies one instrumented region. The set is closed on purpose:
// fixed array indexing keeps region enter/exit allocation-free.
type Site uint8

// Instrumented call-sites, one per spine hot path.
const (
	// SiteSimEvent wraps every event callback in the sim loop. Its total
	// wall time is the denominator for subsystem attribution: everything
	// the federation does happens inside an event.
	SiteSimEvent Site = iota
	// SiteNetSend is netsim admission: metrics, serialization, hop setup.
	SiteNetSend
	// SiteNetDeliver is netsim arrival: drop bookkeeping and the deliver
	// hook. Virtual samples carry the modeled link delay.
	SiteNetDeliver
	// SiteBusDispatch is broker-side envelope dispatch (middleware, per-kind
	// routing, subscriber fan-in).
	SiteBusDispatch
	// SiteSchedRoute is cross-site candidate scoring in the scheduler.
	SiteSchedRoute
	// SiteSchedSteal is the work-stealing scan.
	SiteSchedSteal
	// SiteTelemetryRecord is histogram recording in internal/telemetry.
	SiteTelemetryRecord
	// SiteKnowledgeMerge is vector-clock insight merging. Virtual samples
	// carry the observed sync lag.
	SiteKnowledgeMerge
	// SiteCoreDecide is the campaign orchestration decision (planner + twin
	// verification + approval modeling), the optimizer-adjacent hot path.
	SiteCoreDecide
	numSites
)

var siteNames = [numSites]string{
	"sim.event",
	"net.send",
	"net.deliver",
	"bus.dispatch",
	"sched.route",
	"sched.steal",
	"telemetry.record",
	"knowledge.merge",
	"core.decide",
}

// String returns the dotted call-site name, e.g. "net.deliver".
func (s Site) String() string {
	if s >= numSites {
		return "invalid"
	}
	return siteNames[s]
}

// Subsystem returns the package-level owner, the part before the dot.
func (s Site) Subsystem() string {
	name := s.String()
	for i := 0; i < len(name); i++ {
		if name[i] == '.' {
			return name[:i]
		}
	}
	return name
}

// NumSites is the number of instrumented call-sites.
func NumSites() int { return int(numSites) }

// Options configures a Profiler. The zero value disables profiling.
type Options struct {
	// Enabled turns the profiler on. When false, New returns nil — the
	// disabled profiler — and every instrumented region costs two nil
	// checks and nothing else.
	Enabled bool
	// Window is the virtual width of one ring window (default 5 minutes of
	// sim time). The ring gives -watch its recent-rate view and keeps the
	// "continuous" in continuous profiler bounded.
	Window time.Duration
	// Windows is the ring capacity (default 32).
	Windows int
	// AllocSampleStride is the measured overlay's stride: nested regions
	// are timed, and heap-allocation deltas read via runtime/metrics, only
	// inside every Nth top-level region tree, and the estimates are scaled
	// back up. Top-level regions are always timed. 0 uses the default (64);
	// negative keeps the default stride and disables allocation reads.
	AllocSampleStride int
}

const (
	defaultWindow  = 5 * time.Minute
	defaultWindows = 32
	defaultStride  = 64
	// maxDepth bounds the region stack. The spine nests regions about five
	// deep (sim.event > bus.dispatch > sched.route > telemetry.record);
	// overflow is counted and skipped rather than grown.
	maxDepth = 32
	// numBuckets covers log2 virtual durations from <1ns to >2^46ns (~20h).
	numBuckets = 48
)

// bucket is one deterministic log2 duration bucket with its exemplar.
type bucket struct {
	count    uint64
	sumVirt  int64
	maxVirt  int64
	exemplar uint64 // trace ID of the slowest sample in the bucket
}

// siteAgg accumulates one call-site's explicit samples. Its region counts
// and virtual deltas live on the call-path nodes.
type siteAgg struct {
	samples uint64 // explicit Sample calls
	virtual int64  // their virtual durations, ns
	buckets [numBuckets]bucket
}

// node is one region stack path in the call-path trie. The root's
// children are the top-level sites; a region entered at site s inside the
// region holding node n is counted on n.child[s].
type node struct {
	site    Site
	stack   string // the semicolon-joined site path, outermost first
	child   [numSites]*node
	count   uint64 // region entries on this path
	virtual int64  // their virtual deltas, ns

	// The measured overlay: sums over the entries that were measured, which
	// the exports scale by count ÷ measured count. Wall is read on every
	// top-level entry and on nested entries of sampled trees; allocations
	// only inside sampled trees.
	timed      uint64 // entries whose wall was read
	wall       int64
	sampled    uint64 // entries inside a sampled tree
	allocObjs  uint64
	allocBytes uint64
}

// frame is one open region on the stack.
type frame struct {
	node      *node
	startVirt int64
	startWall int64
	startRead int64 // readWall at entry
	allocObjs uint64
	allocByts uint64
}

// window is one closed ring window of per-site activity.
type window struct {
	start   int64 // virtual ns at window open
	count   [numSites]uint64
	virtual [numSites]int64
}

// Profiler accumulates instrumented-region activity. Obtain one from New;
// a nil Profiler is valid and free.
type Profiler struct {
	epoch time.Time
	clock func() int64 // virtual now in ns; nil until SetClock

	sites    [numSites]siteAgg
	root     node // call-path trie; its children are the top-level paths
	stack    [maxDepth]frame
	depth    int
	overflow uint64 // regions skipped at maxDepth

	// Windowed ring, rolled lazily on the virtual clock.
	windowW   int64 // width, virtual ns
	windowEnd int64
	cur       window
	ring      []window
	ringLen   int
	ringHead  int

	// Overlay sampling: trees counts the top-level regions entered, a tree
	// is sampled when its index is a multiple of stride, and sampled says
	// whether the open tree is.
	stride  uint64
	trees   uint64
	sampled bool
	// readWall is the wall time spent reading allocation counters while a
	// region was open; each region leaves it out of its own wall.
	readWall     int64
	allocSamples []metrics.Sample // nil when allocation reads are off
}

// New returns a profiler, or nil — the disabled profiler — when
// opts.Enabled is false.
func New(opts Options) *Profiler {
	if !opts.Enabled {
		return nil
	}
	if opts.Window <= 0 {
		opts.Window = defaultWindow
	}
	if opts.Windows <= 0 {
		opts.Windows = defaultWindows
	}
	p := &Profiler{
		epoch:     time.Now(),
		windowW:   int64(opts.Window),
		windowEnd: int64(opts.Window),
		ring:      make([]window, opts.Windows),
		stride:    uint64(opts.AllocSampleStride),
	}
	if opts.AllocSampleStride <= 0 {
		p.stride = defaultStride
	}
	if opts.AllocSampleStride >= 0 {
		p.allocSamples = []metrics.Sample{
			{Name: "/gc/heap/allocs:objects"},
			{Name: "/gc/heap/allocs:bytes"},
		}
		metrics.Read(p.allocSamples) // warm the path so later reads stay cheap
	}
	return p
}

// SetClock wires the virtual clock (the sim engine's Now). Without a clock
// virtual deltas and the window ring stay at zero; explicit Sample calls
// still record.
func (p *Profiler) SetClock(fn func() int64) {
	if p == nil {
		return
	}
	p.clock = fn
}

// Region is an open instrumented region returned by Enter. The zero Region
// (from the disabled profiler) is valid and End on it is free.
type Region struct {
	p   *Profiler
	idx int32
}

// Enter opens a region at site. Pair with End:
//
//	r := p.Enter(prof.SiteBusDispatch)
//	defer r.End() // or call explicitly on straight-line paths
//
// On the disabled profiler Enter inlines to one pointer test.
func (p *Profiler) Enter(site Site) Region {
	if p == nil {
		return Region{}
	}
	return p.enter(site)
}

func (p *Profiler) enter(site Site) Region {
	if p.depth >= maxDepth {
		p.overflow++
		return Region{}
	}
	virt := int64(0)
	if p.clock != nil {
		virt = p.clock()
		if virt >= p.windowEnd {
			p.roll(virt)
		}
	}
	parent := &p.root
	if p.depth > 0 {
		parent = p.stack[p.depth-1].node
	} else {
		p.sampled = p.trees%p.stride == 0
		p.trees++
	}
	n := parent.child[site]
	if n == nil {
		n = &node{site: site, stack: site.String()}
		if parent != &p.root {
			n.stack = parent.stack + ";" + n.stack
		}
		parent.child[site] = n
	}
	n.count++
	p.cur.count[site]++
	f := &p.stack[p.depth]
	f.node = n
	f.startVirt = virt
	if p.depth == 0 || p.sampled {
		if p.sampled && p.allocSamples != nil {
			f.allocObjs, f.allocByts = p.readAllocs()
		}
		f.startWall = p.now()
		f.startRead = p.readWall
	}
	p.depth++
	return Region{p: p, idx: int32(p.depth - 1)}
}

// now is the wall clock, in ns since the profiler's epoch.
func (p *Profiler) now() int64 { return int64(time.Since(p.epoch)) }

// readAllocs reads the heap's cumulative allocation counters. With a
// region open the read's own wall time goes to readWall, so it inflates
// no region's wall.
func (p *Profiler) readAllocs() (objs, bytes uint64) {
	var t0 int64
	if p.depth > 0 {
		t0 = p.now()
	}
	metrics.Read(p.allocSamples)
	if p.depth > 0 {
		p.readWall += p.now() - t0
	}
	return p.allocSamples[0].Value.Uint64(), p.allocSamples[1].Value.Uint64()
}

// End closes the region, attributing wall and virtual deltas to its site
// and path. Ends arriving out of order close every deeper region first.
func (r Region) End() {
	p := r.p
	if p == nil {
		return
	}
	for p.depth > int(r.idx) {
		p.exitTop()
	}
}

func (p *Profiler) exitTop() {
	p.depth--
	f := &p.stack[p.depth]
	n := f.node
	var virtDelta int64
	if p.clock != nil {
		virtDelta = p.clock() - f.startVirt
		if virtDelta < 0 {
			virtDelta = 0
		}
	}
	p.cur.virtual[n.site] += virtDelta
	n.virtual += virtDelta
	if p.depth > 0 && !p.sampled {
		return
	}
	wall := p.now() - f.startWall - (p.readWall - f.startRead)
	if wall < 0 {
		wall = 0
	}
	n.timed++
	n.wall += wall
	if !p.sampled {
		return
	}
	n.sampled++
	if p.allocSamples != nil {
		objs, bytes := p.readAllocs()
		n.allocObjs += objs - f.allocObjs
		n.allocBytes += bytes - f.allocByts
	}
}

// Sample records one explicit virtual-duration observation at site — a
// modeled link delay, a queue wait, a sync lag — with an optional trace-ID
// exemplar linking the sample to its causal span. Deterministic for a
// fixed seed: buckets are log2 of the virtual duration, and each bucket's
// exemplar is the trace of its slowest sample (first-wins on ties).
func (p *Profiler) Sample(site Site, virtual time.Duration, traceID uint64) {
	if p != nil {
		p.sample(site, virtual, traceID)
	}
}

func (p *Profiler) sample(site Site, virtual time.Duration, traceID uint64) {
	d := int64(virtual)
	if d < 0 {
		d = 0
	}
	if p.clock != nil {
		if now := p.clock(); now >= p.windowEnd {
			p.roll(now)
		}
	}
	agg := &p.sites[site]
	agg.samples++
	agg.virtual += d
	p.cur.virtual[site] += d
	b := &agg.buckets[bucketOf(d)]
	b.count++
	b.sumVirt += d
	if d > b.maxVirt || b.count == 1 {
		b.maxVirt = d
		if traceID != 0 {
			b.exemplar = traceID
		}
	}
}

// bucketOf maps a non-negative duration to its log2 bucket.
func bucketOf(d int64) int {
	return min(bits.Len64(uint64(d)), numBuckets-1)
}

// roll closes the current window into the ring and opens the one holding
// virtual time now. Quiet windows (no activity) collapse: the ring holds
// at most one closed window per roll, keeping long idle stretches cheap.
func (p *Profiler) roll(now int64) {
	p.cur.start = p.windowEnd - p.windowW
	p.ring[p.ringHead] = p.cur
	p.ringHead = (p.ringHead + 1) % len(p.ring)
	if p.ringLen < len(p.ring) {
		p.ringLen++
	}
	p.cur = window{}
	// Jump the window end past now in whole widths so idle gaps don't
	// spin the ring one empty window at a time.
	steps := (now-p.windowEnd)/p.windowW + 1
	p.windowEnd += steps * p.windowW
}

// Overflow reports regions skipped because the stack was full.
func (p *Profiler) Overflow() uint64 {
	if p == nil {
		return 0
	}
	return p.overflow
}

// SiteCount is one call-site's live counters, for SpineProfile and -watch.
type SiteCount struct {
	Site      string `json:"site"`
	Count     uint64 `json:"count"`
	Samples   uint64 `json:"samples,omitempty"`
	VirtualNs int64  `json:"virtual_ns"`
}

// Counts returns per-site cumulative counters in site order, skipping
// sites that never fired. Nil (and free) on the disabled profiler.
func (p *Profiler) Counts() []SiteCount {
	if p == nil {
		return nil
	}
	count, virt := p.totals()
	out := make([]SiteCount, 0, numSites)
	for s := Site(0); s < numSites; s++ {
		if count[s] == 0 && p.sites[s].samples == 0 {
			continue
		}
		out = append(out, SiteCount{
			Site:      s.String(),
			Count:     count[s],
			Samples:   p.sites[s].samples,
			VirtualNs: virt[s],
		})
	}
	return out
}

// totals returns each site's region count and virtual time: the sums over
// its call paths, the latter plus its explicit samples.
func (p *Profiler) totals() (count [numSites]uint64, virt [numSites]int64) {
	for s := range p.sites {
		virt[s] = p.sites[s].virtual
	}
	p.root.each(func(n *node) {
		count[n.site] += n.count
		virt[n.site] += n.virtual
	})
	return count, virt
}

// each calls fn on every node below n, depth first.
func (n *node) each(fn func(*node)) {
	for _, c := range n.child {
		if c != nil {
			fn(c)
			c.each(fn)
		}
	}
}
