// Package trace is AISLE's sim-time-native causal tracing layer: the
// diagnostic substrate that lets an operator reconstruct why an experiment
// ran where it did and where fleet throughput is lost. A campaign's path
// through the federation — scheduler enqueue, cross-site routing, WAN
// delivery, instrument execution, knowledge sync — is recorded as a tree of
// spans stamped with virtual (simulation) time, so a trace of a fixed-seed
// run is itself deterministic: byte-identical across hosts and replays.
//
// Design constraints, in order:
//
//   - Zero cost when disabled. Tracing is off by default; every
//     instrumentation site goes through a Context value whose nil-tracer
//     fast path performs no allocation and no work beyond a pointer test.
//     A guard test asserts 0 allocs/op on the disabled path.
//
//   - Deterministic. Span IDs are allocated from a sequential counter
//     (the sim kernel is single-threaded and totally ordered) and trace
//     IDs are hashes of stable labels — never a random stream — so a
//     fixed-seed run produces the same trace on every host.
//
//   - Bounded. Spans land in fixed-capacity per-site ring buffers;
//     sustained overload overwrites the oldest spans and counts drops
//     rather than growing without bound.
//
// Analysis lives alongside: a Chrome trace_event exporter (export.go)
// loadable in chrome://tracing or Perfetto, and a per-campaign
// critical-path extractor (critical.go) that reports which layer dominates
// end-to-end latency.
package trace

import (
	"sort"

	"github.com/aisle-sim/aisle/internal/sim"
)

// Span kinds used by the instrumented AISLE layers. Kind is an open
// namespace — any string works — but the critical-path extractor and the
// export coloring key off these.
const (
	KindCampaign   = "campaign"        // core: whole closed-loop campaign
	KindExperiment = "core.experiment" // core: one campaign iteration
	KindDecide     = "core.decide"     // core: orchestration decision
	KindReuse      = "core.reuse"      // core: knowledge-hit catalog lookup
	KindSchedQueue = "sched.queue"     // sched: enqueue -> dispatch wait
	KindSchedRoute = "sched.route"     // sched: routing decision (point span)
	KindSchedRun   = "sched.dispatch"  // sched: dispatch -> completion
	KindSchedSteal = "sched.steal"     // sched: WAN transit of a stolen job
	KindNetDeliver = "net.deliver"     // netsim: one message hop
	KindInstrument = "instrument.run"  // core/instrument: device queue+action
	KindInsight    = "knowledge.sync"  // knowledge: insight publish -> merge

	// Robustness-path kinds: chaos fault windows and the recovery actions
	// they trigger, so an injected outage and the requeues it caused line up
	// on the same Chrome-trace timeline.
	KindChaos        = "chaos.inject"         // chaos: one injected fault window
	KindSchedRetry   = "sched.retry"          // sched: backoff wait before a retry dispatch
	KindSchedRequeue = "sched.requeue"        // sched: in-flight job rescued back to queue
	KindQuarantine   = "knowledge.quarantine" // knowledge: insight rejected by vetting
)

// maxAttrs bounds per-span attributes so spans stay flat values that copy
// into ring slots without touching the heap.
const maxAttrs = 4

// Attr is one span attribute: a key with a numeric or string value.
type Attr struct {
	Key string
	Val float64
	Str string
}

// Span is one completed operation. Spans are plain values: started on the
// caller's stack, finished by copying into the tracer's ring buffer.
type Span struct {
	TraceID  uint64
	SpanID   uint64
	ParentID uint64 // 0 for a trace root
	Site     string
	Kind     string
	Name     string
	Start    sim.Time
	End      sim.Time

	attrs  [maxAttrs]Attr
	nattrs uint8
}

// Duration is the span's virtual extent.
func (s *Span) Duration() sim.Time { return s.End - s.Start }

// SetAttr attaches a numeric attribute; beyond maxAttrs it is dropped.
func (s *Span) SetAttr(key string, v float64) {
	if s.SpanID == 0 || int(s.nattrs) >= maxAttrs {
		return
	}
	s.attrs[s.nattrs] = Attr{Key: key, Val: v}
	s.nattrs++
}

// SetStr attaches a string attribute; beyond maxAttrs it is dropped.
func (s *Span) SetStr(key, v string) {
	if s.SpanID == 0 || int(s.nattrs) >= maxAttrs {
		return
	}
	s.attrs[s.nattrs] = Attr{Key: key, Str: v}
	s.nattrs++
}

// Attrs returns the attached attributes (aliasing the span's storage).
func (s *Span) Attrs() []Attr { return s.attrs[:s.nattrs] }

// Options tunes a Tracer.
type Options struct {
	// Enabled turns tracing on. The zero Options disables tracing, which
	// is the production default: core.New then wires nil tracers and every
	// instrumentation site reduces to a pointer test.
	Enabled bool
	// SiteCapacity is the per-site ring-buffer capacity in spans.
	// Default 8192. Overflow overwrites the oldest spans and is counted.
	SiteCapacity int
}

// Tracer records spans into fixed-capacity per-site ring buffers. A nil
// *Tracer is a valid, always-off tracer; all methods short-circuit.
//
// A tracer belongs to one simulation and records on its goroutine alone,
// so it takes no locks; read it between engine steps.
type Tracer struct {
	capacity int // per-site ring capacity in spans

	sites   map[string]*siteBuf
	order   []string // sorted site names, maintained on insert
	nextID  uint64
	dropped uint64
}

type siteBuf struct {
	spans   []Span // len == capacity once full
	head    int    // next write index once spans is at capacity
	total   uint64 // spans ever recorded at this site
	dropped uint64 // spans overwritten by ring wrap at this site
}

// New builds a tracer, or returns nil when opts.Enabled is false — callers
// hold and pass nil tracers freely.
func New(opts Options) *Tracer {
	if !opts.Enabled {
		return nil
	}
	if opts.SiteCapacity <= 0 {
		opts.SiteCapacity = 8192
	}
	return &Tracer{capacity: opts.SiteCapacity, sites: make(map[string]*siteBuf)}
}

// mix is SplitMix64's finalizer: the deterministic hash behind trace-ID
// derivation.
func mix(z uint64) uint64 {
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// ID derives a deterministic trace ID from a stable label (e.g. a campaign
// name plus seed label). Equal labels yield equal IDs on every host.
func ID(label string) uint64 {
	const offset, prime = 14695981039346656037, 1099511628211
	h := uint64(offset)
	for i := 0; i < len(label); i++ {
		h ^= uint64(label[i])
		h *= prime
	}
	if h == 0 {
		h = offset
	}
	return mix(h)
}

// Root opens a trace and returns its root Context. On a nil tracer or
// traceID 0 the returned Context is the zero value and every operation under
// it is a no-op.
func (t *Tracer) Root(traceID uint64) Context {
	if t == nil || traceID == 0 {
		return Context{}
	}
	return Context{tr: t, traceID: traceID}
}

// record copies the finished span into its site's ring.
func (t *Tracer) record(s *Span) {
	b := t.sites[s.Site]
	if b == nil {
		b = &siteBuf{spans: make([]Span, 0, t.capacity)}
		t.sites[s.Site] = b
		i := sort.SearchStrings(t.order, s.Site)
		t.order = append(t.order, "")
		copy(t.order[i+1:], t.order[i:])
		t.order[i] = s.Site
	}
	if len(b.spans) < cap(b.spans) {
		b.spans = append(b.spans, *s)
	} else {
		t.dropped++
		b.dropped++
		b.spans[b.head] = *s
		b.head++
		if b.head == len(b.spans) {
			b.head = 0
		}
	}
	b.total++
}

func (t *Tracer) nextSpanID() uint64 {
	t.nextID++
	return t.nextID
}

// Dropped reports spans overwritten by ring overflow.
func (t *Tracer) Dropped() uint64 {
	if t == nil {
		return 0
	}
	return t.dropped
}

// DroppedBySite reports, per site, spans overwritten by ring wrap — the
// signal that a site's causal chains may be incomplete. Sites with no drops
// are omitted; the map is freshly allocated.
func (t *Tracer) DroppedBySite() map[string]uint64 {
	var out map[string]uint64
	t.EachDropped(func(site string, n uint64) {
		if out == nil {
			out = make(map[string]uint64)
		}
		out[site] = n
	})
	return out
}

// EachDropped calls fn, in site order, for every site with drops — the
// map-free form of DroppedBySite for callers that poll.
func (t *Tracer) EachDropped(fn func(site string, n uint64)) {
	if t == nil {
		return
	}
	for _, site := range t.order {
		if b := t.sites[site]; b.dropped > 0 {
			fn(site, b.dropped)
		}
	}
}

// Len reports spans currently held across all rings.
func (t *Tracer) Len() int {
	if t == nil {
		return 0
	}
	n := 0
	for _, b := range t.sites {
		n += len(b.spans)
	}
	return n
}

// Sites lists site names with recorded spans, sorted.
func (t *Tracer) Sites() []string {
	if t == nil {
		return nil
	}
	return append([]string(nil), t.order...)
}

// Spans returns every held span in deterministic order: sites sorted by
// name, spans within a site oldest-first. The result is a copy.
func (t *Tracer) Spans() []Span {
	if t == nil {
		return nil
	}
	var out []Span
	for _, site := range t.order {
		b := t.sites[site]
		if len(b.spans) < cap(b.spans) {
			out = append(out, b.spans...)
			continue
		}
		out = append(out, b.spans[b.head:]...)
		out = append(out, b.spans[:b.head]...)
	}
	return out
}

// Context is a position in a trace: the tracer plus the current span, under
// which child spans open. The zero Context is the disabled fast path — all
// methods are allocation-free no-ops — which is how untraced federations
// cost nothing.
//
// Context is a small value: store it in structs and pass it through
// callback chains by value, never by pointer.
type Context struct {
	tr      *Tracer
	traceID uint64
	spanID  uint64
}

// Enabled reports whether spans opened under this context are recorded.
func (c Context) Enabled() bool { return c.tr != nil }

// TraceID reports the trace this context belongs to (0 when disabled).
func (c Context) TraceID() uint64 { return c.traceID }

// Start opens a child span beginning at virtual instant at. It returns the
// span value (kept on the caller's stack or in caller-owned state until
// finished) and the child Context under which caused operations nest.
// On a disabled Context both returns are zero values.
func (c Context) Start(at sim.Time, site, kind, name string) (Span, Context) {
	if c.tr == nil {
		return Span{}, Context{}
	}
	id := c.tr.nextSpanID()
	return Span{
		TraceID:  c.traceID,
		SpanID:   id,
		ParentID: c.spanID,
		Site:     site,
		Kind:     kind,
		Name:     name,
		Start:    at,
	}, Context{tr: c.tr, traceID: c.traceID, spanID: id}
}

// Finish stamps the span's end and records it. Call it on the Context
// returned by the Start that opened the span. Finishing a zero span (from a
// disabled Start) is a no-op.
func (c Context) Finish(s *Span, at sim.Time) {
	if c.tr == nil || s.SpanID == 0 {
		return
	}
	s.End = at
	c.tr.record(s)
}

// Point records an instantaneous span (Start == End) under this context —
// a marker for decisions that consume no virtual time, like a routing pass.
// For a point span with attributes, use Start, SetAttr, Finish inline.
func (c Context) Point(at sim.Time, site, kind, name string) {
	if c.tr == nil {
		return
	}
	sp, cc := c.Start(at, site, kind, name)
	cc.Finish(&sp, at)
}
