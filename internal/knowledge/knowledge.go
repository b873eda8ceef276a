// Package knowledge implements milestone M9's distributed, real-time
// knowledge integration: per-site knowledge bases holding experimental
// insights (observations, pruned regions, notes) that propagate across
// facilities through the bus with at-least-once delivery, merge under
// vector-clock causality, and seed optimizers at other sites so the
// federation avoids repeating experiments — the mechanism behind the
// "reduce required experiments by >30%" claim.
//
// Publish once, share everywhere: Base.Add stores and publishes one *Insight
// and every base that accepts it stores that same pointer. The invariant that
// makes this safe: an insight is never written after Add publishes it. A
// newer version is a new Insight replacing the pointer in one base's map;
// only bases (and the bus in transit) hold the pointer, and Get and
// Quarantined hand out copies. Points are shared, not copied, under
// param.Point's ownership rule. Every check — vet, the sync span, the
// lag observation, the clock fold — still runs once per receiver.
package knowledge

import (
	"sort"

	"github.com/aisle-sim/aisle/internal/bus"
	"github.com/aisle-sim/aisle/internal/netsim"
	"github.com/aisle-sim/aisle/internal/param"
	"github.com/aisle-sim/aisle/internal/prof"
	"github.com/aisle-sim/aisle/internal/sim"
	"github.com/aisle-sim/aisle/internal/telemetry"
	"github.com/aisle-sim/aisle/internal/trace"
)

// Kind classifies insights.
type Kind string

// Insight kinds.
const (
	KindObservation Kind = "observation" // completed experiment: point -> value
	KindRegion      Kind = "region"      // pruned/promising region note
	KindNote        Kind = "note"        // free-form grounded finding
)

// VectorClock tracks causal history per site. Entry i belongs to the site at
// position i of the sites slice NewFederation was given; a clock shorter
// than another reads zero for the entries it lacks.
type VectorClock []uint64

// Copy clones the clock.
func (v VectorClock) Copy() VectorClock {
	c := make(VectorClock, len(v))
	copy(c, v)
	return c
}

// Dominates reports whether v >= o componentwise with at least one strict.
func (v VectorClock) Dominates(o VectorClock) bool {
	strict := false
	for i := 0; i < len(v) || i < len(o); i++ {
		var a, b uint64
		if i < len(v) {
			a = v[i]
		}
		if i < len(o) {
			b = o[i]
		}
		if a < b {
			return false
		}
		if a > b {
			strict = true
		}
	}
	return strict
}

// Insight is one shareable finding, immutable once Add has published it (see
// the package comment). Callers get shallow copies: Point and Clock are
// shared and read-only.
type Insight struct {
	Key    string // canonical identity, e.g. "perovskite/obs/temp=150,..."
	Kind   Kind
	Domain string // model/campaign domain ("perovskite")
	Point  param.Point
	Value  float64
	Note   string
	Source netsim.SiteID
	Clock  VectorClock
	At     sim.Time
	// Trace is the causal context of the experiment that produced the
	// insight; each receiving site records its merge as a knowledge.sync
	// span against it.
	Trace trace.Context
}

// SanityBound is the per-domain vetting contract for incoming insights: a
// remote observation outside the domain's parameter space or value range is
// quarantined instead of merged, which is what contains a byzantine site
// publishing fabricated results. The zero bound accepts everything.
type SanityBound struct {
	// Space, when non-nil, validates observation points: an observation
	// whose point fails Space.Validate is quarantined.
	Space param.Space
	// Min/Max bound observation values when Max > Min.
	Min, Max float64
}

// Base is one site's knowledge store.
type Base struct {
	site     netsim.SiteID
	idx      int // this site's VectorClock entry
	fed      *Federation
	insights map[string]*Insight
	clock    VectorClock
	// quarantined holds vetting rejects by key, kept out of insights so
	// Observations (the optimizer seed) and HasObservation never see them.
	quarantined map[string]*Insight
}

// Federation wires per-site bases together over the bus.
type Federation struct {
	fabric  *bus.Fabric
	eng     *sim.Engine
	metrics *telemetry.Registry
	syncLag *telemetry.Histogram // knowledge.sync_lag_s: publish -> merge
	bases   map[netsim.SiteID]*Base
	// Counter handles, each resolved when it first counts.
	added, published, merged, conflicts *telemetry.Counter

	// Shared: when false, Add stays site-local (the E3 isolated baseline).
	Shared bool
	// AckTimeout/MaxAttempts govern at-least-once propagation.
	AckTimeout  sim.Time
	MaxAttempts int

	// Bounds maps domain -> sanity bound; incoming insights for a bounded
	// domain that fail the bound are quarantined instead of merged. Domains
	// without an entry merge unvetted (the pre-chaos behaviour).
	Bounds map[string]SanityBound
	// Trusted, when set, vets the claimed source of every incoming insight
	// at the receiving site; a false verdict quarantines the insight with
	// reason "untrusted-source". Typically backed by security.Federation
	// trust state.
	Trusted func(at, source netsim.SiteID) bool
}

// counter resolves a hot-path handle on first use, so a metrics dump lists
// the counter from the moment it first counted and not before.
func (f *Federation) counter(h **telemetry.Counter, name string) *telemetry.Counter {
	if *h == nil {
		*h = f.metrics.Counter(name)
	}
	return *h
}

// NewFederation creates bases at the given sites, wired for sharing. A
// site's position in sites is its VectorClock index.
func NewFederation(fabric *bus.Fabric, sites []netsim.SiteID, shared bool) *Federation {
	f := &Federation{
		fabric:      fabric,
		eng:         fabric.Engine(),
		metrics:     fabric.Metrics(),
		bases:       make(map[netsim.SiteID]*Base),
		Shared:      shared,
		AckTimeout:  2 * sim.Second,
		MaxAttempts: 5,
	}
	f.syncLag = f.metrics.Histogram("knowledge.sync_lag_s")
	for i, s := range sites {
		f.bases[s] = &Base{site: s, idx: i, fed: f, insights: make(map[string]*Insight),
			clock: make(VectorClock, len(sites))}
	}
	if shared {
		for _, s := range sites {
			b := f.bases[s]
			fabric.Subscribe(bus.Address{Site: s, Name: "knowledge"}, "knowledge",
				bus.AtLeastOnce, func(env *bus.Envelope) {
					if ins, ok := env.Payload.(*Insight); ok {
						if reason := f.vet(b.site, ins); reason != "" {
							b.quarantine(ins, reason)
							return
						}
						if ins.Trace.Enabled() {
							// One sync span per receiving site: publish
							// instant -> merge instant, covering the WAN
							// propagation of the insight.
							sp, cc := ins.Trace.Start(ins.At, string(b.site),
								trace.KindInsight, string(ins.Kind))
							sp.SetStr("from", string(ins.Source))
							cc.Finish(&sp, f.eng.Now())
						}
						// Publish -> merge lag, the SLO engine's sync-health
						// signal; retransmissions under loss stretch it.
						lag := f.eng.Now() - ins.At
						f.syncLag.Observe(lag.Seconds())
						// Each receiving site's vector-clock fold runs
						// under knowledge.merge, with the sync lag sampled
						// against the insight's trace.
						r := f.eng.Prof.Enter(prof.SiteKnowledgeMerge)
						f.eng.Prof.Sample(prof.SiteKnowledgeMerge, lag.Std(), ins.Trace.TraceID())
						b.merge(ins)
						r.End()
					}
				})
		}
	}
	return f
}

// vet inspects an incoming insight before merge and returns the quarantine
// reason, or "" to admit it. Vetting is receiver-side: each site defends its
// own base, so a byzantine site poisons only itself.
func (f *Federation) vet(at netsim.SiteID, ins *Insight) string {
	if f.Trusted != nil && !f.Trusted(at, ins.Source) {
		return "untrusted-source"
	}
	sb, ok := f.Bounds[ins.Domain]
	if !ok || ins.Kind != KindObservation {
		return ""
	}
	if sb.Space != nil && sb.Space.Validate(ins.Point) != nil {
		return "out-of-space"
	}
	if sb.Max > sb.Min && (ins.Value < sb.Min || ins.Value > sb.Max) {
		return "out-of-bounds"
	}
	return ""
}

// quarantine records a rejected insight outside the merged store. The
// receiving clock does NOT advance: a quarantined insight is causally
// invisible, exactly as if the message were dropped on the wire.
func (b *Base) quarantine(ins *Insight, reason string) {
	if b.quarantined == nil {
		b.quarantined = make(map[string]*Insight)
	}
	b.quarantined[ins.Key] = ins
	b.fed.metrics.Counter(telemetry.Key("knowledge.quarantined",
		"site", string(ins.Source))).Inc()
	if ins.Trace.Enabled() {
		sp, cc := ins.Trace.Start(ins.At, string(b.site), trace.KindQuarantine, string(ins.Kind))
		sp.SetStr("from", string(ins.Source))
		sp.SetStr("reason", reason)
		cc.Finish(&sp, b.fed.eng.Now())
	}
}

// Quarantined returns this base's vetting rejects, sorted by key.
func (b *Base) Quarantined() []Insight {
	keys := make([]string, 0, len(b.quarantined))
	for k := range b.quarantined {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	out := make([]Insight, 0, len(keys))
	for _, k := range keys {
		out = append(out, *b.quarantined[k])
	}
	return out
}

// Metrics exposes federation telemetry: the fabric's registry, which
// knowledge counts into.
func (f *Federation) Metrics() *telemetry.Registry { return f.metrics }

// Base returns the knowledge base at a site.
func (f *Federation) Base(site netsim.SiteID) *Base { return f.bases[site] }

// Add records an insight at this base and, when sharing is on, publishes it
// to every peer in real time.
func (b *Base) Add(ins Insight) {
	f := b.fed
	b.clock[b.idx]++
	ins.Source = b.site
	ins.Clock = b.clock.Copy()
	ins.At = f.eng.Now()
	if ins.Key == "" {
		ins.Key = deriveKey(&ins)
	}
	c := ins // published below: never written again
	b.insights[ins.Key] = &c
	f.counter(&f.added, "knowledge.added").Inc()

	if f.Shared {
		f.fabric.Publish(bus.PublishOpts{
			From:        bus.Address{Site: b.site, Name: "knowledge"},
			Topic:       "knowledge",
			Payload:     &c,
			Size:        300,
			QoS:         bus.AtLeastOnce,
			AckTimeout:  f.AckTimeout,
			MaxAttempts: f.MaxAttempts,
			Trace:       ins.Trace,
		})
		f.counter(&f.published, "knowledge.published").Inc()
	}
}

// AddObservation is the common case: a completed experiment.
func (b *Base) AddObservation(domain string, p param.Point, value float64) {
	b.AddObservationT(trace.Context{}, domain, p, value)
}

// AddObservationT is AddObservation under a causal trace context, so the
// insight's federation-wide propagation records knowledge.sync spans.
func (b *Base) AddObservationT(ctx trace.Context, domain string, p param.Point, value float64) {
	var buf [keyBuf]byte
	b.Add(Insight{
		Kind:   KindObservation,
		Domain: domain,
		Point:  p,
		Value:  value,
		Key:    string(obsKey(buf[:0], domain, p)),
		Trace:  ctx,
	})
}

const keyBuf = 160 // stack buffer for an observation key; longer keys spill

// obsKey appends the one spelling of an observation's key,
// "domain/obs/<point>", to dst.
func obsKey(dst []byte, domain string, p param.Point) []byte {
	dst = append(dst, domain...)
	dst = append(dst, "/obs/"...)
	return p.AppendKey(dst)
}

func deriveKey(ins *Insight) string {
	switch {
	case ins.Point == nil:
		return ins.Domain + "/" + string(ins.Kind) + "/" + ins.Note
	case ins.Kind == KindObservation:
		var buf [keyBuf]byte
		return string(obsKey(buf[:0], ins.Domain, ins.Point))
	}
	return ins.Domain + "/" + string(ins.Kind) + "/" + ins.Point.Key()
}

// merge folds a remote insight in under vector-clock causality: a remote
// insight replaces a local one only if its clock dominates; concurrent
// updates resolve deterministically by (value, source) so all sites agree.
// An accepted insight is stored by pointer — the published, immutable one.
func (b *Base) merge(remote *Insight) {
	// Receiving knowledge is itself a causal event.
	if n := len(remote.Clock) - len(b.clock); n > 0 {
		b.clock = append(b.clock, make(VectorClock, n)...)
	}
	for i, t := range remote.Clock {
		if b.clock[i] < t {
			b.clock[i] = t
		}
	}
	f := b.fed
	cur, ok := b.insights[remote.Key]
	switch {
	case !ok || remote.Clock.Dominates(cur.Clock):
		f.counter(&f.merged, "knowledge.merged").Inc()
	case cur.Clock.Dominates(remote.Clock):
		return // keep current
	case remote.Value > cur.Value ||
		(remote.Value == cur.Value && remote.Source < cur.Source):
		// Concurrent: deterministic resolution, prefer higher value then
		// lexicographically smaller source.
		f.counter(&f.conflicts, "knowledge.conflicts").Inc()
	default:
		return
	}
	b.insights[remote.Key] = remote
}

// Size reports the number of insights held.
func (b *Base) Size() int { return len(b.insights) }

// Get fetches an insight by key.
func (b *Base) Get(key string) (Insight, bool) {
	ins, ok := b.insights[key]
	if !ok {
		return Insight{}, false
	}
	return *ins, true
}

// Observations returns all observations for a domain, sorted by key — the
// transfer-learning feed for optimizers at this site.
func (b *Base) Observations(domain string) (points []param.Point, values []float64) {
	keys := make([]string, 0, len(b.insights))
	for k, ins := range b.insights {
		if ins.Kind == KindObservation && ins.Domain == domain {
			keys = append(keys, k)
		}
	}
	sort.Strings(keys)
	for _, k := range keys {
		ins := b.insights[k]
		points, values = append(points, ins.Point), append(values, ins.Value)
	}
	return points, values
}

// HasObservation reports whether this exact point was already run anywhere
// in the federation's shared view — the redundancy check campaigns use to
// skip duplicate experiments.
func (b *Base) HasObservation(domain string, p param.Point) (float64, bool) {
	var buf [keyBuf]byte
	ins, ok := b.insights[string(obsKey(buf[:0], domain, p))]
	if !ok || ins.Kind != KindObservation {
		return 0, false
	}
	return ins.Value, true
}

// Converged reports whether every base holds the same key set.
func (f *Federation) Converged() bool {
	var ref map[string]bool
	for _, b := range f.bases {
		view := make(map[string]bool, len(b.insights))
		for k := range b.insights {
			view[k] = true
		}
		if ref == nil {
			ref = view
			continue
		}
		if len(ref) != len(view) {
			return false
		}
		for k := range ref {
			if !view[k] {
				return false
			}
		}
	}
	return true
}
