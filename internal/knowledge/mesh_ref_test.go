package knowledge

import (
	"fmt"
	"sort"
	"strings"
	"testing"

	"github.com/aisle-sim/aisle/internal/bus"
	"github.com/aisle-sim/aisle/internal/netsim"
	"github.com/aisle-sim/aisle/internal/param"
	"github.com/aisle-sim/aisle/internal/rng"
	"github.com/aisle-sim/aisle/internal/sim"
	"github.com/aisle-sim/aisle/internal/simtest"
	"github.com/aisle-sim/aisle/internal/telemetry"
)

// The knowledge base as it was before insights were shared by pointer and
// clocks became dense: string-keyed map clocks, one copy of the insight per
// receiver. It stays here as the reference the package is compared against
// (refClock.Copy/Dominates and refBase.merge are the old code verbatim).

type refClock map[netsim.SiteID]uint64

func (v refClock) Copy() refClock {
	c := make(refClock, len(v))
	for k, t := range v {
		c[k] = t
	}
	return c
}

func (v refClock) Dominates(o refClock) bool {
	strict := false
	for k, t := range o {
		if v[k] < t {
			return false
		}
		if v[k] > t {
			strict = true
		}
	}
	for k := range v {
		if _, ok := o[k]; !ok && v[k] > 0 {
			strict = true
		}
	}
	return strict
}

// refInsight is an Insight under a map clock (the embedded Clock is unused).
type refInsight struct {
	Insight
	clock refClock
}

type refBase struct {
	site                  netsim.SiteID
	fed                   *refFed
	insights, quarantined map[string]*refInsight
	clock                 refClock
}

func (b *refBase) merge(remote *refInsight) {
	for site, t := range remote.clock {
		if b.clock[site] < t {
			b.clock[site] = t
		}
	}
	cur, ok := b.insights[remote.Key]
	if !ok {
		c := *remote
		b.insights[remote.Key] = &c
		b.fed.metrics.Counter("knowledge.merged").Inc()
		return
	}
	switch {
	case remote.clock.Dominates(cur.clock):
		c := *remote
		b.insights[remote.Key] = &c
		b.fed.metrics.Counter("knowledge.merged").Inc()
	case cur.clock.Dominates(remote.clock):
		// keep current
	default:
		if remote.Value > cur.Value ||
			(remote.Value == cur.Value && remote.Source < cur.Source) {
			c := *remote
			b.insights[remote.Key] = &c
			b.fed.metrics.Counter("knowledge.conflicts").Inc()
		}
	}
}

// refFed is the old Federation reduced to what decides a base's contents:
// Add, the subscription handler's vet -> quarantine | merge, the counters.
type refFed struct {
	fabric  *bus.Fabric
	vetter  *Federation // holds the options (Bounds, Trusted, AckTimeout, MaxAttempts) and vet
	bases   map[netsim.SiteID]*refBase
	metrics *telemetry.Registry
}

func newRefFed(fabric *bus.Fabric, sites []netsim.SiteID) *refFed {
	f := &refFed{fabric: fabric, vetter: &Federation{}, bases: map[netsim.SiteID]*refBase{},
		metrics: fabric.Metrics()}
	for _, s := range sites {
		b := &refBase{site: s, fed: f, insights: map[string]*refInsight{},
			quarantined: map[string]*refInsight{}, clock: refClock{}}
		f.bases[s] = b
		fabric.Subscribe(bus.Address{Site: s, Name: "knowledge"}, "knowledge", bus.AtLeastOnce,
			func(env *bus.Envelope) {
				ins := env.Payload.(*refInsight)
				if f.vetter.vet(b.site, &ins.Insight) != "" {
					c := *ins
					b.quarantined[ins.Key] = &c
					f.metrics.Counter(telemetry.Key("knowledge.quarantined", "site", string(ins.Source))).Inc()
					return
				}
				b.merge(ins)
			})
	}
	return f
}

func (b *refBase) add(ins Insight) {
	b.clock[b.site]++
	ins.Source = b.site
	ins.At = b.fed.fabric.Engine().Now()
	if ins.Key == "" {
		// The old deriveKey, with the observation spelling corrected to the
		// one AddObservation and HasObservation use.
		switch {
		case ins.Point != nil && ins.Kind == KindObservation:
			ins.Key = fmt.Sprintf("%s/obs/%s", ins.Domain, ins.Point.Key())
		case ins.Point != nil:
			ins.Key = fmt.Sprintf("%s/%s/%s", ins.Domain, ins.Kind, ins.Point.Key())
		default:
			ins.Key = fmt.Sprintf("%s/%s/%s", ins.Domain, ins.Kind, ins.Note)
		}
	}
	c := &refInsight{Insight: ins, clock: b.clock.Copy()}
	b.insights[ins.Key] = c
	b.fed.metrics.Counter("knowledge.added").Inc()
	b.fed.fabric.Publish(bus.PublishOpts{
		From: bus.Address{Site: b.site, Name: "knowledge"}, Topic: "knowledge", Payload: c,
		Size: 300, QoS: bus.AtLeastOnce, AckTimeout: b.fed.vetter.AckTimeout, MaxAttempts: b.fed.vetter.MaxAttempts,
	})
	b.fed.metrics.Counter("knowledge.published").Inc()
}

// meshStack carries either the package's federation or the reference on
// a simtest stack.
type meshStack struct {
	*simtest.Stack
	fed     *Federation
	ref     *refFed
	metrics *telemetry.Registry // the stack's registry: net.*, bus.* and knowledge.*
}

func newMesh(n int, seed uint64, reference bool) *meshStack {
	st := &meshStack{Stack: simtest.New(rng.New(seed), netsim.Link{Latency: 20 * sim.Millisecond, Loss: 0.05}, simtest.Names(n)...)}
	if reference {
		st.ref = newRefFed(st.Fab, st.Sites)
		st.metrics = st.ref.metrics
	} else {
		st.fed = NewFederation(st.Fab, st.Sites, true)
		st.metrics = st.fed.Metrics()
	}
	return st
}

func (st *meshStack) add(site int, ins Insight) {
	if st.ref != nil {
		st.ref.bases[st.Sites[site]].add(ins)
		return
	}
	st.fed.Base(st.Sites[site]).Add(ins)
}

func (st *meshStack) addObservation(site int, domain string, p param.Point, v float64) {
	if st.ref != nil {
		st.add(site, Insight{Kind: KindObservation, Domain: domain, Point: p.Clone(), Value: v,
			Key: fmt.Sprintf("%s/obs/%s", domain, p.Key())})
		return
	}
	st.fed.Base(st.Sites[site]).AddObservation(domain, p, v)
}

// heldInsight is what a base holds under one key, its clock spelled per site.
type heldInsight struct {
	Kind   Kind
	Value  float64
	Source netsim.SiteID
	At     sim.Time
	Clock  []uint64
}

// view is everything observable about one base: its clock, what it holds
// and what it quarantined, every clock spelled per site.
func (st *meshStack) view(site int) any {
	v := struct {
		Clock                 []uint64
		Insights, Quarantined map[string]heldInsight
	}{Insights: map[string]heldInsight{}, Quarantined: map[string]heldInsight{}}
	// A dense clock shorter than the federation reads zero for the sites it
	// lacks, like a missing map key; the reference's clocks are all sparse.
	n := len(st.Sites)
	spell := func(dense VectorClock, sparse refClock) []uint64 {
		if len(dense) > n || len(sparse) > n {
			panic("clock names a site outside the federation")
		}
		out := append(make([]uint64, 0, n), dense...)[:n]
		for i, s := range st.Sites {
			out[i] += sparse[s]
		}
		return out
	}
	hold := func(m map[string]heldInsight, ins *Insight, clock []uint64) {
		m[ins.Key] = heldInsight{ins.Kind, ins.Value, ins.Source, ins.At, clock}
	}
	if st.ref != nil {
		b := st.ref.bases[st.Sites[site]]
		v.Clock = spell(nil, b.clock)
		for _, ins := range b.insights {
			hold(v.Insights, &ins.Insight, spell(nil, ins.clock))
		}
		for _, ins := range b.quarantined {
			hold(v.Quarantined, &ins.Insight, spell(nil, ins.clock))
		}
		return v
	}
	b := st.fed.Base(st.Sites[site])
	v.Clock = spell(b.clock, nil)
	for k := range b.insights {
		ins, _ := b.Get(k)
		hold(v.Insights, &ins, spell(ins.Clock, nil))
	}
	for _, ins := range b.Quarantined() {
		hold(v.Quarantined, &ins, spell(ins.Clock, nil))
	}
	return v
}

type meshStep = simtest.Kind[*meshStack]

// TestMeshMatchesReference drives the package's federation and the map-clock
// reference through the same random schedules — fresh and repeated
// observations, re-Adds of existing keys, derived keys, poison, link faults
// and partitions (so redeliveries and dead letters happen) — and compares
// after every step every base and every counter of the stack's registry
// (net.*, bus.* and knowledge.*), including the moment a counter first
// appears in a metrics dump.
func TestMeshMatchesReference(t *testing.T) {
	schedules, steps := 200, 30
	if testing.Short() {
		schedules = 40
	}
	space := param.Space{{Name: "temp", Lo: 50, Hi: 250}, {Name: "ratio", Lo: 0, Hi: 1}}
	exercised := map[string]int64{} // what the schedules reached, summed
	for sc := 0; sc < schedules; sc++ {
		rnd := rng.New(uint64(5000 + sc))
		n := 3 + rnd.Intn(6)
		p := &simtest.Pair[*meshStack]{T: t, Schedule: sc, Got: newMesh(n, uint64(sc), false), Want: newMesh(n, uint64(sc), true),
			View:   (*meshStack).view,
			Shared: func(st *meshStack) any { return st.metrics.Snapshot().Counters },
			Rand:   rnd,
		}
		bounds := map[string]SanityBound{"perovskite": {Space: space, Min: 0, Max: 1}}
		var trusted func(at, source netsim.SiteID) bool
		if sc%3 == 0 { // s0 distrusts the last site
			last := p.Got.Sites[n-1]
			trusted = func(at, source netsim.SiteID) bool { return !(at == "s0" && source == last) }
		}
		for _, f := range []*Federation{p.Got.fed, p.Want.ref.vetter} {
			f.Bounds, f.Trusted, f.AckTimeout, f.MaxAttempts = bounds, trusted, 300*sim.Millisecond, 3
		}
		var lattice param.Point
		var value float64
		step := -1
		p.Prelude = func(int) {
			step++
			lattice = param.Point{"temp": 100 + 50*float64(rnd.Intn(3)), "ratio": 0.25 * float64(1+rnd.Intn(2))}
			value = float64(rnd.Intn(5)) / 4 // few levels, so equal values meet
		}
		observe := func(site int, verb string, pt param.Point, v float64) (string, func(*meshStack)) {
			return fmt.Sprintf("s%d %s %s = %v", site, verb, pt.Key(), v),
				func(st *meshStack) { st.addObservation(site, "perovskite", pt, v) }
		}
		add := func(site int, desc string, ins Insight) (string, func(*meshStack)) {
			return fmt.Sprintf("s%d %s", site, desc), func(st *meshStack) { st.add(site, ins) }
		}
		p.Steps = []meshStep{
			{Weight: 2, Draw: func(site int) (string, func(*meshStack)) { // a point nobody has run
				return observe(site, "observes fresh", space.Sample(rnd), value)
			}},
			{Weight: 3, Draw: func(site int) (string, func(*meshStack)) { // repeats, newer versions, concurrent runs
				return observe(site, "observes", lattice, value)
			}},
			{Weight: 1, Draw: func(site int) (string, func(*meshStack)) { // re-Add a held key
				held := p.Got.fed.Base(p.Got.Sites[site]).insights
				if len(held) == 0 {
					return "", nil
				}
				keys := make([]string, 0, len(held))
				for k := range held {
					keys = append(keys, k)
				}
				sort.Strings(keys)
				key := keys[rnd.Intn(len(keys))]
				return add(site, fmt.Sprintf("re-adds %s = %v", key, value),
					Insight{Key: key, Kind: KindNote, Domain: "perovskite", Note: "revised", Value: value})
			}},
			{Weight: 1, Draw: func(site int) (string, func(*meshStack)) { // no Key: Add derives it
				ins := Insight{Kind: KindObservation, Domain: "perovskite", Point: lattice, Value: value}
				switch rnd.Intn(3) {
				case 1:
					ins.Kind = KindRegion
				case 2:
					ins = Insight{Kind: KindNote, Domain: "alloy", Note: fmt.Sprintf("note-%d", rnd.Intn(3))}
				}
				return add(site, "adds keyless "+string(ins.Kind), ins)
			}},
			{Weight: 1, Draw: func(site int) (string, func(*meshStack)) { // value out of bounds, or point off the envelope
				if rnd.Bool(0.5) {
					return observe(site, "poisons", param.Point{"temp": 500 + float64(step), "ratio": 2}, value)
				}
				return observe(site, "poisons", lattice, 5+value)
			}},
			p.Link(1),
			p.Split(1),
			p.Advance(3, 10*sim.Millisecond, 25*sim.Millisecond, 100*sim.Millisecond, 350*sim.Millisecond, sim.Second, 3*sim.Second),
		}
		p.Run(steps)
		for name, v := range p.Want.ref.metrics.Snapshot().Counters {
			if i := strings.IndexByte(name, '{'); i >= 0 {
				name = name[:i]
			}
			exercised[name] += v
		}
	}
	for _, name := range []string{"knowledge.added", "knowledge.merged", "knowledge.conflicts",
		"knowledge.quarantined", "bus.pub.redelivered", "bus.pub.dlq"} {
		if exercised[name] < int64(schedules) {
			t.Errorf("the schedules reached %s only %d times", name, exercised[name])
		}
	}
	t.Logf("reached: %v", exercised)
}
