package knowledge

import (
	"fmt"
	"reflect"
	"sort"
	"strings"
	"testing"

	"github.com/aisle-sim/aisle/internal/bus"
	"github.com/aisle-sim/aisle/internal/netsim"
	"github.com/aisle-sim/aisle/internal/param"
	"github.com/aisle-sim/aisle/internal/rng"
	"github.com/aisle-sim/aisle/internal/sim"
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
		b.fed.counts["knowledge.merged"]++
		return
	}
	switch {
	case remote.clock.Dominates(cur.clock):
		c := *remote
		b.insights[remote.Key] = &c
		b.fed.counts["knowledge.merged"]++
	case cur.clock.Dominates(remote.clock):
		// keep current
	default:
		if remote.Value > cur.Value ||
			(remote.Value == cur.Value && remote.Source < cur.Source) {
			c := *remote
			b.insights[remote.Key] = &c
			b.fed.counts["knowledge.conflicts"]++
		}
	}
}

// refFed is the old Federation reduced to what decides a base's contents:
// Add, the subscription handler's vet -> quarantine | merge, the counters.
type refFed struct {
	fabric *bus.Fabric
	vetter *Federation // holds Bounds/Trusted; vet is code this PR does not touch
	bases  map[netsim.SiteID]*refBase
	counts map[string]int64 // absent until first counted
}

func newRefFed(fabric *bus.Fabric, sites []netsim.SiteID) *refFed {
	f := &refFed{fabric: fabric, vetter: &Federation{}, bases: map[netsim.SiteID]*refBase{},
		counts: map[string]int64{}}
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
					f.counts[telemetry.Key("knowledge.quarantined", "site", string(ins.Source))]++
					return
				}
				b.merge(ins)
			})
	}
	return f
}

func (b *refBase) add(ins Insight, ackTimeout sim.Time, maxAttempts int) {
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
	b.fed.counts["knowledge.added"]++
	b.fed.fabric.Publish(bus.PublishOpts{
		From: bus.Address{Site: b.site, Name: "knowledge"}, Topic: "knowledge", Payload: c,
		Size: 300, QoS: bus.AtLeastOnce, AckTimeout: ackTimeout, MaxAttempts: maxAttempts,
	})
	b.fed.counts["knowledge.published"]++
}

// meshStack is one complete sim/netsim/bus stack carrying either the
// package's federation or the reference.
type meshStack struct {
	eng   *sim.Engine
	net   *netsim.Network
	fab   *bus.Fabric
	sites []netsim.SiteID
	fed   *Federation
	ref   *refFed
}

const (
	meshAckTimeout  = 300 * sim.Millisecond
	meshMaxAttempts = 3
)

func newMeshStack(n int, seed uint64, reference bool) *meshStack {
	st := &meshStack{eng: sim.NewEngine()}
	st.net = netsim.New(st.eng, rng.New(seed))
	for i := 0; i < n; i++ {
		id := netsim.SiteID(fmt.Sprintf("s%d", i))
		st.sites = append(st.sites, id)
		st.net.AddSite(id).Firewall.AllowAll()
	}
	st.net.FullMesh(st.sites, netsim.Link{Latency: 20 * sim.Millisecond, Loss: 0.05})
	st.fab = bus.NewFabric(st.net)
	if reference {
		st.ref = newRefFed(st.fab, st.sites)
	} else {
		st.fed = NewFederation(st.fab, st.sites, true)
		st.fed.AckTimeout, st.fed.MaxAttempts = meshAckTimeout, meshMaxAttempts
	}
	return st
}

func (st *meshStack) vetting(bounds map[string]SanityBound, trusted func(at, source netsim.SiteID) bool) {
	f := st.fed
	if st.ref != nil {
		f = st.ref.vetter
	}
	f.Bounds, f.Trusted = bounds, trusted
}

func (st *meshStack) add(site int, ins Insight) {
	if st.ref != nil {
		st.ref.bases[st.sites[site]].add(ins, meshAckTimeout, meshMaxAttempts)
		return
	}
	st.fed.Base(st.sites[site]).Add(ins)
}

func (st *meshStack) addObservation(site int, domain string, p param.Point, v float64) {
	if st.ref != nil {
		st.add(site, Insight{Kind: KindObservation, Domain: domain, Point: p.Clone(), Value: v,
			Key: fmt.Sprintf("%s/obs/%s", domain, p.Key())})
		return
	}
	st.fed.Base(st.sites[site]).AddObservation(domain, p, v)
}

// heldInsight is what a base holds under one key, clocks spelled per site.
type heldInsight struct {
	Kind   Kind
	Value  float64
	Source netsim.SiteID
	At     sim.Time
	Clock  []uint64
}

// baseView is everything observable about one base.
type baseView struct {
	Clock       []uint64
	Insights    map[string]heldInsight
	Quarantined map[string]heldInsight
}

func (st *meshStack) view(site int) baseView {
	v := baseView{Insights: map[string]heldInsight{}, Quarantined: map[string]heldInsight{}}
	n := len(st.sites)
	if st.ref != nil {
		spell := func(c refClock) []uint64 {
			out := make([]uint64, n)
			for i, s := range st.sites {
				out[i] = c[s]
			}
			if len(c) > n {
				panic("reference clock names a site outside the federation")
			}
			return out
		}
		b := st.ref.bases[st.sites[site]]
		v.Clock = spell(b.clock)
		for k, ins := range b.insights {
			v.Insights[k] = heldInsight{ins.Kind, ins.Value, ins.Source, ins.At, spell(ins.clock)}
		}
		for k, ins := range b.quarantined {
			v.Quarantined[k] = heldInsight{ins.Kind, ins.Value, ins.Source, ins.At, spell(ins.clock)}
		}
		return v
	}
	spell := func(c VectorClock) []uint64 {
		if len(c) > n {
			panic("clock longer than the federation")
		}
		// A clock shorter than the federation reads zero for the sites it
		// lacks, like a missing map key.
		return append(make([]uint64, 0, n), c...)[:n]
	}
	b := st.fed.Base(st.sites[site])
	v.Clock = spell(b.clock)
	for k := range b.insights {
		ins, _ := b.Get(k)
		v.Insights[k] = heldInsight{ins.Kind, ins.Value, ins.Source, ins.At, spell(ins.Clock)}
	}
	for _, ins := range b.Quarantined() {
		v.Quarantined[ins.Key] = heldInsight{ins.Kind, ins.Value, ins.Source, ins.At, spell(ins.Clock)}
	}
	return v
}

// counters lists every knowledge.* counter that exists, so the moment a
// counter first appears in a metrics dump is compared too.
func (st *meshStack) counters() map[string]int64 {
	if st.ref != nil {
		return st.ref.counts
	}
	out := map[string]int64{}
	reg := st.fed.Metrics()
	for _, name := range reg.Names() {
		if c := reg.FindCounter(name); c != nil {
			out[name] = c.Value()
		}
	}
	return out
}

func compareMesh(t *testing.T, got, want *meshStack, where string) {
	t.Helper()
	if g, w := got.eng.Now(), want.eng.Now(); g != w {
		t.Fatalf("%s: clocks differ: %v vs %v", where, g, w)
	}
	if g, w := got.counters(), want.counters(); !reflect.DeepEqual(g, w) {
		t.Fatalf("%s: counters\n got  %v\n want %v", where, g, w)
	}
	for i, s := range got.sites {
		if g, w := got.view(i), want.view(i); !reflect.DeepEqual(g, w) {
			t.Fatalf("%s: base %s differs\n got  %+v\n want %+v", where, s, g, w)
		}
	}
}

// TestMeshMatchesReference drives the package's federation and the map-clock
// reference through the same random schedules — fresh and repeated
// observations, re-Adds of existing keys, derived keys, poison, link faults
// and partitions (so redeliveries and dead letters happen) — and compares
// every base after every step.
func TestMeshMatchesReference(t *testing.T) {
	schedules, steps := 200, 30
	if testing.Short() {
		schedules = 40
	}
	space := param.Space{{Name: "temp", Lo: 50, Hi: 250}, {Name: "ratio", Lo: 0, Hi: 1}}
	waits := []sim.Time{10 * sim.Millisecond, 25 * sim.Millisecond, 100 * sim.Millisecond,
		350 * sim.Millisecond, sim.Second, 3 * sim.Second}
	exercised := map[string]int64{} // what the schedules reached, summed
	for sc := 0; sc < schedules; sc++ {
		rnd := rng.New(uint64(5000 + sc))
		n := 3 + rnd.Intn(6)
		got, want := newMeshStack(n, uint64(sc), false), newMeshStack(n, uint64(sc), true)
		both := func(fn func(st *meshStack)) { fn(got); fn(want) }
		bounds := map[string]SanityBound{"perovskite": {Space: space, Min: 0, Max: 1}}
		var trusted func(at, source netsim.SiteID) bool
		if sc%3 == 0 { // s0 distrusts the last site
			last := got.sites[n-1]
			trusted = func(at, source netsim.SiteID) bool { return !(at == "s0" && source == last) }
		}
		both(func(st *meshStack) { st.vetting(bounds, trusted) })
		var split [2][]netsim.SiteID // current partition, if any
		for step := 0; step < steps; step++ {
			site := rnd.Intn(n)
			lattice := param.Point{"temp": 100 + 50*float64(rnd.Intn(3)), "ratio": 0.25 * float64(1+rnd.Intn(2))}
			value := float64(rnd.Intn(5)) / 4 // few levels, so equal values meet
			desc := ""
			switch rnd.Intn(13) {
			case 0, 1: // a point nobody has run
				p := space.Sample(rnd)
				desc = fmt.Sprintf("s%d observes fresh %s", site, p.Key())
				both(func(st *meshStack) { st.addObservation(site, "perovskite", p, value) })
			case 2, 3, 4: // a lattice point: repeats, newer versions, concurrent runs
				desc = fmt.Sprintf("s%d observes %s = %v", site, lattice.Key(), value)
				both(func(st *meshStack) { st.addObservation(site, "perovskite", lattice, value) })
			case 5: // re-Add a key the site already holds, under its explicit key
				held := got.view(site).Insights
				if len(held) == 0 {
					continue
				}
				keys := make([]string, 0, len(held))
				for k := range held {
					keys = append(keys, k)
				}
				sort.Strings(keys)
				key := keys[rnd.Intn(len(keys))]
				desc = fmt.Sprintf("s%d re-adds %s = %v", site, key, value)
				both(func(st *meshStack) {
					st.add(site, Insight{Key: key, Kind: KindNote, Domain: "perovskite", Note: "revised", Value: value})
				})
			case 6: // no Key: Add derives it
				ins := Insight{Kind: KindObservation, Domain: "perovskite", Point: lattice, Value: value}
				switch rnd.Intn(3) {
				case 1:
					ins = Insight{Kind: KindRegion, Domain: "perovskite", Point: lattice, Value: value}
				case 2:
					ins = Insight{Kind: KindNote, Domain: "alloy", Note: fmt.Sprintf("note-%d", rnd.Intn(3))}
				}
				desc = fmt.Sprintf("s%d adds keyless %s", site, ins.Kind)
				both(func(st *meshStack) { st.add(site, ins) })
			case 7: // byzantine: value out of bounds, or point off the envelope
				p, v := lattice, 5+value
				if rnd.Bool(0.5) {
					p, v = param.Point{"temp": 500 + float64(step), "ratio": 2}, value
				}
				desc = fmt.Sprintf("s%d poisons %s = %v", site, p.Key(), v)
				both(func(st *meshStack) { st.addObservation(site, "perovskite", p, v) })
			case 8: // one link down or up
				other := (site + 1 + rnd.Intn(n-1)) % n
				up := rnd.Bool(0.5)
				desc = fmt.Sprintf("link s%d-s%d up=%v", site, other, up)
				both(func(st *meshStack) { st.net.SetLinkUp(st.sites[site], st.sites[other], up) })
			case 9: // partition, or heal the one in force
				if split[0] != nil {
					desc = "heal"
					both(func(st *meshStack) { st.net.Heal(split[0], split[1]) })
					split = [2][]netsim.SiteID{}
					break
				}
				cut := 1 + rnd.Intn(n-1)
				for i, p := range rnd.Perm(n) {
					side := 0
					if i >= cut {
						side = 1
					}
					split[side] = append(split[side], got.sites[p])
				}
				desc = fmt.Sprintf("partition %v | %v", split[0], split[1])
				both(func(st *meshStack) { st.net.Partition(split[0], split[1]) })
			default: // deliveries, acks, redeliveries, dead letters
				d := waits[rnd.Intn(len(waits))]
				desc = "advance " + d.String()
				both(func(st *meshStack) {
					if err := st.eng.RunUntil(st.eng.Now() + d); err != nil {
						t.Fatal(err)
					}
				})
			}
			compareMesh(t, got, want, fmt.Sprintf("schedule %d (%d sites) step %d: %s", sc, n, step, desc))
		}
		for name, v := range want.counters() {
			if i := strings.IndexByte(name, '{'); i >= 0 {
				name = name[:i]
			}
			exercised[name] += v
		}
		for _, name := range []string{"bus.pub.redelivered", "bus.pub.dlq"} {
			exercised[name] += got.fab.Metrics().Counter(name).Value()
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
