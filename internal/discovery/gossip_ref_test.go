package discovery

import (
	"fmt"
	"reflect"
	"sort"
	"testing"

	"github.com/aisle-sim/aisle/internal/bus"
	"github.com/aisle-sim/aisle/internal/netsim"
	"github.com/aisle-sim/aisle/internal/rng"
	"github.com/aisle-sim/aisle/internal/sim"
)

// The reference gossip: the snapshot/merge/round this package shipped before
// snapshots were published once and merges identity-checked — a fresh slice
// of every record per round and per reply, a full walk per merge, by-name
// counters — with the one semantic fix made alongside (an equal-version
// tombstone is re-leased, not re-accepted). It runs on real Registry values
// so that everything but the gossip path is shared with the code under test.

func refSnapshot(r *Registry) []*Record {
	out := make([]*Record, 0, len(r.records))
	for _, e := range r.records {
		out = append(out, e.rec)
	}
	return out
}

func refMerge(r *Registry, in []*Record) {
	changed := 0
	now := r.dir.eng.Now()
	for _, rec := range in {
		cur, ok := r.records[rec.Instance]
		if ok && cur.rec.Version > rec.Version {
			continue
		}
		if ok && cur.rec.Version == rec.Version {
			cur.expiresAt = now + cur.rec.TTL
			continue
		}
		expires := now + rec.TTL
		r.records[rec.Instance] = &entry{rec: rec, updatedAt: now, expiresAt: expires}
		r.touch(expires)
		changed++
	}
	if changed > 0 {
		r.dir.metrics.Counter("discovery.merged_records").Add(int64(changed))
	}
}

func refGossipRound(r *Registry) {
	r.expire()
	snap := refSnapshot(r)
	for _, peer := range r.dir.sites {
		if peer == r.site {
			continue
		}
		r.dir.metrics.Counter("discovery.gossip_rounds").Inc()
		r.dir.fabric.Call(bus.CallOpts{
			From:    bus.Address{Site: r.site, Name: "discovery"},
			To:      bus.Address{Site: peer, Name: "discovery.sync"},
			Method:  "discovery.sync",
			Payload: snap,
			Timeout: r.dir.GossipInterval,
		}, func(result any, err error) {
			if err != nil {
				r.dir.metrics.Counter("discovery.gossip_failures").Inc()
				return
			}
			refMerge(r, result.([]*Record))
		})
	}
}

// gossipStack is one complete federation: engine, network, bus, directory.
type gossipStack struct {
	eng   *sim.Engine
	net   *netsim.Network
	dir   *Directory
	sites []netsim.SiteID
}

// newGossipStack builds and starts an n-site directory over a lossy full
// mesh. With ref set, the discovery.sync handlers and the gossip tickers
// are the reference's; everything else is the package's own.
func newGossipStack(n int, seed uint64, ref bool) *gossipStack {
	st := &gossipStack{eng: sim.NewEngine()}
	st.net = netsim.New(st.eng, rng.New(seed))
	for i := 0; i < n; i++ {
		s := netsim.SiteID(fmt.Sprintf("s%d", i))
		st.sites = append(st.sites, s)
		st.net.AddSite(s).Firewall.AllowAll()
	}
	st.net.FullMesh(st.sites, netsim.Link{Latency: 15 * sim.Millisecond, Loss: 0.03})
	f := bus.NewFabric(st.net)
	st.dir = NewDirectory(f, st.sites)
	if !ref {
		st.dir.Start()
		return st
	}
	for _, s := range st.sites {
		reg := st.dir.registries[s]
		f.Broker(s).RegisterFunc("discovery.sync", 0, func(env *bus.Envelope) (any, error) {
			reg.expire()
			refMerge(reg, env.Payload.([]*Record))
			return refSnapshot(reg), nil
		})
		stop := st.eng.Ticker(st.dir.GossipInterval, func(int) { refGossipRound(reg) })
		st.dir.stops = append(st.dir.stops, stop)
	}
	return st
}

// advance runs the stack d further in virtual time.
func (st *gossipStack) advance(t *testing.T, d sim.Time) {
	t.Helper()
	if err := st.eng.RunUntil(st.eng.Now() + d); err != nil {
		t.Fatal(err)
	}
}

// leaseRow is one entry's observable state.
type leaseRow struct {
	Instance           string
	Version            uint64
	Deleted            bool
	UpdatedAt, Expires sim.Time
}

// registryView is everything the differential test compares per registry.
type registryView struct {
	Rows   []leaseRow
	Gen    uint64
	Browse map[string][]Record
}

var diffTypes = []string{"_xrd._aisle", "_synth._aisle"}

func viewOf(r *Registry) registryView {
	v := registryView{Browse: make(map[string][]Record)}
	for _, typ := range diffTypes {
		v.Browse[typ] = r.Browse(typ) // runs expire, like any reader
	}
	for name, e := range r.records {
		v.Rows = append(v.Rows, leaseRow{name, e.rec.Version, e.rec.Deleted, e.updatedAt, e.expiresAt})
	}
	sort.Slice(v.Rows, func(i, j int) bool { return v.Rows[i].Instance < v.Rows[j].Instance })
	v.Gen = r.gen
	return v
}

var gossipCounters = []string{"discovery.gossip_rounds", "discovery.merged_records", "discovery.gossip_failures"}

// counterView reads the three gossip counters; -1 means not yet created, so
// the moment a counter first appears in a metrics dump is compared too.
func counterView(d *Directory) [3]int64 {
	var out [3]int64
	for i, name := range gossipCounters {
		out[i] = -1
		if c := d.metrics.FindCounter(name); c != nil {
			out[i] = c.Value()
		}
	}
	return out
}

// compareStacks fails the test at the first observable difference.
func compareStacks(t *testing.T, got, want *gossipStack, where string) {
	t.Helper()
	if g, w := got.eng.Now(), want.eng.Now(); g != w {
		t.Fatalf("%s: clocks differ: %v vs %v", where, g, w)
	}
	if g, w := counterView(got.dir), counterView(want.dir); g != w {
		t.Fatalf("%s: counters %v = %v, reference %v", where, gossipCounters, g, w)
	}
	for _, s := range got.sites {
		g, w := viewOf(got.dir.registries[s]), viewOf(want.dir.registries[s])
		if !reflect.DeepEqual(g, w) {
			t.Fatalf("%s: registry %s differs\n got  %+v\n want %+v", where, s, g, w)
		}
	}
}

// TestGossipMatchesReference drives the package's gossip and the reference
// through the same random schedules of registry calls, network faults and
// clock advances, and compares every registry after every step.
func TestGossipMatchesReference(t *testing.T) {
	schedules, steps := 200, 30
	if testing.Short() {
		schedules = 40
	}
	ttls := []sim.Time{0, 5 * sim.Second, 12 * sim.Second, 40 * sim.Second}
	// One gossip interval is listed twice so that it is drawn twice as often.
	waits := []sim.Time{100 * sim.Millisecond, sim.Second, 2 * sim.Second, 2 * sim.Second,
		5 * sim.Second, 9 * sim.Second, 35 * sim.Second, 70 * sim.Second}
	for sc := 0; sc < schedules; sc++ {
		rnd := rng.New(uint64(1000 + sc))
		n := 3 + rnd.Intn(6)
		got, want := newGossipStack(n, uint64(sc), false), newGossipStack(n, uint64(sc), true)
		owned := make([][]string, n) // instances each site has registered
		serial := 0
		var split [2][]netsim.SiteID // current partition, if any
		both := func(fn func(st *gossipStack)) { fn(got); fn(want) }
		for step := 0; step < steps; step++ {
			site := rnd.Intn(n)
			pick := func() (string, bool) {
				if len(owned[site]) == 0 {
					return "", false
				}
				return owned[site][rnd.Intn(len(owned[site]))], true
			}
			op := rnd.Intn(10)
			desc := ""
			switch op {
			case 0, 1: // Register a new instance
				serial++
				rec := Record{
					Instance:     fmt.Sprintf("s%d/inst-%d", site, serial),
					Type:         diffTypes[rnd.Intn(len(diffTypes))],
					TTL:          ttls[rnd.Intn(len(ttls))],
					Capabilities: map[string]float64{"level": float64(serial)},
				}
				owned[site] = append(owned[site], rec.Instance)
				desc = "register " + rec.Instance
				both(func(st *gossipStack) { st.dir.registries[st.sites[site]].Register(rec) })
			case 2: // re-Register an existing one, possibly under a new type
				inst, ok := pick()
				if !ok {
					continue
				}
				rec := Record{Instance: inst, Type: diffTypes[rnd.Intn(len(diffTypes))],
					TTL: ttls[rnd.Intn(len(ttls))], Capabilities: map[string]float64{"level": -1}}
				desc = "re-register " + inst
				both(func(st *gossipStack) { st.dir.registries[st.sites[site]].Register(rec) })
			case 3:
				inst, ok := pick()
				if !ok {
					continue
				}
				desc = "renew " + inst
				both(func(st *gossipStack) { st.dir.registries[st.sites[site]].Renew(inst) })
			case 4:
				inst, ok := pick()
				if !ok {
					continue
				}
				desc = "deregister " + inst
				both(func(st *gossipStack) { st.dir.registries[st.sites[site]].Deregister(inst) })
			case 5: // one link down or up
				other := (site + 1 + rnd.Intn(n-1)) % n
				up := rnd.Bool(0.5)
				desc = fmt.Sprintf("link s%d-s%d up=%v", site, other, up)
				both(func(st *gossipStack) { st.net.SetLinkUp(st.sites[site], st.sites[other], up) })
			case 6: // partition, or heal the one in force
				if split[0] != nil {
					desc = "heal"
					both(func(st *gossipStack) { st.net.Heal(split[0], split[1]) })
					split = [2][]netsim.SiteID{}
					break
				}
				cut := 1 + rnd.Intn(n-1)
				perm := rnd.Perm(n)
				for i, p := range perm {
					side := 0
					if i >= cut {
						side = 1
					}
					split[side] = append(split[side], got.sites[p])
				}
				desc = fmt.Sprintf("partition %v | %v", split[0], split[1])
				both(func(st *gossipStack) { st.net.Partition(split[0], split[1]) })
			default: // let gossip run, sometimes past every TTL
				d := waits[rnd.Intn(len(waits))]
				desc = "advance " + d.String()
				both(func(st *gossipStack) { st.advance(t, d) })
			}
			compareStacks(t, got, want, fmt.Sprintf("schedule %d (%d sites) step %d: %s", sc, n, step, desc))
		}
		got.dir.Stop()
		want.dir.Stop()
	}
}

// TestInFlightSnapshotIsNotRewritten: a snapshot that is still on the wire
// when its sender's registry changes must arrive with the contents it was
// sent with, and the sender's next round must carry the new contents.
func TestInFlightSnapshotIsNotRewritten(t *testing.T) {
	eng, net, d := testDirectory(t)
	// ornl-slac is slow, so ornl's push sits on the wire for 600ms, and slac
	// hears from nobody else.
	net.Connect("ornl", "slac", netsim.Link{Latency: 600 * sim.Millisecond})
	net.SetLinkUp("anl", "slac", false)
	d.Start()
	defer d.Stop()
	ornl, slac := d.Registry("ornl"), d.Registry("slac")
	ornl.Register(xrdRecord("ornl/xrd-1", 0.1))

	// First round at 2s; change ornl while its push to slac is in flight.
	if err := eng.RunUntil(2*sim.Second + 100*sim.Millisecond); err != nil {
		t.Fatal(err)
	}
	ornl.Register(xrdRecord("ornl/xrd-2", 0.2))
	ornl.Renew("ornl/xrd-1")
	_ = ornl.snapshot() // what any sync handled meanwhile does: export the new set
	if err := eng.RunUntil(2*sim.Second + 500*sim.Millisecond); err != nil {
		t.Fatal(err)
	}
	if got, ok := d.Registry("anl").Resolve("ornl/xrd-1"); !ok || got.Version != 1 {
		t.Fatalf("anl should hold xrd-1 v1 from the first round, got %+v ok=%v", got, ok)
	}
	if _, ok := slac.Resolve("ornl/xrd-1"); ok {
		t.Fatal("slow push arrived early; the test's timing assumptions are off")
	}
	// The old snapshot lands at 2.6s: exactly xrd-1 at version 1.
	if err := eng.RunUntil(2*sim.Second + 700*sim.Millisecond); err != nil {
		t.Fatal(err)
	}
	if got, ok := slac.Resolve("ornl/xrd-1"); !ok || got.Version != 1 {
		t.Fatalf("slac should have merged the snapshot as sent (xrd-1 v1), got %+v ok=%v", got, ok)
	}
	if _, ok := slac.Resolve("ornl/xrd-2"); ok {
		t.Fatal("slac saw xrd-2: the in-flight snapshot was rewritten after it was sent")
	}
	// The next round (4s, landing 4.6s) carries the new contents.
	if err := eng.RunUntil(5 * sim.Second); err != nil {
		t.Fatal(err)
	}
	if got, ok := slac.Resolve("ornl/xrd-1"); !ok || got.Version != 2 {
		t.Fatalf("slac should hold xrd-1 v2 after the next round, got %+v ok=%v", got, ok)
	}
	if _, ok := slac.Resolve("ornl/xrd-2"); !ok {
		t.Fatal("slac should hold xrd-2 after the next round")
	}
}

// TestIsolatedPeerLeasesLapseLikeReference: a site whose links all go down
// hears nobody, so exactly the foreign records it holds lapse, each at the
// virtual instant the reference drops it; the rest of the federation keeps
// re-leasing what it holds (its members still hear each other) and the
// isolated site keeps its own live records.
func TestIsolatedPeerLeasesLapseLikeReference(t *testing.T) {
	const n = 4
	got, want := newGossipStack(n, 9, false), newGossipStack(n, 9, true)
	defer got.dir.Stop()
	defer want.dir.Stop()
	ttls := []sim.Time{6 * sim.Second, 11 * sim.Second, 0, 17 * sim.Second}
	both := func(fn func(st *gossipStack)) { fn(got); fn(want) }
	both(func(st *gossipStack) {
		for i, s := range st.sites {
			st.dir.registries[s].Register(Record{Instance: string(s) + "/a", Type: diffTypes[0], TTL: ttls[i]})
			st.dir.registries[s].Register(Record{Instance: string(s) + "/b", Type: diffTypes[1], TTL: ttls[(i+1)%n]})
		}
		// Long enough to converge and for every merge to be a repeat.
		st.advance(t, 20*sim.Second)
		if !st.dir.Converged() {
			t.Fatal("directory did not converge")
		}
		st.net.Partition(st.sites[:1], st.sites[1:])
	})
	// lapse[instance] = first virtual time s0 no longer resolves it.
	lapses := func(st *gossipStack) map[string]sim.Time {
		out := make(map[string]sim.Time)
		for i := 0; i < 500; i++ { // 50s in 100ms steps
			st.advance(t, 100*sim.Millisecond)
			for _, s := range st.sites {
				for _, suffix := range []string{"/a", "/b"} {
					inst := string(s) + suffix
					if _, seen := out[inst]; seen {
						continue
					}
					if _, ok := st.dir.registries[st.sites[0]].Resolve(inst); !ok {
						out[inst] = st.eng.Now()
					}
				}
			}
		}
		return out
	}
	g, w := lapses(got), lapses(want)
	if !reflect.DeepEqual(g, w) {
		t.Fatalf("lapse times at the isolated site differ\n got  %v\n want %v", g, w)
	}
	if len(g) != 2*(n-1) {
		t.Fatalf("want every foreign record (%d) to lapse at the isolated site, got %v", 2*(n-1), g)
	}
	for inst := range g {
		if inst == "s0/a" || inst == "s0/b" {
			t.Fatalf("the isolated site's own record %s lapsed", inst)
		}
	}
	compareStacks(t, got, want, "after isolation")
	for _, st := range []*gossipStack{got, want} {
		for _, s := range st.sites[1:] {
			if live := st.dir.registries[s].Live(); live != 2*n {
				t.Fatalf("site %s holds %d live records, want all %d: peers that still gossip keep re-leasing", s, live, 2*n)
			}
		}
	}
}
