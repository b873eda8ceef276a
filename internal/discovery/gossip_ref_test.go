package discovery

import (
	"fmt"
	"sort"
	"testing"

	"github.com/aisle-sim/aisle/internal/bus"
	"github.com/aisle-sim/aisle/internal/netsim"
	"github.com/aisle-sim/aisle/internal/rng"
	"github.com/aisle-sim/aisle/internal/sim"
	"github.com/aisle-sim/aisle/internal/simtest"
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

// gossipStack is a directory on a simtest stack. With ref set, the
// discovery.sync handlers and the gossip tickers are the reference's;
// everything else is the package's own.
type gossipStack struct {
	*simtest.Stack
	dir *Directory
}

func newGossip(n int, seed uint64, ref bool) *gossipStack {
	st := &gossipStack{Stack: simtest.New(rng.New(seed), netsim.Link{Latency: 15 * sim.Millisecond, Loss: 0.03}, simtest.Names(n)...)}
	st.dir = NewDirectory(st.Fab, st.Sites)
	if !ref {
		st.dir.Start()
		return st
	}
	for _, s := range st.Sites {
		reg := st.dir.registries[s]
		st.Fab.Broker(s).RegisterFunc("discovery.sync", 0, func(env *bus.Envelope) (any, error) {
			reg.expire()
			refMerge(reg, env.Payload.([]*Record))
			return refSnapshot(reg), nil
		})
		st.dir.stops = append(st.dir.stops, st.Eng.Ticker(st.dir.GossipInterval, func(int) { refGossipRound(reg) }))
	}
	return st
}

type gossipStep = simtest.Kind[*gossipStack]

// leaseRow is one entry's observable state.
type leaseRow struct {
	Instance           string
	Version            uint64
	Deleted            bool
	UpdatedAt, Expires sim.Time
}

var diffTypes = []string{"_xrd._aisle", "_synth._aisle"}

// gossipPair compares, after every step, per registry the lease rows, gen
// and Browse of both types (which runs expire, like any reader), and the
// directory's counters including the moment each first exists.
func gossipPair(t *testing.T, schedule, n int, seed uint64, rnd *rng.Stream) *simtest.Pair[*gossipStack] {
	return &simtest.Pair[*gossipStack]{
		T: t, Schedule: schedule, Got: newGossip(n, seed, false), Want: newGossip(n, seed, true), Rand: rnd,
		Shared: func(st *gossipStack) any { return st.dir.metrics.Snapshot().Counters },
		View: func(st *gossipStack, site int) any {
			r := st.dir.registries[st.Sites[site]]
			v := struct {
				Browse map[string][]Record
				Rows   []leaseRow
				Gen    uint64
			}{Browse: map[string][]Record{}}
			for _, typ := range diffTypes {
				v.Browse[typ] = r.Browse(typ)
			}
			v.Gen = r.gen
			for name, e := range r.records {
				v.Rows = append(v.Rows, leaseRow{name, e.rec.Version, e.rec.Deleted, e.updatedAt, e.expiresAt})
			}
			sort.Slice(v.Rows, func(i, j int) bool { return v.Rows[i].Instance < v.Rows[j].Instance })
			return v
		},
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
	for sc := 0; sc < schedules; sc++ {
		rnd := rng.New(uint64(1000 + sc))
		n := 3 + rnd.Intn(6)
		p := gossipPair(t, sc, n, uint64(sc), rnd)
		owned := make([][]string, n) // instances each site has registered
		serial := 0
		on := func(site int, fn func(r *Registry)) func(*gossipStack) {
			return func(st *gossipStack) { fn(st.dir.registries[st.Sites[site]]) }
		}
		// owner draws one of the site's instances; act draws the rest.
		owner := func(verb string, act func(inst string) func(r *Registry)) gossipStep {
			return gossipStep{Weight: 1, Draw: func(site int) (string, func(*gossipStack)) {
				if len(owned[site]) == 0 {
					return "", nil
				}
				inst := owned[site][rnd.Intn(len(owned[site]))]
				return verb + " " + inst, on(site, act(inst))
			}}
		}
		p.Steps = []gossipStep{
			{Weight: 2, Draw: func(site int) (string, func(*gossipStack)) {
				serial++
				rec := Record{
					Instance:     fmt.Sprintf("s%d/inst-%d", site, serial),
					Type:         diffTypes[rnd.Intn(len(diffTypes))],
					TTL:          ttls[rnd.Intn(len(ttls))],
					Capabilities: map[string]float64{"level": float64(serial)},
				}
				owned[site] = append(owned[site], rec.Instance)
				return "register " + rec.Instance, on(site, func(r *Registry) { r.Register(rec) })
			}},
			// re-Register an existing one, possibly under a new type
			owner("re-register", func(inst string) func(r *Registry) {
				rec := Record{Instance: inst, Type: diffTypes[rnd.Intn(len(diffTypes))],
					TTL: ttls[rnd.Intn(len(ttls))], Capabilities: map[string]float64{"level": -1}}
				return func(r *Registry) { r.Register(rec) }
			}),
			owner("renew", func(inst string) func(r *Registry) { return func(r *Registry) { r.Renew(inst) } }),
			owner("deregister", func(inst string) func(r *Registry) { return func(r *Registry) { r.Deregister(inst) } }),
			p.Link(1),
			p.Split(1),
			// Let gossip run, sometimes past every TTL; one gossip interval is
			// listed twice so that it is drawn twice as often.
			p.Advance(3, 100*sim.Millisecond, sim.Second, 2*sim.Second, 2*sim.Second,
				5*sim.Second, 9*sim.Second, 35*sim.Second, 70*sim.Second),
		}
		p.Run(steps)
	}
}

// TestIsolatedPeerLeasesLapseLikeReference: a site whose links all go down
// hears nobody, so exactly the foreign records it holds lapse, each at the
// virtual instant the reference drops it (the pair is compared every 100ms);
// the rest of the federation keeps re-leasing what it holds (its members
// still hear each other) and the isolated site keeps its own live records.
func TestIsolatedPeerLeasesLapseLikeReference(t *testing.T) {
	const n = 4
	p := gossipPair(t, 0, n, 9, nil) // its steps are fixed
	ttls := []sim.Time{6 * sim.Second, 11 * sim.Second, 0, 17 * sim.Second}
	p.Apply("register, converge, isolate s0", func(st *gossipStack) {
		for i, s := range st.Sites {
			st.dir.registries[s].Register(Record{Instance: string(s) + "/a", Type: diffTypes[0], TTL: ttls[i]})
			st.dir.registries[s].Register(Record{Instance: string(s) + "/b", Type: diffTypes[1], TTL: ttls[(i+1)%n]})
		}
		st.RunFor(t, 20*sim.Second) // long enough to converge and for every merge to be a repeat
		if !st.dir.Converged() {
			t.Fatal("directory did not converge")
		}
		st.Net.Partition(st.Sites[:1], st.Sites[1:])
	})
	for i := 0; i < 500; i++ { // 50s
		p.Apply("advance 100ms", func(st *gossipStack) { st.RunFor(t, 100*sim.Millisecond) })
	}
	for i, s := range p.Got.Sites {
		for _, inst := range []string{string(s) + "/a", string(s) + "/b"} {
			if _, ok := p.Got.dir.registries["s0"].Resolve(inst); ok != (i == 0) {
				t.Fatalf("after 50s the isolated site resolves %s: %v", inst, ok)
			}
		}
		if live := p.Got.dir.registries[s].live(); i > 0 && live != 2*n {
			t.Fatalf("site %s holds %d live records, want all %d: peers that still gossip keep re-leasing", s, live, 2*n)
		}
	}
}
