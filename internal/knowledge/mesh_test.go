package knowledge

import (
	"fmt"
	"testing"

	"github.com/aisle-sim/aisle/internal/netsim"
	"github.com/aisle-sim/aisle/internal/param"
	"github.com/aisle-sim/aisle/internal/rng"
	"github.com/aisle-sim/aisle/internal/sim"
	"github.com/aisle-sim/aisle/internal/simtest"
)

// lossless builds an n-site shared federation over a loss-free full mesh.
func lossless(n int) (*simtest.Stack, *Federation, []netsim.SiteID) {
	ids := make([]netsim.SiteID, n)
	for i := range ids {
		ids[i] = netsim.SiteID(fmt.Sprintf("s%02d", i))
	}
	st := simtest.New(rng.New(9), netsim.Link{Latency: 20 * sim.Millisecond}, ids...)
	return st, NewFederation(st.Fab, ids, true), ids
}

// samplePoints draws n points of a four-dimensional space, the shape of the
// benchmark's perovskite observations.
func samplePoints(n int) []param.Point {
	space := param.Space{{Name: "temperature", Lo: 60, Hi: 220}, {Name: "halide_ratio", Lo: 0, Hi: 1},
		{Name: "residence_s", Lo: 1, Hi: 120}, {Name: "ligand_mM", Lo: 0, Hi: 10}}
	r := rng.New(3)
	points := make([]param.Point, n)
	for i := range points {
		points[i] = space.Sample(r)
	}
	return points
}

// TestInFlightInsightIsNotRewritten: a key re-added at its origin while the
// first version is still on the wire to a slow peer. Every peer must read the
// version that was sent to it until its own delivery of the next one lands.
func TestInFlightInsightIsNotRewritten(t *testing.T) {
	st, fed, ids := lossless(3)
	origin, near, far := fed.Base(ids[0]), fed.Base(ids[1]), fed.Base(ids[2])
	st.Net.Connect(ids[0], ids[2], netsim.Link{Latency: 600 * sim.Millisecond})
	p := pt(150)
	read := func(b *Base) float64 {
		v, ok := b.HasObservation("perovskite", p)
		if !ok {
			return -1
		}
		return v
	}
	expect := func(when string, o, n, f float64) {
		t.Helper()
		if a, b, c := read(origin), read(near), read(far); a != o || b != n || c != f {
			t.Fatalf("%s: origin/near/far read %v/%v/%v, want %v/%v/%v", when, a, b, c, o, n, f)
		}
	}

	origin.AddObservation("perovskite", p, 0.5) // lands near at 20ms, far at 600ms
	st.RunUntil(t, 100*sim.Millisecond)
	expect("first version delivered near", 0.5, 0.5, -1)
	origin.AddObservation("perovskite", p, 0.75) // lands near at 120ms, far at 700ms
	st.RunUntil(t, 110*sim.Millisecond)
	expect("re-added at the origin, second delivery still in flight", 0.75, 0.5, -1)
	st.RunUntil(t, 130*sim.Millisecond)
	expect("second version delivered near", 0.75, 0.75, -1)
	st.RunUntil(t, 650*sim.Millisecond)
	expect("first version delivered far, as sent", 0.75, 0.75, 0.5)
	st.RunUntil(t, 750*sim.Millisecond)
	expect("second version delivered far", 0.75, 0.75, 0.75)

	// One published insight, held by every base that merged it.
	key := "perovskite/obs/" + p.Key()
	if origin.insights[key] != near.insights[key] || origin.insights[key] != far.insights[key] {
		t.Fatal("bases hold different copies of the published insight")
	}
	// What a caller gets is a copy: writing to it changes no base.
	ins, ok := near.Get(key)
	if !ok {
		t.Fatal("Get lost the insight")
	}
	ins.Value, ins.Source, ins.Note, ins.Key = 99, "mallory", "edited", "other"
	for _, b := range []*Base{origin, near, far} {
		if got, _ := b.Get(key); got.Value != 0.75 || got.Source != ids[0] || got.Note != "" || got.Key != key {
			t.Fatalf("a write to Get's copy reached base %s: %+v", b.site, got)
		}
	}
}

// TestQuarantinedInsightIsNotRewritten: the quarantine holds the published
// pointer too; a newer poison under the same key replaces it per base.
func TestQuarantinedInsightIsNotRewritten(t *testing.T) {
	st, fed, ids := lossless(3)
	fed.Bounds = map[string]SanityBound{"perovskite": {Min: 0, Max: 1}}
	fed.Base(ids[0]).AddObservation("perovskite", pt(150), 5)
	st.RunUntil(t, sim.Second)
	fed.Base(ids[0]).AddObservation("perovskite", pt(150), 7)
	if q := fed.Base(ids[1]).Quarantined(); len(q) != 1 || q[0].Value != 5 {
		t.Fatalf("quarantine before the second delivery = %+v, want the first poison", q)
	}
	st.RunUntil(t, 2*sim.Second)
	if q := fed.Base(ids[1]).Quarantined(); len(q) != 1 || q[0].Value != 7 {
		t.Fatalf("quarantine after the second delivery = %+v, want the second poison", q)
	}
}

// TestObservationHasOneKeySpelling: an observation added through Add without
// a Key lands under the key AddObservation and HasObservation use.
func TestObservationHasOneKeySpelling(t *testing.T) {
	_, fed := testFed(t, false)
	b := fed.Base("ornl")
	b.Add(Insight{Kind: KindObservation, Domain: "perovskite", Point: pt(150), Value: 0.4})
	if v, ok := b.HasObservation("perovskite", pt(150)); !ok || v != 0.4 {
		t.Fatalf("HasObservation after a keyless Add = %v, %v; want 0.4, true", v, ok)
	}
	b.AddObservation("perovskite", pt(150), 0.6)
	if b.Size() != 1 {
		t.Fatalf("the same point is held under %d keys, want 1", b.Size())
	}
	if v, _ := b.HasObservation("perovskite", pt(150)); v != 0.6 {
		t.Fatalf("newer observation of the same point reads %v, want 0.6", v)
	}
	// The other derived spellings stay as they were.
	b.Add(Insight{Kind: KindRegion, Domain: "perovskite", Point: pt(150)})
	b.Add(Insight{Kind: KindObservation, Domain: "perovskite", Note: "no point"})
	for _, key := range []string{"perovskite/region/" + pt(150).Key(), "perovskite/observation/no point"} {
		if _, ok := b.Get(key); !ok {
			t.Fatalf("derived key %q missing", key)
		}
	}
}

func TestMergeOfNewKeyAllocatesNothing(t *testing.T) {
	_, fed := testFed(t, false)
	b := fed.Base("anl")
	const n = 512
	batch := make([]*Insight, n)
	for i := range batch {
		batch[i] = &Insight{Key: fmt.Sprintf("d/obs/k%d", i), Kind: KindObservation, Domain: "d",
			Value: float64(i), Source: "ornl", Clock: VectorClock{uint64(i + 1)}}
	}
	// Grow the map (and resolve the counter handle) once; clear keeps the
	// capacity, so what is measured is merge itself.
	for _, ins := range batch {
		b.merge(ins)
	}
	clear(b.insights)
	i := 0
	if avg := testing.AllocsPerRun(n-1, func() { b.merge(batch[i]); i++ }); avg != 0 {
		t.Fatalf("merge of a new key allocates %v times, want 0", avg)
	}
	if b.Size() != n {
		t.Fatalf("measured merges stored %d insights, want %d", b.Size(), n)
	}
}

func TestAddObservationAllocationBudget(t *testing.T) {
	st, fed, ids := lossless(16)
	const runs = 300
	points := samplePoints(2*runs + 1)
	i := 0
	publish := func() {
		fed.Base(ids[i%len(ids)]).AddObservation("perovskite", points[i], 0.5)
		i++
		st.RunFor(t, sim.Second) // 16 deliveries, 16 acks
	}
	for i < runs { // warm the bus/netsim/sim pools and the maps
		publish()
	}
	// Per call, three: the key string, the clock copy and the published
	// Insight — the caller's point is shared, not copied, and nothing is
	// per receiver. The fourth is headroom for the sixteen maps (fifteen
	// peers and the origin) growing now and then.
	avg := testing.AllocsPerRun(runs, publish)
	if avg > 4 {
		t.Fatalf("AddObservation + fan-out to 16 sites allocates %v times per call, want <= 4", avg)
	}
	t.Logf("%v allocations per AddObservation merged at 16 sites", avg)
	if got := fed.Base(ids[5]).Size(); got != i {
		t.Fatalf("peer holds %d insights after %d publishes", got, i)
	}
}

// BenchmarkKnowledgeFanout is one AddObservation merged at every peer: the
// micro baseline for a later batching or delta step.
func BenchmarkKnowledgeFanout(b *testing.B) {
	for _, n := range []int{16, 64} {
		b.Run(fmt.Sprintf("sites=%d", n), func(b *testing.B) {
			st, fed, ids := lossless(n)
			points := samplePoints(1024)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				fed.Base(ids[i%n]).AddObservation("perovskite", points[i%len(points)], float64(i))
				st.RunFor(b, sim.Second)
			}
			b.StopTimer()
			if got := fed.Metrics().Counter("knowledge.merged").Value(); got < int64(b.N*(n-1)) {
				b.Fatalf("%d merges for %d publishes to %d peers", got, b.N, n-1)
			}
		})
	}
}
