package discovery

import (
	"fmt"
	"testing"

	"github.com/aisle-sim/aisle/internal/netsim"
	"github.com/aisle-sim/aisle/internal/sim"
)

// convergedStack returns a started n-site directory, two records a site,
// run until every merge is a repeat of one already made (and the bus and
// engine freelists have grown to the round's working set).
func convergedStack(tb testing.TB, n int) *gossipStack {
	tb.Helper()
	st := newGossip(n, 3, false)
	st.Net.FullMesh(st.Sites, netsim.Link{Latency: 15 * sim.Millisecond}) // reconnect without loss
	for _, s := range st.Sites {
		st.dir.registries[s].Register(Record{Instance: string(s) + "/a", Type: diffTypes[0]})
		st.dir.registries[s].Register(Record{Instance: string(s) + "/b", Type: diffTypes[1]})
	}
	st.RunUntil(tb, 10*st.dir.GossipInterval)
	if !st.dir.Converged() {
		tb.Fatal("directory did not converge")
	}
	return st
}

// TestPublishedSnapshotIdentity pins the publish-once rule at the pointer
// level: the same snapshot until the record set changes, then a new one
// with a new slice, the old one left exactly as published.
func TestPublishedSnapshotIdentity(t *testing.T) {
	_, d := testDirectory(t)
	ornl, anl := d.Registry("ornl"), d.Registry("anl")
	ornl.Register(xrdRecord("ornl/xrd-1", 0.1))
	old := ornl.snapshot()
	if ornl.snapshot() != old {
		t.Fatal("an unchanged registry republished")
	}
	oldRec := old.recs[0]

	ornl.Renew("ornl/xrd-1") // swaps the rec pointer without touching gen
	ornl.Register(xrdRecord("ornl/xrd-2", 0.2))
	next := ornl.snapshot()
	if next == old || &next.recs[0] == &old.recs[0] {
		t.Fatal("a changed registry must publish a new snapshot with a new slice")
	}
	if len(old.recs) != 1 || old.recs[0] != oldRec || oldRec.Version != 1 {
		t.Fatalf("published snapshot was written after publication: %v", old.recs)
	}
	if len(next.recs) != 2 {
		t.Fatalf("new snapshot has %d records, want 2", len(next.recs))
	}

	// Delivering the old snapshot merges the old contents; a repeat of it
	// is recognised, and still re-leases.
	if got := anl.merge(old); got != 1 {
		t.Fatalf("first merge accepted %d records, want 1", got)
	}
	if got := anl.merge(old); got != 0 {
		t.Fatalf("repeat merge accepted %d records, want 0", got)
	}
	if p := anl.peers["ornl"]; p.seen != old || len(p.leased) != 1 {
		t.Fatalf("repeat walk not remembered: %+v", p)
	}
	if _, ok := anl.Resolve("ornl/xrd-2"); ok {
		t.Fatal("old snapshot carried a record registered after it was published")
	}
	if got := anl.merge(next); got != 2 {
		t.Fatalf("new snapshot accepted %d records, want 2 (xrd-1 v2, xrd-2)", got)
	}
}

// TestConvergedGossipAllocatesNothing: once a directory has converged, a
// whole gossip interval — every site pushing its snapshot to every peer,
// every handler merging and replying, every reply merged — allocates
// nothing: the payloads are published pointers, the merges are recognised
// repeats, and the bus, network and engine recycle their own objects.
func TestConvergedGossipAllocatesNothing(t *testing.T) {
	st := convergedStack(t, 8)
	defer st.dir.Stop()
	rounds := st.dir.metrics.Counter("discovery.gossip_rounds").Value()
	merged := st.dir.metrics.Counter("discovery.merged_records").Value()
	avg := testing.AllocsPerRun(20, func() {
		if err := st.Eng.RunUntil(st.Eng.Now() + st.dir.GossipInterval); err != nil {
			t.Fatal(err)
		}
	})
	if avg != 0 {
		t.Fatalf("a converged gossip interval allocates %v objects, want 0", avg)
	}
	if got := st.dir.metrics.Counter("discovery.gossip_rounds").Value() - rounds; got != 21*8*7 {
		t.Fatalf("measured %d gossip RPCs, want %d", got, 21*8*7)
	}
	if got := st.dir.metrics.Counter("discovery.merged_records").Value(); got != merged {
		t.Fatalf("a converged directory accepted %d more records", got-merged)
	}
}

// TestKnownTombstoneIsNotReaccepted: a tombstone a registry already holds is
// re-leased like a known live record — not re-created, not counted, and gen
// (which invalidates the type index the scheduler routes through) stays put.
// Before the fix, merge's refresh branch excluded tombstones, so every
// sighting replaced the entry: with this 3-site directory and one
// Deregister, 5,000 virtual seconds left discovery.merged_records at 29,932
// and each registry's gen at 9,978. The tombstone stays as long-lived as it
// was (peers keep re-leasing it), which is what stops a healed straggler
// from resurrecting the record.
func TestKnownTombstoneIsNotReaccepted(t *testing.T) {
	st, d := testDirectory(t)
	d.Start()
	reg := d.Registry("ornl")
	reg.Register(xrdRecord("ornl/xrd-1", 0.1))
	st.RunUntil(t, 10*sim.Second)
	if !reg.Deregister("ornl/xrd-1") {
		t.Fatal("deregister failed")
	}
	st.RunUntil(t, 20*sim.Second)
	merged := d.metrics.Counter("discovery.merged_records").Value()
	gens := make([]uint64, len(sites))
	for i, s := range sites {
		gens[i] = d.Registry(s).gen
	}
	st.RunUntil(t, st.Eng.Now()+100*d.GossipInterval)
	if got := d.metrics.Counter("discovery.merged_records").Value(); got != merged {
		t.Fatalf("merged_records moved %d -> %d over 100 rounds of a converged directory", merged, got)
	}
	for i, s := range sites {
		r := d.Registry(s)
		if r.gen != gens[i] {
			t.Fatalf("%s: gen moved %d -> %d", s, gens[i], r.gen)
		}
		if _, ok := r.Resolve("ornl/xrd-1"); ok {
			t.Fatalf("%s: de-registered instance resolves", s)
		}
		if len(r.Browse("_xrd._aisle")) != 0 || r.live() != 0 {
			t.Fatalf("%s: de-registered instance still listed", s)
		}
		if e := r.records["ornl/xrd-1"]; e == nil || !e.rec.Deleted {
			t.Fatalf("%s: tombstone gone; peers should keep re-leasing it", s)
		}
	}
}

// BenchmarkGossipRound is one gossip interval of a converged directory:
// sites*(sites-1) discovery.sync RPCs, each a push, a merge, a reply and a
// merge.
func BenchmarkGossipRound(b *testing.B) {
	for _, n := range []int{16, 64} {
		b.Run(fmt.Sprintf("sites=%d", n), func(b *testing.B) {
			st := convergedStack(b, n)
			defer st.dir.Stop()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := st.Eng.RunUntil(st.Eng.Now() + st.dir.GossipInterval); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// TestInFlightSnapshotIsNotRewritten: a snapshot that is still on the wire
// when its sender's registry changes must arrive with the contents it was
// sent with, and the sender's next round must carry the new contents.
func TestInFlightSnapshotIsNotRewritten(t *testing.T) {
	st, d := testDirectory(t)
	// ornl-slac is slow, so ornl's push sits on the wire for 600ms, and slac
	// hears from nobody else.
	st.Net.Connect("ornl", "slac", netsim.Link{Latency: 600 * sim.Millisecond})
	st.Net.SetLinkUp("anl", "slac", false)
	d.Start()
	ornl, slac := d.Registry("ornl"), d.Registry("slac")
	ornl.Register(xrdRecord("ornl/xrd-1", 0.1))

	// First round at 2s; change ornl while its push to slac is in flight.
	st.RunUntil(t, 2*sim.Second+100*sim.Millisecond)
	ornl.Register(xrdRecord("ornl/xrd-2", 0.2))
	ornl.Renew("ornl/xrd-1")
	_ = ornl.snapshot() // what any sync handled meanwhile does: export the new set
	st.RunUntil(t, 2*sim.Second+500*sim.Millisecond)
	if got, ok := d.Registry("anl").Resolve("ornl/xrd-1"); !ok || got.Version != 1 {
		t.Fatalf("anl should hold xrd-1 v1 from the first round, got %+v ok=%v", got, ok)
	}
	if _, ok := slac.Resolve("ornl/xrd-1"); ok {
		t.Fatal("slow push arrived early; the test's timing assumptions are off")
	}
	// The old snapshot lands at 2.6s: exactly xrd-1 at version 1.
	st.RunUntil(t, 2*sim.Second+700*sim.Millisecond)
	if got, ok := slac.Resolve("ornl/xrd-1"); !ok || got.Version != 1 {
		t.Fatalf("slac should have merged the snapshot as sent (xrd-1 v1), got %+v ok=%v", got, ok)
	}
	if _, ok := slac.Resolve("ornl/xrd-2"); ok {
		t.Fatal("slac saw xrd-2: the in-flight snapshot was rewritten after it was sent")
	}
	// The next round (4s, landing 4.6s) carries the new contents.
	st.RunUntil(t, 5*sim.Second)
	if got, ok := slac.Resolve("ornl/xrd-1"); !ok || got.Version != 2 {
		t.Fatalf("slac should hold xrd-1 v2 after the next round, got %+v ok=%v", got, ok)
	}
	if _, ok := slac.Resolve("ornl/xrd-2"); !ok {
		t.Fatal("slac should hold xrd-2 after the next round")
	}
}
