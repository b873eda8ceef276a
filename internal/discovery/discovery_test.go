package discovery

import (
	"testing"

	"github.com/aisle-sim/aisle/internal/bus"
	"github.com/aisle-sim/aisle/internal/netsim"
	"github.com/aisle-sim/aisle/internal/rng"
	"github.com/aisle-sim/aisle/internal/sim"
	"github.com/aisle-sim/aisle/internal/simtest"
)

var sites = []netsim.SiteID{"ornl", "anl", "slac"}

func testDirectory(t *testing.T) (*simtest.Stack, *Directory) {
	t.Helper()
	st := simtest.New(rng.New(5), netsim.Link{Latency: 15 * sim.Millisecond}, sites...)
	d := NewDirectory(st.Fab, sites)
	t.Cleanup(d.Stop) // stops the gossip tickers of a test that called Start
	return st, d
}

func xrdRecord(inst string, resolution float64) Record {
	return Record{
		Instance:     inst,
		Type:         "_xrd._aisle",
		Addr:         bus.Address{Site: "ornl", Name: inst},
		Capabilities: map[string]float64{"resolution": resolution, "throughput": 10},
		Text:         map[string]string{"vendor": "SimCo"},
	}
}

func TestLocalRegisterAndBrowse(t *testing.T) {
	_, d := testDirectory(t)
	reg := d.Registry("ornl")
	reg.Register(xrdRecord("ornl/xrd-1", 0.1))
	reg.Register(xrdRecord("ornl/xrd-2", 0.05))
	got := reg.Browse("_xrd._aisle")
	if len(got) != 2 {
		t.Fatalf("browse returned %d records", len(got))
	}
	if got[0].Instance != "ornl/xrd-1" || got[1].Instance != "ornl/xrd-2" {
		t.Fatalf("browse not sorted: %v", got)
	}
	if _, ok := reg.Resolve("ornl/xrd-1"); !ok {
		t.Fatal("resolve failed")
	}
}

func TestGossipPropagation(t *testing.T) {
	st, d := testDirectory(t)
	d.Start()
	d.Registry("ornl").Register(xrdRecord("ornl/xrd-1", 0.1))

	st.RunUntil(t, 10*sim.Second)
	for _, s := range sites {
		if _, ok := d.Registry(s).Resolve("ornl/xrd-1"); !ok {
			t.Fatalf("record not visible at %s after gossip", s)
		}
	}
	if !d.Converged() {
		t.Fatal("directory should be converged")
	}
}

func TestTombstonePropagation(t *testing.T) {
	st, d := testDirectory(t)
	d.Start()
	reg := d.Registry("ornl")
	reg.Register(xrdRecord("ornl/xrd-1", 0.1))
	st.RunUntil(t, 10*sim.Second)
	if !reg.Deregister("ornl/xrd-1") {
		t.Fatal("deregister failed")
	}
	st.RunUntil(t, 20*sim.Second)
	for _, s := range sites {
		if _, ok := d.Registry(s).Resolve("ornl/xrd-1"); ok {
			t.Fatalf("tombstoned record still visible at %s", s)
		}
	}
}

func TestDeregisterForeignRecordFails(t *testing.T) {
	st, d := testDirectory(t)
	d.Start()
	d.Registry("ornl").Register(xrdRecord("ornl/xrd-1", 0.1))
	st.RunUntil(t, 10*sim.Second)
	if d.Registry("anl").Deregister("ornl/xrd-1") {
		t.Fatal("foreign registry must not deregister another site's record")
	}
}

func TestLeaseExpiryWithoutRenewal(t *testing.T) {
	st, d := testDirectory(t)
	d.DefaultTTL = 6 * sim.Second
	d.Start()
	reg := d.Registry("ornl")
	reg.Register(xrdRecord("ornl/xrd-1", 0.1))

	// Propagate, then stop renewing: remote copies must expire. The origin
	// keeps its own live record (owner records don't self-expire).
	st.RunUntil(t, 5*sim.Second)
	if _, ok := d.Registry("anl").Resolve("ornl/xrd-1"); !ok {
		t.Fatal("record did not propagate")
	}
	// Kill the origin's gossip by partitioning it away; without renewal
	// traffic, anl's lease lapses.
	d.Stop()
	st.RunUntil(t, 20*sim.Second)
	if _, ok := d.Registry("anl").Resolve("ornl/xrd-1"); ok {
		t.Fatal("foreign record survived past TTL without renewal")
	}
	if _, ok := reg.Resolve("ornl/xrd-1"); !ok {
		t.Fatal("owner's live record must not self-expire")
	}
}

func TestRenewKeepsRecordAlive(t *testing.T) {
	st, d := testDirectory(t)
	d.DefaultTTL = 6 * sim.Second
	d.Start()
	reg := d.Registry("ornl")
	reg.Register(xrdRecord("ornl/xrd-1", 0.1))
	stopRenew := st.Eng.Ticker(2*sim.Second, func(int) { reg.Renew("ornl/xrd-1") })
	defer stopRenew()

	st.RunUntil(t, 30*sim.Second)
	if _, ok := d.Registry("slac").Resolve("ornl/xrd-1"); !ok {
		t.Fatal("renewed record expired remotely")
	}
}

func TestPartitionStallsThenHeals(t *testing.T) {
	st, d := testDirectory(t)
	d.Start()
	// Partition slac away before registering.
	st.Net.Partition([]netsim.SiteID{"ornl", "anl"}, []netsim.SiteID{"slac"})
	d.Registry("ornl").Register(xrdRecord("ornl/xrd-1", 0.1))

	st.RunUntil(t, 10*sim.Second)
	if _, ok := d.Registry("anl").Resolve("ornl/xrd-1"); !ok {
		t.Fatal("same-side peer should converge during partition")
	}
	if _, ok := d.Registry("slac").Resolve("ornl/xrd-1"); ok {
		t.Fatal("record crossed a partition")
	}

	st.Net.Heal([]netsim.SiteID{"ornl", "anl"}, []netsim.SiteID{"slac"})
	st.RunUntil(t, 25*sim.Second)
	if _, ok := d.Registry("slac").Resolve("ornl/xrd-1"); !ok {
		t.Fatal("record did not propagate after heal")
	}
}

func TestUpdateWinsByVersion(t *testing.T) {
	st, d := testDirectory(t)
	d.Start()
	reg := d.Registry("ornl")
	reg.Register(xrdRecord("ornl/xrd-1", 0.1))
	st.RunUntil(t, 8*sim.Second)
	// Re-register with improved capability; version bumps.
	reg.Register(xrdRecord("ornl/xrd-1", 0.01))
	st.RunUntil(t, 20*sim.Second)
	got, ok := d.Registry("slac").Resolve("ornl/xrd-1")
	if !ok {
		t.Fatal("record missing")
	}
	if got.Capabilities["resolution"] != 0.01 {
		t.Fatalf("stale version visible remotely: %v", got.Capabilities)
	}
}

func TestNegotiate(t *testing.T) {
	_, d := testDirectory(t)
	reg := d.Registry("ornl")
	reg.Register(Record{Instance: "a", Type: "_synth._aisle",
		Capabilities: map[string]float64{"temp_max": 400, "throughput": 5}})
	reg.Register(Record{Instance: "b", Type: "_synth._aisle",
		Capabilities: map[string]float64{"temp_max": 800, "throughput": 2}})
	reg.Register(Record{Instance: "c", Type: "_synth._aisle",
		Capabilities: map[string]float64{"temp_max": 900, "throughput": 9}})

	got, ok := reg.Negotiate(Requirement{
		Type:    "_synth._aisle",
		MinCaps: map[string]float64{"temp_max": 500},
		Prefer:  "throughput",
	})
	if !ok {
		t.Fatal("negotiation failed")
	}
	if got.Instance != "c" {
		t.Fatalf("negotiated %s, want c (highest throughput above floor)", got.Instance)
	}

	if _, ok := reg.Negotiate(Requirement{Type: "_synth._aisle",
		MinCaps: map[string]float64{"temp_max": 5000}}); ok {
		t.Fatal("impossible requirement satisfied")
	}
	if _, ok := reg.Negotiate(Requirement{Type: "_ghost._aisle"}); ok {
		t.Fatal("unknown type negotiated")
	}
}

func TestConvergedDetectsDivergence(t *testing.T) {
	_, d := testDirectory(t)
	if !d.Converged() {
		t.Fatal("empty directory should be converged")
	}
	d.Registry("ornl").Register(xrdRecord("ornl/xrd-1", 0.1))
	if d.Converged() {
		t.Fatal("directory with unpropagated record reported converged")
	}
}

func TestRecordCloneIsolation(t *testing.T) {
	_, d := testDirectory(t)
	reg := d.Registry("ornl")
	rec := xrdRecord("ornl/xrd-1", 0.1)
	reg.Register(rec)
	rec.Capabilities["resolution"] = 999 // mutate caller's copy
	got, _ := reg.Resolve("ornl/xrd-1")
	if got.Capabilities["resolution"] != 0.1 {
		t.Fatal("registry shares memory with caller")
	}
	got.Capabilities["resolution"] = 777 // mutate resolved copy
	again, _ := reg.Resolve("ornl/xrd-1")
	if again.Capabilities["resolution"] != 0.1 {
		t.Fatal("resolve leaks internal state")
	}
}

func TestLiveCount(t *testing.T) {
	_, d := testDirectory(t)
	reg := d.Registry("ornl")
	reg.Register(xrdRecord("a", 1))
	reg.Register(xrdRecord("b", 1))
	reg.Deregister("a")
	if n := reg.Live(); n != 1 {
		t.Fatalf("Live() = %d, want 1", n)
	}
}
