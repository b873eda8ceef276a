package knowledge

import (
	"testing"

	"github.com/aisle-sim/aisle/internal/netsim"
	"github.com/aisle-sim/aisle/internal/param"
	"github.com/aisle-sim/aisle/internal/rng"
	"github.com/aisle-sim/aisle/internal/sim"
	"github.com/aisle-sim/aisle/internal/simtest"
	"github.com/aisle-sim/aisle/internal/telemetry"
)

var sites = []netsim.SiteID{"ornl", "anl", "slac"}

func testFed(t *testing.T, shared bool) (*simtest.Stack, *Federation) {
	t.Helper()
	st := simtest.New(rng.New(6), netsim.Link{Latency: 20 * sim.Millisecond}, sites...)
	return st, NewFederation(st.Fab, sites, shared)
}

func pt(t float64) param.Point { return param.Point{"temperature": t, "ratio": 0.5} }

func TestSharedPropagation(t *testing.T) {
	st, fed := testFed(t, true)
	fed.Base("ornl").AddObservation("perovskite", pt(150), 0.8)
	st.RunUntil(t, 5*sim.Second)
	for _, s := range sites {
		if v, ok := fed.Base(s).HasObservation("perovskite", pt(150)); !ok || v != 0.8 {
			t.Fatalf("observation not visible at %s (ok=%v v=%v)", s, ok, v)
		}
	}
	if !fed.Converged() {
		t.Fatal("federation should be converged")
	}
}

func TestIsolatedStaysLocal(t *testing.T) {
	st, fed := testFed(t, false)
	fed.Base("ornl").AddObservation("perovskite", pt(150), 0.8)
	st.RunUntil(t, 5*sim.Second)
	if _, ok := fed.Base("anl").HasObservation("perovskite", pt(150)); ok {
		t.Fatal("isolated mode leaked knowledge")
	}
	if _, ok := fed.Base("ornl").HasObservation("perovskite", pt(150)); !ok {
		t.Fatal("local observation missing")
	}
}

func TestObservationsSortedAndDomainScoped(t *testing.T) {
	st, fed := testFed(t, true)
	b := fed.Base("ornl")
	b.AddObservation("perovskite", pt(150), 0.8)
	b.AddObservation("perovskite", pt(120), 0.5)
	b.AddObservation("alloy", param.Point{"frac_a": 0.5}, 9.0)
	st.RunUntil(t, 3*sim.Second)
	points, values := fed.Base("anl").Observations("perovskite")
	if len(points) != 2 || len(values) != 2 {
		t.Fatalf("got %d perovskite observations", len(points))
	}
	// Deterministic order (sorted by key).
	a1, _ := fed.Base("slac").Observations("perovskite")
	if a1[0].Key() != points[0].Key() {
		t.Fatal("observation order differs across sites")
	}
}

func TestVectorClockDominance(t *testing.T) {
	a := VectorClock{2, 1}
	b := VectorClock{1, 1}
	if !a.Dominates(b) {
		t.Fatal("a should dominate b")
	}
	if b.Dominates(a) {
		t.Fatal("b should not dominate a")
	}
	c := VectorClock{1, 2}
	if a.Dominates(c) || c.Dominates(a) {
		t.Fatal("concurrent clocks should not dominate each other")
	}
	if a.Dominates(a.Copy()) {
		t.Fatal("equal clocks should not strictly dominate")
	}
	// Unequal lengths: a missing tail reads as zeros.
	for _, tc := range []struct {
		v, o       VectorClock
		vDom, oDom bool
	}{
		{VectorClock{2, 1}, VectorClock{2, 1, 0}, false, false}, // equal
		{VectorClock{2, 1}, VectorClock{2, 1, 3}, false, true},
		{VectorClock{2, 1, 3}, VectorClock{1, 1}, true, false},
		{VectorClock{2}, VectorClock{1, 1}, false, false}, // concurrent
		{VectorClock{}, VectorClock{0, 0}, false, false},
		{nil, VectorClock{0, 1}, false, true},
	} {
		if got := tc.v.Dominates(tc.o); got != tc.vDom {
			t.Errorf("%v.Dominates(%v) = %v, want %v", tc.v, tc.o, got, tc.vDom)
		}
		if got := tc.o.Dominates(tc.v); got != tc.oDom {
			t.Errorf("%v.Dominates(%v) = %v, want %v", tc.o, tc.v, got, tc.oDom)
		}
	}
}

func TestNewerVersionWins(t *testing.T) {
	st, fed := testFed(t, true)
	b := fed.Base("ornl")
	b.AddObservation("perovskite", pt(150), 0.5)
	st.RunUntil(t, 3*sim.Second)
	// Re-measure the same point with a better instrument: same key, newer
	// clock.
	b.AddObservation("perovskite", pt(150), 0.82)
	st.RunUntil(t, 6*sim.Second)
	v, ok := fed.Base("slac").HasObservation("perovskite", pt(150))
	if !ok || v != 0.82 {
		t.Fatalf("stale value at slac: %v", v)
	}
}

func TestConcurrentUpdatesResolveDeterministically(t *testing.T) {
	st, fed := testFed(t, true)
	// Two sites measure the same point before seeing each other's result.
	fed.Base("ornl").AddObservation("perovskite", pt(150), 0.6)
	fed.Base("anl").AddObservation("perovskite", pt(150), 0.7)
	st.RunUntil(t, 10*sim.Second)
	want, _ := fed.Base("ornl").HasObservation("perovskite", pt(150))
	if want != 0.7 {
		t.Fatalf("conflict resolution picked %v, want 0.7 (higher value)", want)
	}
	for _, s := range sites {
		v, _ := fed.Base(s).HasObservation("perovskite", pt(150))
		if v != want {
			t.Fatalf("sites disagree after conflict: %s has %v", s, v)
		}
	}
}

func TestPropagationSurvivesLoss(t *testing.T) {
	st := simtest.New(rng.New(7), netsim.Link{Latency: 20 * sim.Millisecond, Loss: 0.4}, sites...)
	fed := NewFederation(st.Fab, sites, true)
	fed.AckTimeout = 200 * sim.Millisecond
	fed.MaxAttempts = 12

	for i := 0; i < 10; i++ {
		fed.Base("ornl").AddObservation("perovskite", pt(100+float64(i)), float64(i)/10)
	}
	st.RunUntil(t, 30*sim.Second)
	for _, s := range sites {
		if n := fed.Base(s).Size(); n != 10 {
			t.Fatalf("%s holds %d/10 insights despite at-least-once delivery", s, n)
		}
	}
}

func TestGetAndNotes(t *testing.T) {
	st, fed := testFed(t, true)
	fed.Base("ornl").Add(Insight{
		Kind: KindNote, Domain: "perovskite",
		Note: "iodide-rich compositions unstable above 200C",
	})
	st.RunUntil(t, 3*sim.Second)
	ins, ok := fed.Base("anl").Get("perovskite/note/iodide-rich compositions unstable above 200C")
	if !ok {
		t.Fatal("note not propagated")
	}
	if ins.Source != "ornl" {
		t.Fatalf("source = %s", ins.Source)
	}
	if _, ok := fed.Base("anl").Get("nonexistent"); ok {
		t.Fatal("phantom insight")
	}
}

func TestQuarantineOutOfBoundsObservation(t *testing.T) {
	st, fed := testFed(t, true)
	fed.Bounds = map[string]SanityBound{"perovskite": {Min: 0, Max: 1}}
	fed.Base("ornl").AddObservation("perovskite", pt(150), 5.0) // impossible PLQY
	fed.Base("ornl").AddObservation("perovskite", pt(120), 0.4) // fine
	st.RunUntil(t, 5*sim.Second)
	// Vetting is receiver-side: the origin keeps its own poison, the peers
	// quarantine it and never expose it to optimizers.
	for _, s := range []netsim.SiteID{"anl", "slac"} {
		if _, ok := fed.Base(s).HasObservation("perovskite", pt(150)); ok {
			t.Fatalf("%s merged an out-of-bounds observation", s)
		}
		if _, ok := fed.Base(s).HasObservation("perovskite", pt(120)); !ok {
			t.Fatalf("%s rejected a sane observation", s)
		}
		q := fed.Base(s).Quarantined()
		if len(q) != 1 || q[0].Value != 5.0 {
			t.Fatalf("%s quarantine = %+v, want the single bad insight", s, q)
		}
		_, values := fed.Base(s).Observations("perovskite")
		for _, v := range values {
			if v < 0 || v > 1 {
				t.Fatalf("%s Observations leaks quarantined value %v", s, v)
			}
		}
	}
	// Publish fans out to every subscriber including the origin's loopback,
	// so three bases vet the bad insight: anl, slac, and ornl itself.
	if got := fed.Metrics().Counter(telemetry.Key("knowledge.quarantined",
		"site", "ornl")).Value(); got != 3 {
		t.Fatalf("knowledge.quarantined{site=ornl} = %d, want 3 (one per subscriber)", got)
	}
}

func TestQuarantineOutOfSpacePoint(t *testing.T) {
	st, fed := testFed(t, true)
	space := param.Space{
		{Name: "temperature", Lo: 60, Hi: 220},
		{Name: "ratio", Lo: 0, Hi: 1},
	}
	fed.Bounds = map[string]SanityBound{"perovskite": {Space: space}}
	fed.Base("ornl").AddObservation("perovskite", pt(500), 0.3) // off the envelope
	st.RunUntil(t, 5*sim.Second)
	if _, ok := fed.Base("anl").HasObservation("perovskite", pt(500)); ok {
		t.Fatal("out-of-space point was merged")
	}
	if q := fed.Base("anl").Quarantined(); len(q) != 1 {
		t.Fatalf("quarantine holds %d insights, want 1", len(q))
	}
}

func TestQuarantineUntrustedSource(t *testing.T) {
	st, fed := testFed(t, true)
	fed.Trusted = func(at, source netsim.SiteID) bool { return source != "slac" }
	fed.Base("slac").AddObservation("perovskite", pt(150), 0.9)
	fed.Base("ornl").AddObservation("perovskite", pt(120), 0.8)
	st.RunUntil(t, 5*sim.Second)
	if _, ok := fed.Base("ornl").HasObservation("perovskite", pt(150)); ok {
		t.Fatal("insight from an untrusted principal was merged")
	}
	if _, ok := fed.Base("slac").HasObservation("perovskite", pt(120)); !ok {
		t.Fatal("trusted traffic should still flow to the distrusted site")
	}
	if q := fed.Base("anl").Quarantined(); len(q) != 1 || q[0].Source != "slac" {
		t.Fatalf("anl quarantine = %+v, want slac's insight", q)
	}
}

func TestQuarantineDoesNotAdvanceClock(t *testing.T) {
	st, fed := testFed(t, true)
	fed.Bounds = map[string]SanityBound{"perovskite": {Min: 0, Max: 1}}
	fed.Base("ornl").AddObservation("perovskite", pt(150), 7.0)
	st.RunUntil(t, 5*sim.Second)
	// A quarantined insight must be causally invisible: subsequent good
	// traffic converges exactly as if the poison never existed.
	fed.Base("ornl").AddObservation("perovskite", pt(130), 0.6)
	st.RunUntil(t, 10*sim.Second)
	for _, s := range sites {
		if _, ok := fed.Base(s).HasObservation("perovskite", pt(130)); !ok {
			t.Fatalf("good observation missing at %s after a quarantine event", s)
		}
	}
	if fed.Base("anl").Size() != fed.Base("slac").Size() {
		t.Fatal("honest sites diverged")
	}
}
