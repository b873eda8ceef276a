// Profiling acceptance tests: the continuous spine profiler must observe
// the federation without perturbing it (bit-identical virtual trajectory
// with the profiler on or off), its deterministic exports must reproduce
// byte-identically across fixed-seed runs, it must see every event the
// engine fires, and the disabled path must not allocate — the contract that lets the profiler stay on in production.
package aisle

import (
	"bytes"
	"testing"

	"github.com/aisle-sim/aisle/internal/prof"
)

// runProfiledCampaign is runTracedCampaign with the spine profiler on
// (tracing stays on so histogram exemplars carry real trace IDs).
func runProfiledCampaign(t testing.TB) (*Network, *CampaignReport) {
	t.Helper()
	n := New(Config{
		Seed:            7,
		Sites:           []SiteID{"ornl", "anl"},
		Link:            DefaultLink(),
		SharedKnowledge: true,
		Trace:           TraceOptions{Enabled: true},
		Prof:            ProfOptions{Enabled: true},
	})
	t.Cleanup(n.Stop)
	n.Site("ornl").AddInstrument(NewFluidicReactor(n.Eng, n.Rnd, "flow-1", "ornl", Perovskite{}))
	n.Site("anl").AddInstrument(NewFluidicReactor(n.Eng, n.Rnd, "flow-2", "anl", Perovskite{}))
	if err := n.RunFor(3 * Minute); err != nil {
		t.Fatal(err)
	}
	var rep *CampaignReport
	n.RunCampaign(CampaignConfig{
		Name:         "golden",
		Site:         "ornl",
		Model:        Perovskite{},
		Budget:       8,
		Mode:         OrchAgentVerified,
		SynthKind:    KindFlowReactor,
		Parallelism:  2,
		UseKnowledge: true,
	}, func(r *CampaignReport) { rep = r })
	for rep == nil {
		if err := n.RunFor(Hour); err != nil {
			t.Fatal(err)
		}
	}
	if rep.Err != nil {
		t.Fatal(rep.Err)
	}
	return n, rep
}

// TestProfileDeterministic replays the fixed-seed campaign twice with the
// profiler on and requires byte-identical JSON profiles and folded stacks
// (count and virtual weights): every deterministic export is a pure
// function of the virtual trajectory.
func TestProfileDeterministic(t *testing.T) {
	var jsons, counts, virts [2]bytes.Buffer
	for i := range jsons {
		n, _ := runProfiledCampaign(t)
		if err := n.Prof.WriteJSON(&jsons[i]); err != nil {
			t.Fatal(err)
		}
		if err := n.Prof.WriteFolded(&counts[i], prof.WeightCount); err != nil {
			t.Fatal(err)
		}
		if err := n.Prof.WriteFolded(&virts[i], prof.WeightVirtual); err != nil {
			t.Fatal(err)
		}
	}
	if !bytes.Equal(jsons[0].Bytes(), jsons[1].Bytes()) {
		t.Error("two fixed-seed runs produced different JSON profiles")
	}
	if !bytes.Equal(counts[0].Bytes(), counts[1].Bytes()) {
		t.Error("two fixed-seed runs produced different count-weighted folded stacks")
	}
	if !bytes.Equal(virts[0].Bytes(), virts[1].Bytes()) {
		t.Error("two fixed-seed runs produced different virtual-weighted folded stacks")
	}
	if jsons[0].Len() == 0 || counts[0].Len() == 0 {
		t.Fatal("profiler exports are empty on a profiled run")
	}
}

// TestProfilerSeesEveryEvent: every event the engine fires runs inside
// one top-level sim.event region, so the profiler attributes the whole
// event loop and misses no event.
func TestProfilerSeesEveryEvent(t *testing.T) {
	n, _ := runProfiledCampaign(t)
	var regions uint64
	for _, c := range n.Prof.Counts() {
		if c.Site == prof.SiteSimEvent.String() {
			regions = c.Count
		}
	}
	if processed := n.Eng.Processed(); regions == 0 || regions != processed {
		t.Fatalf("%d sim.event regions for %d processed events", regions, processed)
	}
}

// TestProfilerPreservesTrajectory runs the same campaign bare and
// profiled and requires the virtual outcome to match bit-exactly: the
// profiler reads the clock, it never schedules, mutates, or draws
// randomness.
func TestProfilerPreservesTrajectory(t *testing.T) {
	nBare, repBare := runTracedCampaign(t)
	nProf, repProf := runProfiledCampaign(t)
	if repBare.BestValue != repProf.BestValue {
		t.Errorf("best value diverged: %v bare vs %v profiled", repBare.BestValue, repProf.BestValue)
	}
	if repBare.Makespan() != repProf.Makespan() {
		t.Errorf("makespan diverged: %v bare vs %v profiled", repBare.Makespan(), repProf.Makespan())
	}
	if repBare.Executed != repProf.Executed {
		t.Errorf("executed diverged: %d bare vs %d profiled", repBare.Executed, repProf.Executed)
	}
	// The traced span streams must also be identical — the profiler adds
	// no spans and reorders none.
	var a, b bytes.Buffer
	if err := nBare.Tracer.WriteChromeTrace(&a); err != nil {
		t.Fatal(err)
	}
	if err := nProf.Tracer.WriteChromeTrace(&b); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Error("profiling changed the recorded trace")
	}
}

// TestDisabledProfilerStaysNilAndFree: a federation without Config.Prof
// keeps Network.Prof nil, and every method on the nil profiler is
// allocation-free — the production cost of the instrumented spine is one
// pointer test per region.
func TestDisabledProfilerStaysNilAndFree(t *testing.T) {
	n := New(Config{Seed: 1, Sites: []SiteID{"ornl"}, Link: DefaultLink()})
	t.Cleanup(n.Stop)
	if n.Prof != nil {
		t.Fatal("Network.Prof non-nil without Config.Prof.Enabled")
	}
	p := n.Prof
	if allocs := testing.AllocsPerRun(1000, func() {
		r := p.Enter(ProfSite(0))
		p.Sample(ProfSite(1), Second.Std(), 42)
		r.End()
		_ = p.Counts()
		_ = p.Snapshot()
	}); allocs != 0 {
		t.Fatalf("nil profiler allocated %.1f times per op", allocs)
	}
}
