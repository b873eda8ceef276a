package experiments

import (
	"fmt"

	"github.com/aisle-sim/aisle/internal/core"
	"github.com/aisle-sim/aisle/internal/instrument"
	"github.com/aisle-sim/aisle/internal/obs"
	"github.com/aisle-sim/aisle/internal/prof"
	"github.com/aisle-sim/aisle/internal/sim"
	"github.com/aisle-sim/aisle/internal/telemetry"
	"github.com/aisle-sim/aisle/internal/trace"
	"github.com/aisle-sim/aisle/internal/twin"
)

// SaturationSpec describes one saturation-fleet run: many concurrent
// perovskite campaigns sharing a fluidic-reactor federation through the
// scheduler. It is the single driver behind the top-level
// BenchmarkSchedCampaignsP* suite and the root contract tests, so the
// benchmarks time the workload whose makespan and allocations the tests
// pin.
type SaturationSpec struct {
	Seed        uint64
	Sites       int // federation sites, 2 reactors each (default 4)
	Campaigns   int
	Budget      int
	Parallelism int
	// Trace enables causal tracing for the run; the zero value keeps the
	// workload on the untraced fast path.
	Trace trace.Options
	// Health enables the federation health engine for the run; the zero
	// value keeps every health hook on its zero-cost path.
	Health obs.Options
	// Prof enables the continuous spine profiler for the run; the zero
	// value keeps every instrumented region at one pointer test.
	Prof prof.Options
}

// SaturationResult reports a completed saturation run in virtual time.
type SaturationResult struct {
	Start    sim.Time // first campaign submitted
	Finish   sim.Time // last campaign reported
	Done     int
	Executed int
	// Digest is the network's trajectory digest when the run ended
	// (netsim.Network.Digest): equal digests mean the same messages at the
	// same instants.
	Digest uint64
	// Tracer holds the run's spans when Spec.Trace enabled tracing (nil
	// otherwise); Metrics is the federation registry either way.
	Tracer  *trace.Tracer
	Metrics *telemetry.Registry
	// Health is the run's health engine when Spec.Health enabled it.
	Health *obs.Engine
	// Prof is the run's spine profiler when Spec.Prof enabled it.
	Prof *prof.Profiler
}

// RunSaturation drives the spec to completion and returns the virtual
// makespan. It errors if any campaign fails or the 60-virtual-day
// deadline passes with campaigns outstanding.
func RunSaturation(spec SaturationSpec) (SaturationResult, error) {
	if spec.Sites <= 0 {
		spec.Sites = 4
	}
	sites := siteNames(spec.Sites)
	n := core.New(core.Config{Seed: spec.Seed, Sites: sites, Link: core.DefaultLink(),
		Trace: spec.Trace, Health: spec.Health, Prof: spec.Prof})
	defer n.Stop()
	for _, id := range sites {
		s := n.Site(id)
		for k := 0; k < 2; k++ {
			s.AddInstrument(instrument.NewFluidicReactor(
				n.Eng, n.Rnd, fmt.Sprintf("flow-%d-%s", k, id), string(id), twin.Perovskite{}))
		}
	}
	if err := n.RunFor(3 * sim.Minute); err != nil {
		return SaturationResult{}, err
	}
	res := SaturationResult{Start: n.Eng.Now(), Finish: n.Eng.Now(),
		Tracer: n.Tracer, Metrics: n.Metrics, Health: n.Health, Prof: n.Prof}
	var failure error
	for c := 0; c < spec.Campaigns; c++ {
		n.RunCampaign(core.CampaignConfig{
			Name:        fmt.Sprintf("bench-%03d", c),
			Site:        sites[c%len(sites)],
			Model:       twin.Perovskite{},
			Budget:      spec.Budget,
			Mode:        core.OrchAgentVerified,
			SynthKind:   instrument.KindFlowReactor,
			Parallelism: spec.Parallelism,
		}, func(r *core.CampaignReport) {
			res.Done++
			res.Executed += r.Executed
			if r.Err != nil && failure == nil {
				failure = fmt.Errorf("campaign %s: %w", r.Name, r.Err)
			}
			if r.Finished > res.Finish {
				res.Finish = r.Finished
			}
		})
	}
	deadline := n.Eng.Now() + 60*sim.Day
	for res.Done < spec.Campaigns && n.Eng.Now() < deadline {
		if err := n.RunFor(sim.Hour); err != nil {
			return res, err
		}
	}
	res.Digest = n.Net.Digest()
	if failure != nil {
		return res, failure
	}
	if res.Done != spec.Campaigns {
		return res, fmt.Errorf("experiments: only %d/%d campaigns completed by the deadline",
			res.Done, spec.Campaigns)
	}
	return res, nil
}
