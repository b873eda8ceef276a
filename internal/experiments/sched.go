package experiments

import (
	"fmt"

	"github.com/aisle-sim/aisle/internal/core"
	"github.com/aisle-sim/aisle/internal/instrument"
	"github.com/aisle-sim/aisle/internal/sim"
	"github.com/aisle-sim/aisle/internal/telemetry"
	"github.com/aisle-sim/aisle/internal/twin"
)

func init() {
	register("E15", "sched-saturation: federation scheduler — campaign throughput scaling with batched dispatch on a shared 4-site fleet", runE15)
}

// runE15 is the sched-saturation experiment: many concurrent campaigns
// share a 4-site fluidic-reactor fleet through the federation scheduler,
// and the batched-dispatch knob (CampaignConfig.Parallelism) is the axis.
// At Parallelism 1 each campaign keeps one experiment in flight, so its
// decision latency serializes with instrument time; at higher parallelism
// campaigns keep k experiments in flight, so fleet capacity — not the
// decision loop — sets throughput. The acceptance bar is >=2x campaign
// throughput at Parallelism 8 vs 1.
func runE15(o Options) []*telemetry.Table {
	const nSites = 4
	camps := o.scale(12, 6)
	budget := o.scale(16, 8)
	pars := []int{1, 4, 8}
	reps := o.replicas()

	type result struct {
		cph       float64 // completed campaigns per hour of makespan
		eph       float64 // executed experiments per hour
		hours     float64 // makespan: first submit to last campaign report
		waitS     float64 // mean scheduler queue wait
		steals    float64
		remoteFrc float64 // fraction of dispatches that crossed sites
	}
	run := func(par int) []result {
		return parMap(reps, func(rep int) result {
			ids := siteNames(nSites)
			n := core.New(core.Config{
				Seed:  o.Seed + uint64(rep)*307,
				Sites: ids,
				Link:  core.DefaultLink(),
			})
			defer n.Stop()
			for _, id := range ids {
				s := n.Site(id)
				for k := 0; k < 2; k++ {
					s.AddInstrument(instrument.NewFluidicReactor(
						n.Eng, n.Rnd, fmt.Sprintf("flow-%d-%s", k, id), string(id), twin.Perovskite{}))
				}
			}
			_ = n.RunFor(3 * sim.Minute)

			start := n.Eng.Now()
			finish := start
			done := 0
			var executed int
			for i := 0; i < camps; i++ {
				n.RunCampaign(core.CampaignConfig{
					Name:        fmt.Sprintf("sat-p%d-c%02d", par, i),
					Site:        ids[i%len(ids)],
					Model:       twin.Perovskite{},
					Budget:      budget,
					Mode:        core.OrchAgentVerified,
					SynthKind:   instrument.KindFlowReactor,
					Parallelism: par,
					SeedLabel:   fmt.Sprintf("r%d", rep),
				}, func(r *core.CampaignReport) {
					done++
					executed += r.Executed
					if r.Finished > finish {
						finish = r.Finished
					}
				})
			}
			deadline := n.Eng.Now() + 30*sim.Day
			for done < camps && n.Eng.Now() < deadline {
				_ = n.RunFor(10 * sim.Minute)
			}

			// Throughput counts only campaigns that reported: a replica
			// overrunning the deadline degrades the number instead of
			// silently inflating it.
			res := result{
				hours:  (finish - start).Seconds() / 3600,
				waitS:  n.Metrics.Histogram("sched.wait_s").Mean(),
				steals: float64(n.Metrics.Counter("sched.steals").Value()),
			}
			if res.hours > 0 {
				res.cph = float64(done) / res.hours
				res.eph = float64(executed) / res.hours
			}
			if d := n.Metrics.Counter("sched.dispatched").Value(); d > 0 {
				res.remoteFrc = float64(n.Metrics.Counter("sched.remote_dispatches").Value()) / float64(d)
			}
			return res
		})
	}

	t := &telemetry.Table{
		Name: "E15",
		Caption: fmt.Sprintf(
			"sched-saturation: %d concurrent campaigns x %d experiments on %d sites (2 reactors each; mean of %d replicas)",
			camps, budget, nSites, reps),
		Columns: []string{"parallelism", "campaigns/hr", "experiments/hr",
			"makespan (h)", "mean wait (s)", "cross-site", "steals"},
	}
	for _, par := range pars {
		rs := run(par)
		t.AddRow(par,
			meanOf(rs, func(r result) float64 { return r.cph }),
			meanOf(rs, func(r result) float64 { return r.eph }),
			meanOf(rs, func(r result) float64 { return r.hours }),
			meanOf(rs, func(r result) float64 { return r.waitS }),
			fmt.Sprintf("%.0f%%", 100*meanOf(rs, func(r result) float64 { return r.remoteFrc })),
			meanOf(rs, func(r result) float64 { return r.steals }))
	}
	t.AddNote("throughput scaling: batched dispatch keeps the fleet saturated; acceptance >=2x campaigns/hr at parallelism 8 vs 1")
	return []*telemetry.Table{t}
}
