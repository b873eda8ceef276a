package main

import (
	"fmt"
	"os"
	"runtime"
	"strings"
	"time"

	"github.com/aisle-sim/aisle/internal/bench"
	"github.com/aisle-sim/aisle/internal/experiments"
	"github.com/aisle-sim/aisle/internal/prof"
)

// profModeResult is one profiler mode's measurement in BENCH_profile.json.
type profModeResult struct {
	NsPerOp          int64
	BytesPerOp       int64
	AllocsPerOp      int64
	VirtualMakespanS float64
}

// profDetail is the seed-42 enabled run's profile, kept for the artifact:
// the deterministic snapshot gates regeneration, the measured overlay and
// folded stacks feed perf analysis.
type profDetail struct {
	prof       *prof.Profiler
	runWallNs  int64
	loopWallNs int64 // inside the event loop: the coverage denominator
}

const profBenchIters = 5

// The acceptance gates the bench enforces before writing the report.
const (
	profMaxAllocOverheadPct = 2.0  // enabled profiler on the sched macro
	profMinWallCoverage     = 0.90 // wall time attributed to named subsystems
)

// runProfileBench measures the continuous profiler's overhead on the same
// 200-campaign parallelism-4 scheduler macro as SchedCampaignsP4, once
// disabled (the production fast path) and once fully enabled. The virtual
// trajectories must match bit-exactly — the profiler observes the
// simulation, it never perturbs it — the enabled mode must stay within the
// 2% allocation budget, and the profiler must attribute at least 90% of
// the event loop's wall time to named subsystems (set-up outside the loop —
// building the federation and 200 campaigns — is a fixed cost no region
// covers, so it stays out of both sides of the ratio). Writes
// BENCH_profile.json plus a flamegraph-ready folded-stack artifact next to
// it.
func runProfileBench(outPath string) error {
	dis, _, err := measureProfMode(prof.Options{})
	if err != nil {
		return fmt.Errorf("disabled: %w", err)
	}
	en, detail, err := measureProfMode(prof.Options{Enabled: true})
	if err != nil {
		return fmt.Errorf("enabled: %w", err)
	}
	if en.VirtualMakespanS != dis.VirtualMakespanS {
		return fmt.Errorf("profiler perturbed the simulation: makespan %.9fs profiled vs %.9fs bare",
			en.VirtualMakespanS, dis.VirtualMakespanS)
	}
	overhead := map[string]float64{
		"wall_pct":   pctDelta(en.NsPerOp, dis.NsPerOp),
		"allocs_pct": pctDelta(en.AllocsPerOp, dis.AllocsPerOp),
	}
	if overhead["allocs_pct"] > profMaxAllocOverheadPct {
		return fmt.Errorf("enabled profiler adds %.2f%% allocs on the sched macro (budget %.1f%%)",
			overhead["allocs_pct"], profMaxAllocOverheadPct)
	}
	// Events never nest, so sim.event's wall is exactly what the regions
	// attribute inside the loop; regions entered during set-up are left out.
	var attributed int64
	for _, m := range detail.prof.Measured() {
		if m.Site == prof.SiteSimEvent.String() {
			attributed = m.WallNs
		}
	}
	coverage := float64(attributed) / float64(detail.loopWallNs)
	if coverage < profMinWallCoverage {
		return fmt.Errorf("profiler attributes %.1f%% of the macro's event-loop wall time (floor %.0f%%)",
			coverage*100, profMinWallCoverage*100)
	}

	snap := detail.prof.Snapshot()
	report := newReport("profile", map[string]float64{
		"campaigns": macroCamps, "budget": macroBudget,
		"parallelism": 4, "iters": profBenchIters,
	})
	for _, m := range []struct {
		name string
		r    profModeResult
	}{{"disabled", dis}, {"enabled", en}} {
		report.AddGroup(m.name, "").
			Add(nsMetric(m.r.NsPerOp)).
			Add(bytesMetric(m.r.BytesPerOp)).
			Add(allocsMetric(m.r.AllocsPerOp)).
			Add(makespanMetric(m.r.VirtualMakespanS))
	}
	report.AddGroup("overhead", "enabled vs disabled").
		Add(bench.Metric{Name: "allocs_pct", Value: overhead["allocs_pct"], Unit: "%",
			Better: bench.Lower, AbsNoise: profMaxAllocOverheadPct}).
		Add(infoMetric("wall_pct", "%", overhead["wall_pct"]))
	report.AddGroup("attribution", "seed-42 enabled run").
		Add(bench.Metric{Name: "wall_coverage", Value: coverage,
			Better: bench.Higher, AbsNoise: 1 - profMinWallCoverage}).
		Add(infoMetric("run_wall_ns", "ns", float64(detail.runWallNs))).
		Add(infoMetric("loop_wall_ns", "ns", float64(detail.loopWallNs))).
		Add(infoMetric("attributed_wall_ns", "ns", float64(attributed)))
	// Per-site aggregates from the deterministic snapshot: region and
	// sample counts and virtual time reproduce bit-exactly at a fixed
	// seed, so they gate regeneration; the measured overlay is wall-
	// dependent and rides along as information only.
	for _, s := range snap.Sites {
		report.AddGroup("site/"+s.Site, "subsystem "+s.Subsystem).
			Add(exactMetric("count", float64(s.Count))).
			Add(exactMetric("samples", float64(s.Samples))).
			Add(exactMetric("virtual_ns", float64(s.VirtualNs)))
	}
	for _, m := range detail.prof.Measured() {
		if g := report.Group("site/" + m.Site); g != nil {
			g.Add(infoMetric("wall_ns", "ns", float64(m.WallNs))).
				Add(infoMetric("self_wall_ns", "ns", float64(m.SelfWallNs))).
				Add(infoMetric("alloc_bytes_est", "B", float64(m.AllocBytes)))
		}
	}
	if err := writeReport(report, outPath); err != nil {
		return err
	}

	foldedPath := strings.TrimSuffix(outPath, ".json") + ".folded"
	ff, err := os.Create(foldedPath)
	if err != nil {
		return err
	}
	if err := detail.prof.WriteFolded(ff, prof.WeightWall); err != nil {
		ff.Close()
		return err
	}
	if err := ff.Close(); err != nil {
		return err
	}
	fmt.Printf("wrote %s\n", foldedPath)

	for _, m := range []struct {
		name string
		r    profModeResult
	}{{"disabled", dis}, {"enabled", en}} {
		fmt.Printf("  %-9s %12d ns/op %12d B/op %10d allocs/op  makespan %.0fs\n",
			m.name, m.r.NsPerOp, m.r.BytesPerOp, m.r.AllocsPerOp, m.r.VirtualMakespanS)
	}
	fmt.Printf("  overhead  wall %+.2f%%  allocs %+.2f%%  virtual makespan +0%% (bit-exact)\n",
		overhead["wall_pct"], overhead["allocs_pct"])
	fmt.Printf("  coverage  %.1f%% of event-loop wall attributed across %d live sites\n",
		coverage*100, len(snap.Sites))
	return nil
}

// measureProfMode runs the macro profBenchIters times (seeds 42, 43, ...)
// and averages wall time and allocations; the seed-42 run also yields the
// makespan and, when the profiler is on, the artifact detail.
func measureProfMode(opts prof.Options) (profModeResult, *profDetail, error) {
	var out profModeResult
	var detail *profDetail
	// One untimed warmup so neither mode pays first-run cache effects.
	if _, err := runProfMacroOnce(41, opts); err != nil {
		return out, nil, err
	}
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	start := time.Now()
	for i := 0; i < profBenchIters; i++ {
		iterStart := time.Now()
		res, err := runProfMacroOnce(uint64(42+i), opts)
		if err != nil {
			return out, nil, err
		}
		if i == 0 {
			out.VirtualMakespanS = (res.Finish - res.Start).Seconds()
			if res.Prof != nil {
				detail = &profDetail{prof: res.Prof, runWallNs: time.Since(iterStart).Nanoseconds(),
					loopWallNs: res.LoopWall.Nanoseconds()}
			}
		}
	}
	wall := time.Since(start)
	runtime.ReadMemStats(&after)
	out.NsPerOp = wall.Nanoseconds() / profBenchIters
	out.BytesPerOp = int64(after.TotalAlloc-before.TotalAlloc) / profBenchIters
	out.AllocsPerOp = int64(after.Mallocs-before.Mallocs) / profBenchIters
	return out, detail, nil
}

func runProfMacroOnce(seed uint64, opts prof.Options) (experiments.SaturationResult, error) {
	return experiments.RunSaturation(experiments.SaturationSpec{
		Seed:        seed,
		Campaigns:   macroCamps,
		Budget:      macroBudget,
		Parallelism: 4,
		Prof:        opts,
	})
}
