// Command aisle-bench regenerates the experiment tables that reproduce the
// AISLE paper's milestone claims (see README §"Tests, benchmarks, experiments").
//
// Usage:
//
//	aisle-bench [-quick] [-seed N] [-replicas N] [-list] [experiment IDs...]
//	aisle-bench -gpbench|-tracebench|-chaosbench|-obsbench|-profile
//	aisle-bench -diff old.json new.json
//
// With no IDs, every experiment runs in order. Results print as aligned
// text tables, one per claim, as in README §"Tests, benchmarks, experiments".
//
// The recorder flags regenerate the checked-in BENCH_*.json artifacts,
// all under the unified aisle/bench/v2 schema (internal/bench). -diff
// judges a fresh artifact against a checked-in baseline metric by
// metric using the baseline's own noise bounds, and exits nonzero when
// anything regressed — the CI perf gate.
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"github.com/aisle-sim/aisle/internal/bench"
	"github.com/aisle-sim/aisle/internal/experiments"
)

func main() {
	quick := flag.Bool("quick", false, "shrink workloads (CI mode)")
	seed := flag.Uint64("seed", 42, "experiment seed")
	replicas := flag.Int("replicas", 0, "replicas per condition (0 = default)")
	list := flag.Bool("list", false, "list experiments and exit")
	gpbench := flag.Bool("gpbench", false, "benchmark the GP/BO engine and record BENCH_optimize.json")
	gpmacro := flag.Bool("macro", false, "with -gpbench, include the 200-campaign scheduler macro benchmarks")
	gpout := flag.String("out", "BENCH_optimize.json", "with -gpbench, the report path")
	tracebench := flag.Bool("tracebench", false, "benchmark tracing overhead on the scheduler macro and record BENCH_trace.json")
	traceout := flag.String("traceout", "BENCH_trace.json", "with -tracebench, the report path")
	chaosbench := flag.Bool("chaosbench", false, "run the chaos matrix under invariant checking and record BENCH_chaos.json")
	chaosout := flag.String("chaosout", "BENCH_chaos.json", "with -chaosbench, the report path")
	obsbench := flag.Bool("obsbench", false, "benchmark health-engine overhead and attribution determinism and record BENCH_obs.json")
	obsout := flag.String("obsout", "BENCH_obs.json", "with -obsbench, the report path")
	profile := flag.Bool("profile", false, "benchmark continuous-profiler overhead and attribution on the scheduler macro and record BENCH_profile.json")
	profout := flag.String("profout", "BENCH_profile.json", "with -profile, the report path (folded stacks land next to it)")
	diff := flag.Bool("diff", false, "compare two bench artifacts: aisle-bench -diff old.json new.json")
	flag.Parse()

	if *list {
		for _, id := range experiments.IDs() {
			fmt.Printf("%-5s %s\n", id, experiments.Describe(id))
		}
		return
	}
	if *gpbench {
		if err := runGPBench(*gpout, *gpmacro); err != nil {
			fmt.Fprintf(os.Stderr, "aisle-bench: %v\n", err)
			os.Exit(1)
		}
		return
	}
	if *tracebench {
		if err := runTraceBench(*traceout); err != nil {
			fmt.Fprintf(os.Stderr, "aisle-bench: %v\n", err)
			os.Exit(1)
		}
		return
	}
	if *chaosbench {
		if err := runChaosBench(*chaosout); err != nil {
			fmt.Fprintf(os.Stderr, "aisle-bench: %v\n", err)
			os.Exit(1)
		}
		return
	}
	if *obsbench {
		if err := runObsBench(*obsout); err != nil {
			fmt.Fprintf(os.Stderr, "aisle-bench: %v\n", err)
			os.Exit(1)
		}
		return
	}
	if *profile {
		if err := runProfileBench(*profout); err != nil {
			fmt.Fprintf(os.Stderr, "aisle-bench: %v\n", err)
			os.Exit(1)
		}
		return
	}
	if *diff {
		if err := runDiff(flag.Args()); err != nil {
			fmt.Fprintf(os.Stderr, "aisle-bench: %v\n", err)
			os.Exit(1)
		}
		return
	}

	opts := experiments.Options{Seed: *seed, Quick: *quick, Replicas: *replicas}
	ids := flag.Args()
	if len(ids) == 0 {
		ids = experiments.IDs()
	}

	for _, id := range ids {
		start := time.Now()
		tables, err := experiments.Run(id, opts)
		if err != nil {
			fmt.Fprintf(os.Stderr, "aisle-bench: %v\n", err)
			os.Exit(1)
		}
		for _, t := range tables {
			fmt.Println(t.Render())
		}
		fmt.Printf("[%s completed in %.1fs wall]\n\n", id, time.Since(start).Seconds())
	}
}

// runDiff loads two artifacts, judges new against old, prints the table,
// and errors when any gated metric regressed beyond its noise bounds.
func runDiff(paths []string) error {
	if len(paths) != 2 {
		return fmt.Errorf("-diff wants exactly two paths (old.json new.json), got %d", len(paths))
	}
	old, err := bench.Load(paths[0])
	if err != nil {
		return err
	}
	cur, err := bench.Load(paths[1])
	if err != nil {
		return err
	}
	d, err := bench.Diff(old, cur)
	if err != nil {
		return err
	}
	fmt.Print(d.Render())
	if d.Failed() {
		return fmt.Errorf("%d metric(s) regressed beyond their noise bounds", d.Regressions)
	}
	return nil
}
