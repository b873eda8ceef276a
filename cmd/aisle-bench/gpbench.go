package main

import (
	"fmt"
	"sort"
	"testing"

	"github.com/aisle-sim/aisle/internal/experiments"
	"github.com/aisle-sim/aisle/internal/optimize"
	"github.com/aisle-sim/aisle/internal/param"
	"github.com/aisle-sim/aisle/internal/rng"
)

// benchResult is one benchmark measurement in BENCH_optimize.json.
type benchResult struct {
	NsPerOp     int64
	BytesPerOp  int64
	AllocsPerOp int64
}

// gpWorkload pins the micro-benchmark shape so before/after numbers stay
// comparable: a MaxFit-sized training set, the default candidate pool, and
// a saturated-campaign refill batch.
const (
	gpObs       = 256
	gpCands     = 576
	gpBatch     = 8
	gpInflight  = 4
	gpDims      = 4
	macroCamps  = 200
	macroBudget = 6
)

func gpSpace() param.Space {
	return param.Space{
		{Name: "a", Lo: 0, Hi: 1},
		{Name: "b", Lo: 0, Hi: 1},
		{Name: "c", Lo: 0, Hi: 1},
		{Name: "d", Lo: 0, Hi: 1},
	}
}

func gpData(n int) ([][]float64, []float64) {
	r := rng.New(7)
	xs := make([][]float64, n)
	ys := make([]float64, n)
	for i := range xs {
		xs[i] = make([]float64, gpDims)
		for j := range xs[i] {
			xs[i][j] = r.Float64()
		}
		ys[i] = r.Normal(0, 1)
	}
	return xs, ys
}

// runGPBench measures the GP/BO engine micro benchmarks (and optionally
// the 200-campaign scheduler macro benchmarks) and merges the results into
// the "current" section of the JSON report at outPath, preserving any
// recorded "baseline" section.
func runGPBench(outPath string, includeMacro bool) error {
	results := map[string]benchResult{}

	xs, ys := gpData(gpObs)
	kernel := optimize.Matern52{LengthScale: 0.35 * 1.4142135623730951, Variance: 1}

	results["GPFit"] = record(func(b *testing.B) {
		g := optimize.NewGP(kernel, 1e-4)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := g.Fit(xs, ys); err != nil {
				b.Fatal(err)
			}
		}
	})

	results["GPPredictBatch"] = record(func(b *testing.B) {
		g := optimize.NewGP(kernel, 1e-4)
		if err := g.Fit(xs, ys); err != nil {
			b.Fatal(err)
		}
		cands, _ := gpData(gpCands)
		mu := make([]float64, gpCands)
		va := make([]float64, gpCands)
		var scratch optimize.PredictScratch
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			g.PredictBatch(cands, mu, va, &scratch)
		}
	})

	results["AskBatch"] = record(func(b *testing.B) {
		space := gpSpace()
		bo := optimize.NewBayes(space, rng.New(11), optimize.BayesOpts{})
		r := rng.New(13)
		for i := 0; i < gpObs; i++ {
			p := space.Sample(r)
			bo.Tell(p, r.Normal(0, 1))
		}
		var inflight []param.Point
		for i := 0; i < gpInflight; i++ {
			inflight = append(inflight, space.Sample(r))
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if got := bo.AskBatch(gpBatch, inflight); len(got) != gpBatch {
				b.Fatalf("AskBatch returned %d points", len(got))
			}
		}
	})

	if includeMacro {
		for _, par := range []int{1, 4, 16} {
			par := par
			results[fmt.Sprintf("SchedCampaignsP%d", par)] = record(func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					if _, err := experiments.RunSaturation(experiments.SaturationSpec{
						Seed:        uint64(42 + i),
						Campaigns:   macroCamps,
						Budget:      macroBudget,
						Parallelism: par,
					}); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}

	report := newReport("optimize", map[string]float64{
		"observations": gpObs, "candidates": gpCands,
		"batch": gpBatch, "inflight": gpInflight,
		"macro_campaigns": macroCamps, "macro_budget": macroBudget,
	})
	// The pre-incremental engine's numbers are frozen history (measured
	// at commit 2890663 with the full-refit engine); they ride every
	// regenerated artifact so the incremental speedup stays visible.
	for name, r := range gpBaseline() {
		report.AddGroup("baseline/"+name, "full-refit engine, commit 2890663").
			Add(nsMetric(r.NsPerOp)).
			Add(infoMetric("bytes_per_op", "B", float64(r.BytesPerOp))).
			Add(infoMetric("allocs_per_op", "", float64(r.AllocsPerOp)))
	}
	names := make([]string, 0, len(results))
	for name := range results {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		r := results[name]
		report.AddGroup("current/"+name, "incremental-cholesky engine").
			Add(nsMetric(r.NsPerOp)).
			Add(bytesMetric(r.BytesPerOp)).
			Add(allocsMetric(r.AllocsPerOp))
	}
	if err := writeReport(report, outPath); err != nil {
		return err
	}
	for _, name := range names {
		r := results[name]
		fmt.Printf("  %-18s %12d ns/op %10d B/op %8d allocs/op\n",
			name, r.NsPerOp, r.BytesPerOp, r.AllocsPerOp)
	}
	return nil
}

// gpBaseline is the frozen full-refit measurement set the incremental
// engine is compared against (README §"Tests, benchmarks, experiments").
// The macro rows only exist when -macro recorded them, so only the micro
// rows are pinned here plus the macro rows the original artifact captured.
func gpBaseline() map[string]benchResult {
	return map[string]benchResult{
		"GPFit":            {NsPerOp: 3946232, BytesPerOp: 821745, AllocsPerOp: 517},
		"GPPredictBatch":   {NsPerOp: 19046736, BytesPerOp: 2359296, AllocsPerOp: 1152},
		"AskBatch":         {NsPerOp: 180805934, BytesPerOp: 26500885, AllocsPerOp: 28817},
		"SchedCampaignsP1": {NsPerOp: 608875488},
		"SchedCampaignsP4": {NsPerOp: 1579129425},
		// The baseline engine slowed down with parallelism: every refill
		// refit the surrogate from scratch.
		"SchedCampaignsP16": {NsPerOp: 739804627},
	}
}

func record(fn func(*testing.B)) benchResult {
	r := testing.Benchmark(fn)
	return benchResult{
		NsPerOp:     r.NsPerOp(),
		BytesPerOp:  r.AllocedBytesPerOp(),
		AllocsPerOp: r.AllocsPerOp(),
	}
}
