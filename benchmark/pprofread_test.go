package main

import (
	"math"
	"testing"
	"time"

	"github.com/aisle-sim/aisle/internal/optimize"
	"github.com/aisle-sim/aisle/internal/sim"
	"github.com/aisle-sim/aisle/internal/telemetry"
)

// spinTelemetry burns CPU in internal/telemetry from inside a sim event, so
// every sample has an internal/sim frame beneath the telemetry one.
func spinTelemetry(d time.Duration) {
	eng := sim.NewEngine()
	h := telemetry.NewRegistry().Histogram("spin")
	stop := time.Now().Add(d)
	var tick func()
	tick = func() {
		for i := 0; i < 20000; i++ {
			h.Observe(float64(i%997) * 1e-3)
		}
		if time.Now().Before(stop) {
			eng.Schedule(sim.Millisecond, tick)
		}
	}
	eng.Schedule(0, tick)
	_ = eng.Run()
}

// spinOptimize burns CPU in internal/optimize: repeated GP fits.
func spinOptimize(d time.Duration) {
	const n, dim = 60, 4
	xs := make([][]float64, n)
	ys := make([]float64, n)
	for i := range xs {
		xs[i] = make([]float64, dim)
		for j := range xs[i] {
			xs[i][j] = math.Mod(float64(i*7+j*13)*0.137, 1)
		}
		ys[i] = math.Sin(float64(i))
	}
	for stop := time.Now().Add(d); time.Now().Before(stop); {
		gp := optimize.NewGP(optimize.Matern52{LengthScale: 0.3, Variance: 1}, 1e-4)
		_ = gp.Fit(xs, ys)
	}
}

// TestAttributeInnermostModuleFrame profiles a known two-package spin and
// checks the attribution rule: a sample belongs to its innermost module
// frame, not to every module frame on its stack, and the shares sum to 1.
func TestAttributeInnermostModuleFrame(t *testing.T) {
	const each = 400 * time.Millisecond
	shares, samples, err := profiled(func() error {
		spinTelemetry(each)
		spinOptimize(each)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if samples < 50 {
		t.Skipf("only %d samples: the host delivered too few profiling signals to judge", samples)
	}
	sum := 0.0
	for _, s := range shares {
		sum += s
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Errorf("shares sum to %v, want 1", sum)
	}
	// internal/sim is beneath every telemetry sample, yet owns almost nothing.
	if shares["sim"] > 0.1 {
		t.Errorf("sim share %.2f: outer module frames must not be charged", shares["sim"])
	}
	if shares[bucketRuntimeOther] > 0.5 {
		// Under -race most samples land in the detector's own frames, which
		// the profiler cannot unwind to a Go caller.
		t.Skipf("%.0f%% of samples have no Go caller: not a profile of the spins", shares[bucketRuntimeOther]*100)
	}
	if shares["telemetry"] < 0.25 || shares["optimize"] < 0.25 {
		t.Errorf("two equal spins should each own a large share: telemetry %.2f optimize %.2f (%v)",
			shares["telemetry"], shares["optimize"], shares)
	}
}

func TestBucketOf(t *testing.T) {
	known := map[string]bool{"sim": true, "sched": true}
	for _, c := range []struct {
		stack []string
		want  string
	}{
		{[]string{"runtime.mapaccess1", modulePrefix + "sched.(*Scheduler).route", modulePrefix + "sim.(*Engine).RunUntil", "main.main"}, "sched"},
		{[]string{modulePrefix + "twin.Perovskite.Eval", modulePrefix + "sim.(*Engine).RunUntil"}, bucketOther},
		{[]string{"runtime.memmove", "main.issue", modulePrefix + "sim.(*Engine).RunUntil"}, bucketOther},
		{[]string{"runtime.scanobject", "runtime.gcDrain", "runtime.gcBgMarkWorker"}, bucketGC},
		{[]string{"runtime.futex", "runtime.schedule", "runtime.mcall"}, bucketRuntimeOther},
	} {
		if got := bucketOf(c.stack, known); got != c.want {
			t.Errorf("bucketOf(%v) = %s, want %s", c.stack, got, c.want)
		}
	}
}

func TestParseRejectsGarbage(t *testing.T) {
	if _, err := parseCPUProfile([]byte("not a profile")); err == nil {
		t.Error("garbage accepted")
	}
}
