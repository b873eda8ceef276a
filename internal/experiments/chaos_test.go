package experiments

import (
	"bytes"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"testing"

	"github.com/aisle-sim/aisle/internal/obs"
	"github.com/aisle-sim/aisle/internal/sim"
)

// dumpHealthEvidence freezes the run's flight recorder and writes the
// snapshot journal plus the incident root-cause report under the directory
// named by AISLE_SNAPSHOT_DIR. CI sets the variable on the race job and
// uploads the directory as an artifact when the job fails, so a red run
// ships the evidence needed to diagnose it. No-op when the variable is
// unset (local runs) or the run's health engine was disabled.
func dumpHealthEvidence(t *testing.T, res ChaosResult, tag string) {
	t.Helper()
	dir := os.Getenv("AISLE_SNAPSHOT_DIR")
	if dir == "" || res.Health == nil {
		return
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Logf("flight recorder: mkdir %s: %v", dir, err)
		return
	}
	// Freeze whatever the ring holds right now: violations snapshot
	// automatically, but a terminal-count mismatch with no violation would
	// otherwise leave the journal unfrozen.
	res.Health.Snapshot("ci:" + tag)
	write := func(name string, fn func(io.Writer) error) {
		f, err := os.Create(filepath.Join(dir, name))
		if err != nil {
			t.Logf("flight recorder: %v", err)
			return
		}
		defer f.Close()
		if err := fn(f); err != nil {
			t.Logf("flight recorder: writing %s: %v", name, err)
		}
	}
	write("snapshots-"+tag+".json", res.Health.WriteSnapshotsJSON)
	write("incidents-"+tag+".json", res.Health.WriteIncidentsJSON)
	t.Logf("flight-recorder evidence for %s written under %s", tag, dir)
}

// TestChaosInvariantsAcrossSeeds is the seeded property test behind E16's
// acceptance bar: 5 seeds x 120 jobs = 600 submissions under randomized
// fault schedules at 30% intensity with the self-healing policy on. Every
// job must reach exactly one terminal callback and every continuous
// invariant must hold.
func TestChaosInvariantsAcrossSeeds(t *testing.T) {
	for s := 0; s < 5; s++ {
		seed := uint64(7000 + s*131)
		res, err := RunChaos(ChaosSpec{
			Seed:      seed,
			Jobs:      120,
			Horizon:   2 * sim.Hour,
			Intensity: 0.30,
			Recovery:  true,
			Health:    obs.Options{Enabled: true},
		})
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		dumpHealthEvidence(t, res, fmt.Sprintf("invariants-seed-%d", seed))
		if got := res.Completed + res.Failed; got != res.Submitted {
			t.Errorf("seed %d: %d terminal outcomes for %d submissions", seed, got, res.Submitted)
		}
		for _, v := range res.Violations {
			t.Errorf("seed %d: invariant violation: %s", seed, v)
		}
		if res.Injections == 0 {
			t.Errorf("seed %d: chaos injected nothing at 30%% intensity", seed)
		}
	}
}

// TestChaosNoFaultDeterministic pins the zero-intensity path: two runs of
// the same seed with chaos disabled must agree exactly, confirming the
// chaos/recovery machinery draws nothing when idle.
func TestChaosNoFaultDeterministic(t *testing.T) {
	run := func() ChaosResult {
		r, err := RunChaos(ChaosSpec{Seed: 42, Jobs: 60, Horizon: sim.Hour})
		if err != nil {
			t.Fatal(err)
		}
		return r
	}
	a, b := run(), run()
	if a.Completed != b.Completed || a.Failed != b.Failed || a.P99LatencyS != b.P99LatencyS {
		t.Fatalf("fixed-seed no-fault runs diverged: %+v vs %+v", a, b)
	}
	if a.Injections != 0 {
		t.Fatalf("zero intensity injected %d faults", a.Injections)
	}
	if len(a.Violations) != 0 {
		t.Fatalf("violations in a fault-free run: %v", a.Violations)
	}
}

// chaosCell is one cell of the chaos matrix: seed 2, 300 jobs over three
// virtual hours, with the health engine on so a failing cell leaves its
// flight-recorder evidence.
func chaosCell(intensity float64, recovery bool) ChaosSpec {
	return ChaosSpec{Seed: 2, Jobs: 300, Horizon: 3 * sim.Hour, Intensity: intensity,
		Recovery: recovery, Health: obs.Options{Enabled: true}}
}

// TestChaosRecoveryOutcompletesBaseline is the chaos matrix: fault
// intensity 0, 5, 15 and 30% with the self-healing policy on, plus 15%
// with no recovery. No cell may violate an invariant, and at 15% the
// healed run must complete at least 95% of jobs and strictly beat the
// baseline.
func TestChaosRecoveryOutcompletesBaseline(t *testing.T) {
	if testing.Short() {
		t.Skip("five full chaos cells")
	}
	var healed, base float64
	for _, c := range []struct {
		intensity float64
		recovery  bool
	}{{0, true}, {0.05, true}, {0.15, true}, {0.30, true}, {0.15, false}} {
		res, err := RunChaos(chaosCell(c.intensity, c.recovery))
		if err != nil {
			t.Fatal(err)
		}
		tag := fmt.Sprintf("matrix-%02.0fpct-recovery-%v", c.intensity*100, c.recovery)
		dumpHealthEvidence(t, res, tag)
		for _, v := range res.Violations {
			t.Errorf("%s: invariant violation: %s", tag, v)
		}
		if c.intensity == 0.15 {
			if c.recovery {
				healed = res.CompletionRate
			} else {
				base = res.CompletionRate
			}
		}
	}
	if healed < 0.95 {
		t.Errorf("recovery completion rate %.1f%% < 95%%", healed*100)
	}
	if healed <= base {
		t.Errorf("recovery (%.1f%%) did not beat baseline (%.1f%%)", healed*100, base*100)
	}
}

// TestChaosHealthReportsDeterministic runs the healed 15% cell twice: the
// flight-recorder snapshots and incident reports must serialize
// byte-identically, and fault attribution must cover at least 95% of the
// degraded jobs.
func TestChaosHealthReportsDeterministic(t *testing.T) {
	var snaps, incidents [2]bytes.Buffer
	var res ChaosResult
	for i := range snaps {
		var err error
		if res, err = RunChaos(chaosCell(0.15, true)); err != nil {
			t.Fatal(err)
		}
		if err := res.Health.WriteSnapshotsJSON(&snaps[i]); err != nil {
			t.Fatal(err)
		}
		if err := res.Health.WriteIncidentsJSON(&incidents[i]); err != nil {
			t.Fatal(err)
		}
	}
	if !bytes.Equal(snaps[0].Bytes(), snaps[1].Bytes()) {
		t.Errorf("flight-recorder snapshots differ across identical runs (%d vs %d bytes)",
			snaps[0].Len(), snaps[1].Len())
	}
	if !bytes.Equal(incidents[0].Bytes(), incidents[1].Bytes()) {
		t.Errorf("incident reports differ across identical runs (%d vs %d bytes)",
			incidents[0].Len(), incidents[1].Len())
	}
	att := res.Attribution
	t.Logf("%d B snapshots, %d B incidents; %d of %d degraded jobs attributed",
		snaps[0].Len(), incidents[0].Len(), att.AttributedJobs, att.DegradedJobs)
	if att.DegradedJobs > 0 && att.Coverage < 0.95 {
		t.Errorf("attribution coverage %.1f%% below 95%% (%d/%d degraded jobs attributed)",
			att.Coverage*100, att.AttributedJobs, att.DegradedJobs)
	}
}
