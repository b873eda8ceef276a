// The fixed-seed contract on the 200-campaign scheduler macro: one virtual
// makespan whichever observers are on, each observer within its allocation
// budget, the profiler's deterministic export pinned to a checked-in golden
// (refresh with -update), and the macro's own allocations under a ceiling
// at every parallelism.
package aisle

import (
	"bytes"
	"fmt"
	"runtime"
	"testing"

	"github.com/aisle-sim/aisle/internal/experiments"
	"github.com/aisle-sim/aisle/internal/obs"
	"github.com/aisle-sim/aisle/internal/prof"
	"github.com/aisle-sim/aisle/internal/trace"
)

// contractMakespan is the macro's virtual makespan at seed 42, in seconds.
const contractMakespan = "4381.113353954"

// contractDigest is the macro's trajectory digest at seed 42
// (netsim.Network.Digest): a message that moves off the critical path
// changes it even when the makespan holds.
const contractDigest = 0x2ebb31381f729ad5

// macroSpec is the macro at one seed and per-campaign parallelism, every
// observer off.
func macroSpec(seed uint64, parallelism int) experiments.SaturationSpec {
	return experiments.SaturationSpec{Seed: seed, Campaigns: 200, Budget: 6, Parallelism: parallelism}
}

// runMacro runs spec and counts the heap objects the run allocated.
func runMacro(t *testing.T, spec experiments.SaturationSpec) (experiments.SaturationResult, uint64) {
	t.Helper()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	res, err := experiments.RunSaturation(spec)
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	return res, after.Mallocs - before.Mallocs
}

// Observers read the clock; they never schedule, draw randomness or
// reorder events, so every combination of them keeps the makespan and the
// trajectory digest. The
// profiler's count, sample and virtual-time export of the run is pinned
// (with tracing on too, the profile also counts the tracer's regions).
func TestContractMakespanAndProfile(t *testing.T) {
	tr, he, pr := trace.Options{Enabled: true}, obs.Options{Enabled: true}, prof.Options{Enabled: true}
	for _, tc := range []struct {
		name   string
		trace  trace.Options
		health obs.Options
		prof   prof.Options
	}{
		{"none", trace.Options{}, obs.Options{}, prof.Options{}},
		{"trace", tr, obs.Options{}, prof.Options{}},
		{"health", trace.Options{}, he, prof.Options{}},
		{"prof", trace.Options{}, obs.Options{}, pr},
		{"all", tr, he, pr},
	} {
		spec := macroSpec(42, 4)
		spec.Trace, spec.Health, spec.Prof = tc.trace, tc.health, tc.prof
		res, _ := runMacro(t, spec)
		if got := fmt.Sprintf("%.9f", (res.Finish - res.Start).Seconds()); got != contractMakespan {
			t.Errorf("observers %s: makespan %s s, want %s s", tc.name, got, contractMakespan)
		}
		if res.Digest != contractDigest {
			t.Errorf("observers %s: trajectory digest %#016x, want %#016x", tc.name, res.Digest, contractDigest)
		}
		if tc.name == "prof" {
			var b bytes.Buffer
			if err := res.Prof.WriteJSON(&b); err != nil {
				t.Fatal(err)
			}
			checkGolden(t, "contract_profile.json", b.Bytes())
		}
	}
}

// observerAllocBudget is how much the health engine or the profiler may
// add to the macro's heap objects, over seeds 42–46.
const observerAllocBudget = 0.02

func TestContractObserverAllocations(t *testing.T) {
	var off, health, profiled uint64
	for seed := uint64(42); seed <= 46; seed++ {
		spec := macroSpec(seed, 4)
		_, n := runMacro(t, spec)
		off += n
		spec.Health = obs.Options{Enabled: true}
		_, n = runMacro(t, spec)
		health += n
		spec.Health, spec.Prof = obs.Options{}, prof.Options{Enabled: true}
		_, n = runMacro(t, spec)
		profiled += n
	}
	for _, o := range []struct {
		name string
		n    uint64
	}{{"health", health}, {"prof", profiled}} {
		over := float64(o.n)/float64(off) - 1
		t.Logf("%s: %d objects against %d off (%+.2f%%)", o.name, o.n, off, 100*over)
		if over > observerAllocBudget {
			t.Errorf("%s adds %.2f%% heap objects to the macro, budget %.0f%%",
				o.name, 100*over, 100*observerAllocBudget)
		}
	}
}

// macroAllocCeiling is the most heap objects one seed-42 macro run may
// allocate, by per-campaign parallelism.
var macroAllocCeiling = map[int]uint64{1: 43_955, 4: 45_579, 16: 45_990}

func TestContractMacroAllocations(t *testing.T) {
	if raceEnabled {
		t.Skip("the ceilings count objects of an uninstrumented build")
	}
	for _, p := range []int{1, 4, 16} {
		_, n := runMacro(t, macroSpec(42, p))
		t.Logf("P%d: %d objects", p, n)
		if n > macroAllocCeiling[p] {
			t.Errorf("P%d macro allocates %d objects, ceiling %d", p, n, macroAllocCeiling[p])
		}
	}
}
