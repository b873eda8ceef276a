// The fixed-seed contract: the 200-campaign scheduler macro that
// aisle-bench -profile records has one virtual makespan, with the spine
// profiler off or on, and the profiler's deterministic export of it is
// byte-identical from run to run.
package aisle

import (
	"bytes"
	"fmt"
	"testing"

	"github.com/aisle-sim/aisle/internal/experiments"
	"github.com/aisle-sim/aisle/internal/prof"
)

// contractMakespan is the macro's virtual makespan at seed 42, in seconds.
const contractMakespan = "4381.113353954"

func runContractMacro(t *testing.T, opts prof.Options) experiments.SaturationResult {
	t.Helper()
	res, err := experiments.RunSaturation(experiments.SaturationSpec{
		Seed: 42, Campaigns: 200, Budget: 6, Parallelism: 4, Prof: opts,
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := fmt.Sprintf("%.9f", (res.Finish - res.Start).Seconds()); got != contractMakespan {
		t.Fatalf("makespan %s s with profiler %+v, want %s s", got, opts, contractMakespan)
	}
	return res
}

func TestContractMakespanAndProfile(t *testing.T) {
	runContractMacro(t, prof.Options{})
	var profiles [2]bytes.Buffer
	for i := range profiles {
		res := runContractMacro(t, prof.Options{Enabled: true})
		if err := res.Prof.WriteJSON(&profiles[i]); err != nil {
			t.Fatal(err)
		}
	}
	if profiles[0].Len() == 0 || !bytes.Equal(profiles[0].Bytes(), profiles[1].Bytes()) {
		t.Fatal("two profiled runs of the macro wrote different JSON profiles")
	}
}
