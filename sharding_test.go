// Root acceptance test for the sharded simulation spine: running the
// saturation workload with per-site PDES shards must reproduce the
// sequential spine's fixed-seed trajectory byte for byte. The comparison
// covers virtual timing (start/finish), work done, and the full metrics
// registry rendered to JSON — any divergence in event order anywhere in the
// stack (scheduler decisions, retries, gossip, knowledge sync) shows up as
// a diff in one of those.
package aisle

import (
	"bytes"
	"testing"

	"github.com/aisle-sim/aisle/internal/experiments"
)

func runSaturationSnapshot(t *testing.T, parallelism int, shards bool) (experiments.SaturationResult, []byte) {
	t.Helper()
	res, err := experiments.RunSaturation(experiments.SaturationSpec{
		Seed:        42,
		Campaigns:   40,
		Budget:      6,
		Parallelism: parallelism,
		Shards:      shards,
	})
	if err != nil {
		t.Fatalf("parallelism %d shards=%v: %v", parallelism, shards, err)
	}
	var buf bytes.Buffer
	if err := res.Metrics.WriteJSON(&buf); err != nil {
		t.Fatalf("snapshot: %v", err)
	}
	return res, buf.Bytes()
}

func TestShardedSpineMatchesSequential(t *testing.T) {
	for _, p := range []int{1, 4, 16} {
		seqRes, seqSnap := runSaturationSnapshot(t, p, false)
		shRes, shSnap := runSaturationSnapshot(t, p, true)

		if seqRes.Start != shRes.Start || seqRes.Finish != shRes.Finish {
			t.Errorf("P%d: timing diverged: sequential [%v, %v] vs sharded [%v, %v]",
				p, seqRes.Start, seqRes.Finish, shRes.Start, shRes.Finish)
		}
		if seqRes.Done != shRes.Done || seqRes.Executed != shRes.Executed {
			t.Errorf("P%d: work diverged: sequential done=%d executed=%d vs sharded done=%d executed=%d",
				p, seqRes.Done, seqRes.Executed, shRes.Done, shRes.Executed)
		}
		if !bytes.Equal(seqSnap, shSnap) {
			t.Errorf("P%d: metrics snapshots differ (%d vs %d bytes)",
				p, len(seqSnap), len(shSnap))
		}
	}
}

// TestRouteProbesPerDispatchBounded holds the scheduler's waste ratio on a
// saturated federation (4 sites, 40 campaigns, 4 experiments each in
// flight): a pump probes once per distinct blocked requirement, not once per
// queued tenant, so probes stay a small multiple of dispatches however many
// tenants queue: 3.5 here, where the probe-every-head pump made 24.6.
func TestRouteProbesPerDispatchBounded(t *testing.T) {
	res, _ := runSaturationSnapshot(t, 4, false)
	probes := res.Metrics.Counter("sched.route_probes").Value()
	dispatched := res.Metrics.Counter("sched.dispatched").Value()
	if dispatched == 0 || res.Metrics.Counter("sched.pumps").Value() == 0 {
		t.Fatalf("nothing went through the scheduler: %d dispatched", dispatched)
	}
	if ratio := float64(probes) / float64(dispatched); ratio > 8 {
		t.Errorf("sched.route_probes / sched.dispatched = %d / %d = %.1f, want <= 8", probes, dispatched, ratio)
	}
}
