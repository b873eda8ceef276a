package optimize

import (
	"fmt"
	"testing"

	"github.com/aisle-sim/aisle/internal/rng"
)

func TestAskBatchNonDestructiveAndDiverse(t *testing.T) {
	b := NewBayes(sphereSpace(), rng.New(21), BayesOpts{initSamples: 4})
	// Warm up past the LHS plan so batching engages the GP.
	for i := 0; i < 8; i++ {
		p := b.Ask()
		b.Tell(p, sphere(p))
	}
	nObs := b.N()
	_, bestV := b.Best()

	batch := b.AskBatch(6, nil)
	if len(batch) != 6 {
		t.Fatalf("AskBatch(6) returned %d points", len(batch))
	}
	if b.N() != nObs {
		t.Fatalf("fantasy observations leaked: N went %d -> %d", nObs, b.N())
	}
	if _, v := b.Best(); v != bestV {
		t.Fatalf("AskBatch moved the incumbent: %v -> %v", bestV, v)
	}
	seen := map[string]bool{}
	for _, p := range batch {
		key := fmt.Sprintf("%.6f/%.6f", p["x"], p["y"])
		if seen[key] {
			t.Fatalf("constant liar produced a duplicate point %v in %v", p, batch)
		}
		seen[key] = true
	}
	// The optimizer keeps working after a batch round-trip.
	for _, p := range batch {
		b.Tell(p, sphere(p))
	}
	if b.N() != nObs+6 {
		t.Fatalf("N after telling the batch = %d, want %d", b.N(), nObs+6)
	}
}

func TestAskBatchDegenerateSizes(t *testing.T) {
	b := NewBayes(sphereSpace(), rng.New(22), BayesOpts{})
	if got := b.AskBatch(1, nil); len(got) != 1 {
		t.Fatalf("AskBatch(1) returned %d points", len(got))
	}
	if got := b.AskBatch(0, nil); len(got) != 1 {
		t.Fatalf("AskBatch(0) returned %d points, want the single-ask fallback", len(got))
	}
}

func TestAskBatchAvoidsInflightPoints(t *testing.T) {
	b := NewBayes(sphereSpace(), rng.New(23), BayesOpts{initSamples: 4})
	for i := 0; i < 10; i++ {
		p := b.Ask()
		b.Tell(p, sphere(p))
	}
	// With the incumbent region fantasized as in flight, a refill ask must
	// not return the same point the fleet is already measuring.
	inflight := b.AskBatch(3, nil)
	refill := b.AskBatch(3, inflight)
	if b.N() != 10 {
		t.Fatalf("fantasies leaked: N = %d, want the 10 real observations", b.N())
	}
	for _, r := range refill {
		for _, f := range inflight {
			if r["x"] == f["x"] && r["y"] == f["y"] {
				t.Fatalf("refill re-proposed in-flight point %v (inflight %v, refill %v)",
					r, inflight, refill)
			}
		}
	}
}
