package optimize

import (
	"encoding/binary"
	"hash/fnv"
	"math"
	"runtime"
	"testing"
	"time"

	"github.com/aisle-sim/aisle/internal/param"
	"github.com/aisle-sim/aisle/internal/rng"
	"github.com/aisle-sim/aisle/internal/twin"
)

// refillGolden is the FNV-64a digest of every coordinate refillDigest
// proposes. Any change to the draws, the candidate mapping or the
// posterior arithmetic moves it; only a deliberate change of the
// decisions may re-record it.
const refillGolden uint64 = 0x356026ecc6d50338

// refillDigest runs refillRun at seed 42 and hashes the IEEE bits of
// every proposed coordinate in dimension order. A closing AskBatch(3, fly)
// pins the constant-liar batch path too.
func refillDigest(workers int) uint64 {
	h := fnv.New64a()
	var buf [8]byte
	var space param.Space
	record := func(b *Bayes, p param.Point, _ bool) {
		space = b.space
		for _, d := range space {
			binary.LittleEndian.PutUint64(buf[:], math.Float64bits(p[d.Name]))
			h.Write(buf[:])
		}
	}
	b, fly := refillRun(42, workers, record)
	for _, p := range b.AskBatch(3, fly) {
		record(b, p, false)
	}
	return h.Sum64()
}

// refillRun is a deep_campaign-shaped decision loop: the Perovskite 4-d
// space, three experiments in flight, one AskBatch(1, fly) refill per Tell
// for 64 steps. each sees every proposal and whether the GP scored it (the
// Latin-hypercube warm-up serves the first ones).
func refillRun(seed uint64, workers int, each func(b *Bayes, p param.Point, scored bool)) (*Bayes, []param.Point) {
	m := twin.Perovskite{}
	b := NewBayes(m.Space(), rng.New(seed), BayesOpts{scoreWorkers: workers})
	ask := func(fly []param.Point) []param.Point {
		scored := len(b.initPlan) == 0
		p := b.AskBatch(1, fly)[0]
		each(b, p, scored)
		return append(fly, p)
	}
	var fly []param.Point
	for len(fly) < 3 {
		fly = ask(fly)
	}
	for step := 0; step < 64; step++ {
		done := fly[0]
		fly = fly[1:]
		b.Tell(done, m.Eval(done)["plqy"])
		fly = ask(fly)
	}
	return b, fly
}

// The refill decisions are pinned to a recorded digest, not just to each
// other, at every scoring worker count; and no scoring goroutine outlives
// the ask that started it.
func TestRefillDecisionsGolden(t *testing.T) {
	for _, workers := range []int{1, 2, 4} {
		start := runtime.NumGoroutine()
		if got := refillDigest(workers); got != refillGolden {
			t.Fatalf("workers=%d: refill digest %#x, want %#x", workers, got, refillGolden)
		}
		// A worker that has signalled completion may still be returning;
		// give it a moment before calling it leaked.
		left := runtime.NumGoroutine()
		for i := 0; i < 100 && left > start; i++ {
			time.Sleep(time.Millisecond)
			left = runtime.NumGoroutine()
		}
		if left > start {
			t.Fatalf("workers=%d: %d goroutines outlived the asks", workers, left-start)
		}
	}
}

// refillAllocBudget is a warm two-worker AskBatch(1, fly) at n=32: the
// returned point (map and group), two result slices, the scoring closure,
// and the fan-out's counter, wait group, claim closure and helper goroutine,
// with one object of headroom — nothing per candidate, and no copy of the
// in-flight points the fantasies share.
const refillAllocBudget = 11

// A warm refill allocates a fixed handful of objects, however many
// candidates it scores.
func TestAskRefillAllocations(t *testing.T) {
	bo, fly := refillState(32, BayesOpts{scoreWorkers: 2})
	bo.AskBatch(1, fly) // grow the pool, scratch and factor
	if got := testing.AllocsPerRun(20, func() { bo.AskBatch(1, fly) }); got > refillAllocBudget {
		t.Fatalf("warm refill allocates %v objects, budget %d", got, refillAllocBudget)
	}
}

// The GP engine's warm per-call allocations at the MaxFit window (n=256)
// and the default 576-candidate pool: a refit and a batch prediction reuse
// their storage; an 8-point batch with four in flight allocates its
// fantasies, returned points and scoring fan-out, nothing per candidate.
func TestEngineAllocations(t *testing.T) {
	xs, ys := benchData(256, 4)
	g := NewGP(defaultKernel(4), 1e-4)
	if err := g.Fit(xs, ys); err != nil {
		t.Fatal(err)
	}
	cands, _ := benchData(576, 4)
	mu, va := make([]float64, len(cands)), make([]float64, len(cands))
	var scratch PredictScratch
	bo, fly := refillState(256, BayesOpts{})
	fly = append(fly, benchSpace().Sample(rng.New(17)))
	for _, tc := range []struct {
		name    string
		ceiling float64
		call    func()
	}{
		{"Fit", 64, func() { _ = g.Fit(xs, ys) }},
		{"PredictBatch", 64, func() { g.PredictBatch(cands, mu, va, &scratch) }},
		{"AskBatch(8, 4 in flight)", 164, func() { bo.AskBatch(8, fly) }},
	} {
		got := testing.AllocsPerRun(5, tc.call)
		t.Logf("%s: %v objects", tc.name, got)
		if got > tc.ceiling {
			t.Errorf("warm %s allocates %v objects, ceiling %v", tc.name, got, tc.ceiling)
		}
	}
}
