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

// refillDigest runs a deep_campaign-shaped decision loop — the Perovskite
// 4-d space, three experiments in flight, one AskBatch(1, fly) refill per
// Tell for 64 steps — and hashes the IEEE bits of every proposed
// coordinate in dimension order. A closing AskBatch(3, fly) pins the
// constant-liar batch path too.
func refillDigest(workers int) uint64 {
	m := twin.Perovskite{}
	space := m.Space()
	b := NewBayes(space, rng.New(42), BayesOpts{ScoreWorkers: workers})
	h := fnv.New64a()
	var buf [8]byte
	record := func(p param.Point) {
		for _, d := range space {
			binary.LittleEndian.PutUint64(buf[:], math.Float64bits(p[d.Name]))
			h.Write(buf[:])
		}
	}
	var fly []param.Point
	for len(fly) < 3 {
		p := b.AskBatch(1, fly)[0]
		record(p)
		fly = append(fly, p)
	}
	for step := 0; step < 64; step++ {
		done := fly[0]
		fly = fly[1:]
		b.Tell(done, m.Eval(done)["plqy"])
		p := b.AskBatch(1, fly)[0]
		record(p)
		fly = append(fly, p)
	}
	for _, p := range b.AskBatch(3, fly) {
		record(p)
	}
	return h.Sum64()
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

// refillAllocBudget is a warm two-worker AskBatch(1, fly) at n=32: three
// fantasy clones and the returned point (map and group each), two result
// slices, the scoring closure, and the fan-out's counter, wait group,
// claim closure and helper goroutine — nothing per candidate.
const refillAllocBudget = 17

// A warm refill allocates a fixed handful of objects, however many
// candidates it scores.
func TestAskRefillAllocations(t *testing.T) {
	bo, fly := refillState(32, BayesOpts{ScoreWorkers: 2})
	bo.AskBatch(1, fly) // grow the pool, scratch and factor
	if got := testing.AllocsPerRun(20, func() { bo.AskBatch(1, fly) }); got > refillAllocBudget {
		t.Fatalf("warm refill allocates %v objects, budget %d", got, refillAllocBudget)
	}
}
