// Package experiments regenerates the paper's quantitative claims. The
// AISLE paper is a roadmap without an evaluation section, so the experiment
// suite treats every numbered milestone claim (see README §"Tests,
// benchmarks, experiments") as a table to reproduce: E1/E2 for M8, E3 for
// M9, E4 for the fluidic-SDL efficiency claim, E5 for the
// decades-to-months framing, E6/E7 for M10-M11, E8-E10 for M5-M7, E11 for
// M12, E12 for the Smart Dope search space, E13 for M2/M3 fault
// tolerance, and E14 for M13/M14.
//
// Every experiment accepts Options and returns telemetry tables; replicas
// run in parallel across a bounded worker pool, each on its own simulation
// engine with a forked random stream, so results are deterministic for a
// given seed regardless of GOMAXPROCS.
package experiments

import (
	"fmt"
	"runtime"
	"sort"

	"github.com/aisle-sim/aisle/internal/telemetry"
)

// Options configures a run of the suite.
type Options struct {
	// Seed drives all randomness.
	Seed uint64
	// Quick shrinks workloads for CI and benchmarks.
	Quick bool
}

// replicas is the replica count per condition: 5, or 2 in Quick mode.
func (o Options) replicas() int { return o.scale(5, 2) }

// scale picks between full and quick workload sizes.
func (o Options) scale(full, quick int) int {
	if o.Quick {
		return quick
	}
	return full
}

// Runner is one experiment: it returns the tables that mirror the claim.
type Runner func(Options) []*telemetry.Table

// registry maps experiment IDs to runners, populated by init functions in
// the per-experiment files.
var registry = map[string]Runner{}

// descriptions holds one-line summaries for listings.
var descriptions = map[string]string{}

func register(id, description string, r Runner) {
	registry[id] = r
	descriptions[id] = description
}

// IDs lists registered experiment IDs in order.
func IDs() []string {
	out := make([]string, 0, len(registry))
	for id := range registry {
		out = append(out, id)
	}
	sort.Strings(out)
	return out
}

// Describe returns an experiment's one-line summary.
func Describe(id string) string { return descriptions[id] }

// Run executes one experiment by ID.
func Run(id string, o Options) ([]*telemetry.Table, error) {
	r, ok := registry[id]
	if !ok {
		return nil, fmt.Errorf("experiments: unknown experiment %q", id)
	}
	return r(o), nil
}

// parMap runs fn for i in [0,n) across a bounded worker pool and returns
// the results in index order. Each fn invocation must be self-contained
// (own engine, own RNG fork) — the pool provides wall-clock parallelism for
// replica fan-out without perturbing determinism.
func parMap[T any](n int, fn func(i int) T) []T {
	out := make([]T, n)
	workers := runtime.GOMAXPROCS(0)
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			out[i] = fn(i)
		}
		return out
	}
	idx := make(chan int)
	done := make(chan struct{})
	for w := 0; w < workers; w++ {
		go func() {
			for i := range idx {
				out[i] = fn(i)
			}
			done <- struct{}{}
		}()
	}
	for i := 0; i < n; i++ {
		idx <- i
	}
	close(idx)
	for w := 0; w < workers; w++ {
		<-done
	}
	return out
}

// meanOf averages a float extractor over replicas.
func meanOf[T any](xs []T, f func(T) float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += f(x)
	}
	return s / float64(len(xs))
}
