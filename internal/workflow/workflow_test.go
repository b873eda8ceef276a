package workflow

import (
	"errors"
	"testing"

	"github.com/aisle-sim/aisle/internal/sim"
)

// instant returns a RunFunc that succeeds immediately with result.
func instant(result any) RunFunc {
	return func(ctx Ctx, done func(any, error)) { done(result, nil) }
}

// timed returns a RunFunc that succeeds after d on the engine.
func timed(eng *sim.Engine, d sim.Time, result any) RunFunc {
	return func(ctx Ctx, done func(any, error)) {
		eng.Schedule(d, func() { done(result, nil) })
	}
}

func TestLinearChain(t *testing.T) {
	eng := sim.NewEngine()
	we := NewEngine(eng)
	spec := NewSpec("chain")
	spec.MustAdd(Task{ID: "a", Run: timed(eng, sim.Minute, "A")})
	spec.MustAdd(Task{ID: "b", Needs: []string{"a"}, Run: timed(eng, sim.Minute, "B")})
	spec.MustAdd(Task{ID: "c", Needs: []string{"b"}, Run: timed(eng, sim.Minute, "C")})

	var rep *Report
	we.Run(spec, nil, func(r *Report) { rep = r })
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	if rep == nil || rep.Err != nil {
		t.Fatalf("report: %+v", rep)
	}
	if rep.Completed != 3 {
		t.Fatalf("completed = %d", rep.Completed)
	}
	if rep.Makespan() != 3*sim.Minute {
		t.Fatalf("makespan = %v, want 3m (serial)", rep.Makespan())
	}
}

func TestParallelFanOut(t *testing.T) {
	eng := sim.NewEngine()
	we := NewEngine(eng)
	spec := NewSpec("fan")
	spec.MustAdd(Task{ID: "root", Run: instant(1)})
	for _, id := range []string{"w1", "w2", "w3", "w4"} {
		spec.MustAdd(Task{ID: id, Needs: []string{"root"}, Run: timed(eng, sim.Hour, id)})
	}
	spec.MustAdd(Task{ID: "join", Needs: []string{"w1", "w2", "w3", "w4"}, Run: instant("done")})

	var rep *Report
	we.Run(spec, nil, func(r *Report) { rep = r })
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	if rep.Completed != 6 {
		t.Fatalf("completed = %d", rep.Completed)
	}
	// Parallel branches overlap: makespan ~1h, not 4h.
	if rep.Makespan() != sim.Hour {
		t.Fatalf("makespan = %v, want 1h (parallel)", rep.Makespan())
	}
}

func TestDependencyResultsVisible(t *testing.T) {
	eng := sim.NewEngine()
	we := NewEngine(eng)
	spec := NewSpec("results")
	spec.MustAdd(Task{ID: "measure", Run: instant(42.0)})
	var seen any
	spec.MustAdd(Task{ID: "analyze", Needs: []string{"measure"}, Run: func(ctx Ctx, done func(any, error)) {
		seen = ctx.Results["measure"]
		done(nil, nil)
	}})
	we.Run(spec, nil, func(*Report) {})
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	if seen != 42.0 {
		t.Fatalf("dependency result = %v", seen)
	}
}

func TestRetrySucceedsEventually(t *testing.T) {
	eng := sim.NewEngine()
	we := NewEngine(eng)
	spec := NewSpec("retry")
	attempts := 0
	spec.MustAdd(Task{ID: "flaky", Retries: 3, Backoff: sim.Minute,
		Run: func(ctx Ctx, done func(any, error)) {
			attempts++
			if ctx.Attempt < 3 {
				done(nil, errors.New("transient"))
				return
			}
			done("ok", nil)
		}})
	var rep *Report
	we.Run(spec, nil, func(r *Report) { rep = r })
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	if rep.Err != nil {
		t.Fatalf("workflow failed: %v", rep.Err)
	}
	if attempts != 3 {
		t.Fatalf("attempts = %d", attempts)
	}
	if rep.Retries != 2 {
		t.Fatalf("retries = %d", rep.Retries)
	}
	// Backoff: attempt2 waits 1m, attempt3 waits 2m.
	if rep.Makespan() != 3*sim.Minute {
		t.Fatalf("makespan = %v, want 3m of backoff", rep.Makespan())
	}
}

func TestFailurePoisonsDependents(t *testing.T) {
	eng := sim.NewEngine()
	we := NewEngine(eng)
	spec := NewSpec("poison")
	spec.MustAdd(Task{ID: "bad", Run: func(ctx Ctx, done func(any, error)) {
		done(nil, errors.New("broken"))
	}})
	spec.MustAdd(Task{ID: "child", Needs: []string{"bad"}, Run: instant(1)})
	spec.MustAdd(Task{ID: "grandchild", Needs: []string{"child"}, Run: instant(1)})
	spec.MustAdd(Task{ID: "independent", Run: instant(1)})

	var rep *Report
	we.Run(spec, nil, func(r *Report) { rep = r })
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	if !errors.Is(rep.Err, ErrTaskFailed) {
		t.Fatalf("err = %v", rep.Err)
	}
	if rep.Statuses["bad"] != StatusFailed {
		t.Fatal("bad not failed")
	}
	if rep.Statuses["child"] != StatusSkipped || rep.Statuses["grandchild"] != StatusSkipped {
		t.Fatalf("dependents not skipped: %v", rep.Statuses)
	}
	if rep.Statuses["independent"] != StatusDone {
		t.Fatal("independent task should still run")
	}
	if rep.Failed != 1 {
		t.Fatalf("failed = %d, want 1", rep.Failed)
	}
}

func TestOptionalFailureTolerated(t *testing.T) {
	eng := sim.NewEngine()
	we := NewEngine(eng)
	spec := NewSpec("optional")
	spec.MustAdd(Task{ID: "nice-to-have", Optional: true,
		Run: func(ctx Ctx, done func(any, error)) { done(nil, errors.New("no")) }})
	spec.MustAdd(Task{ID: "main", Run: instant(1)})
	spec.MustAdd(Task{ID: "dependent", Needs: []string{"nice-to-have"}, Run: instant(2)})

	var rep *Report
	we.Run(spec, nil, func(r *Report) { rep = r })
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	if rep.Err != nil {
		t.Fatalf("optional failure should not fail the workflow: %v", rep.Err)
	}
	if rep.Statuses["dependent"] != StatusDone {
		t.Fatalf("dependent of optional-skip should run: %v", rep.Statuses["dependent"])
	}
}

func TestCheckpointResume(t *testing.T) {
	eng := sim.NewEngine()
	we := NewEngine(eng)
	mkSpec := func(failB bool) *Spec {
		spec := NewSpec("resumable")
		spec.MustAdd(Task{ID: "a", Run: instant("A")})
		spec.MustAdd(Task{ID: "b", Needs: []string{"a"}, Run: func(ctx Ctx, done func(any, error)) {
			if failB {
				done(nil, errors.New("crash"))
				return
			}
			done("B", nil)
		}})
		spec.MustAdd(Task{ID: "c", Needs: []string{"b"}, Run: instant("C")})
		return spec
	}
	cp := NewCheckpoint()
	var rep1 *Report
	we.Run(mkSpec(true), cp, func(r *Report) { rep1 = r })
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	if rep1.Err == nil {
		t.Fatal("first run should fail")
	}
	if _, ok := cp.Done["a"]; !ok {
		t.Fatal("checkpoint missing completed task a")
	}

	// Resume: a must not re-run.
	aRuns := 0
	spec2 := NewSpec("resumable")
	spec2.MustAdd(Task{ID: "a", Run: func(ctx Ctx, done func(any, error)) {
		aRuns++
		done("A", nil)
	}})
	spec2.MustAdd(Task{ID: "b", Needs: []string{"a"}, Run: instant("B")})
	spec2.MustAdd(Task{ID: "c", Needs: []string{"b"}, Run: instant("C")})
	var rep2 *Report
	we.Run(spec2, cp, func(r *Report) { rep2 = r })
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	if rep2.Err != nil {
		t.Fatalf("resume failed: %v", rep2.Err)
	}
	if aRuns != 0 {
		t.Fatal("checkpointed task re-ran")
	}
	if rep2.Statuses["c"] != StatusDone {
		t.Fatal("resume did not complete the chain")
	}
}

func TestValidateCycle(t *testing.T) {
	spec := NewSpec("cycle")
	spec.MustAdd(Task{ID: "a", Needs: []string{"b"}, Run: instant(1)})
	spec.MustAdd(Task{ID: "b", Needs: []string{"a"}, Run: instant(1)})
	if err := spec.Validate(); !errors.Is(err, ErrCycle) {
		t.Fatalf("err = %v, want ErrCycle", err)
	}
	eng := sim.NewEngine()
	var rep *Report
	NewEngine(eng).Run(spec, nil, func(r *Report) { rep = r })
	if !errors.Is(rep.Err, ErrCycle) {
		t.Fatal("Run should surface validation error")
	}
}

func TestValidateUnknownDep(t *testing.T) {
	spec := NewSpec("dangling")
	spec.MustAdd(Task{ID: "a", Needs: []string{"ghost"}, Run: instant(1)})
	if err := spec.Validate(); !errors.Is(err, ErrUnknownDep) {
		t.Fatalf("err = %v, want ErrUnknownDep", err)
	}
}

func TestDuplicateID(t *testing.T) {
	spec := NewSpec("dup")
	spec.MustAdd(Task{ID: "a", Run: instant(1)})
	if err := spec.Add(Task{ID: "a", Run: instant(1)}); !errors.Is(err, ErrDuplicateID) {
		t.Fatalf("err = %v, want ErrDuplicateID", err)
	}
}

func TestDiamondDependency(t *testing.T) {
	eng := sim.NewEngine()
	we := NewEngine(eng)
	spec := NewSpec("diamond")
	spec.MustAdd(Task{ID: "src", Run: timed(eng, sim.Minute, 0)})
	spec.MustAdd(Task{ID: "left", Needs: []string{"src"}, Run: timed(eng, 2*sim.Minute, 1)})
	spec.MustAdd(Task{ID: "right", Needs: []string{"src"}, Run: timed(eng, 3*sim.Minute, 2)})
	joinRan := 0
	spec.MustAdd(Task{ID: "join", Needs: []string{"left", "right"},
		Run: func(ctx Ctx, done func(any, error)) {
			joinRan++
			if len(ctx.Results) != 2 {
				t.Errorf("join saw %d results", len(ctx.Results))
			}
			done(nil, nil)
		}})
	var rep *Report
	we.Run(spec, nil, func(r *Report) { rep = r })
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	if joinRan != 1 {
		t.Fatalf("join ran %d times", joinRan)
	}
	if rep.Makespan() != 4*sim.Minute {
		t.Fatalf("makespan = %v, want 4m (1m + max(2m,3m))", rep.Makespan())
	}
}
