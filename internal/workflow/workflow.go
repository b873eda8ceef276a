// Package workflow implements the cross-facility workflow engine of
// milestones M2 and M3: DAG-structured campaigns whose tasks execute
// asynchronously on simulated infrastructure, with per-task retries and
// backoff, checkpointing for resume-after-crash, and failure accounting —
// the fault-tolerant coordination substrate the paper's orchestration
// dimension requires.
package workflow

import (
	"errors"
	"fmt"

	"github.com/aisle-sim/aisle/internal/sim"
)

// Errors from workflow construction and execution.
var (
	ErrCycle       = errors.New("workflow: dependency cycle")
	ErrUnknownDep  = errors.New("workflow: unknown dependency")
	ErrDuplicateID = errors.New("workflow: duplicate task id")
	ErrTaskFailed  = errors.New("workflow: task failed")
)

// Status is a task's lifecycle state.
type Status int

// Task states.
const (
	StatusPending Status = iota
	StatusReady
	StatusRunning
	StatusDone
	StatusFailed
	StatusSkipped
)

// String renders the status.
func (s Status) String() string {
	return [...]string{"pending", "ready", "running", "done", "failed", "skipped"}[s]
}

// Ctx is passed to running tasks.
type Ctx struct {
	// Attempt is 1-based.
	Attempt int
	// Results holds the outputs of completed dependencies.
	Results map[string]any
	// Now is the virtual start instant of this attempt.
	Now sim.Time
}

// RunFunc executes a task attempt. It must call done exactly once,
// with the task's output or an error. Executions are asynchronous: done may
// be called from a later simulation event.
type RunFunc func(ctx Ctx, done func(result any, err error))

// Task declares one node of the DAG.
type Task struct {
	ID    string
	Needs []string
	Run   RunFunc
	// Retries is the number of additional attempts after a failure.
	Retries int
	// Backoff delays each retry; attempt n waits n*Backoff. Default 0.
	Backoff sim.Time
	// Optional tasks don't fail the workflow; dependents still run with the
	// result absent.
	Optional bool
}

// Spec is a workflow definition.
type Spec struct {
	Name  string
	tasks map[string]*Task
	order []string
}

// NewSpec returns an empty workflow definition.
func NewSpec(name string) *Spec {
	return &Spec{Name: name, tasks: make(map[string]*Task)}
}

// Add appends a task. It returns an error for duplicates or (at Validate
// time) unknown dependencies.
func (s *Spec) Add(t Task) error {
	if _, ok := s.tasks[t.ID]; ok {
		return fmt.Errorf("%w: %s", ErrDuplicateID, t.ID)
	}
	c := t
	c.Needs = append([]string(nil), t.Needs...)
	s.tasks[t.ID] = &c
	s.order = append(s.order, t.ID)
	return nil
}

// MustAdd is Add that panics, for statically-known graphs.
func (s *Spec) MustAdd(t Task) {
	if err := s.Add(t); err != nil {
		panic(err)
	}
}

// Validate checks references and acyclicity.
func (s *Spec) Validate() error {
	for _, t := range s.tasks {
		for _, d := range t.Needs {
			if _, ok := s.tasks[d]; !ok {
				return fmt.Errorf("%w: %s needs %s", ErrUnknownDep, t.ID, d)
			}
		}
	}
	// Kahn's algorithm.
	indeg := make(map[string]int, len(s.tasks))
	for id := range s.tasks {
		indeg[id] = 0
	}
	for _, t := range s.tasks {
		indeg[t.ID] = len(t.Needs)
	}
	var queue []string
	for _, id := range s.order {
		if indeg[id] == 0 {
			queue = append(queue, id)
		}
	}
	seen := 0
	for len(queue) > 0 {
		id := queue[0]
		queue = queue[1:]
		seen++
		for _, t := range s.tasks {
			for _, d := range t.Needs {
				if d == id {
					indeg[t.ID]--
					if indeg[t.ID] == 0 {
						queue = append(queue, t.ID)
					}
				}
			}
		}
	}
	if seen != len(s.tasks) {
		return ErrCycle
	}
	return nil
}

// Checkpoint records completed task results for resume.
type Checkpoint struct {
	Done map[string]any
}

// NewCheckpoint returns an empty checkpoint.
func NewCheckpoint() *Checkpoint { return &Checkpoint{Done: make(map[string]any)} }

// Report summarizes one workflow run.
type Report struct {
	Name      string
	Completed int
	Failed    int
	Skipped   int
	Attempts  int
	Retries   int
	Started   sim.Time
	Finished  sim.Time
	Statuses  map[string]Status
	Results   map[string]any
	Err       error
}

// Makespan is the total virtual duration.
func (r *Report) Makespan() sim.Time { return r.Finished - r.Started }

// Engine executes workflows on a simulation engine.
type Engine struct {
	eng *sim.Engine
}

// NewEngine wraps a simulation engine.
func NewEngine(eng *sim.Engine) *Engine {
	return &Engine{eng: eng}
}

// Run executes the spec; cb receives the final report. A non-nil checkpoint
// seeds completed tasks (resume) and is updated as tasks finish.
func (e *Engine) Run(spec *Spec, checkpoint *Checkpoint, cb func(*Report)) {
	if err := spec.Validate(); err != nil {
		cb(&Report{Name: spec.Name, Err: err})
		return
	}
	if checkpoint == nil {
		checkpoint = NewCheckpoint()
	}
	r := &run{
		engine:     e,
		spec:       spec,
		checkpoint: checkpoint,
		report: &Report{
			Name:     spec.Name,
			Started:  e.eng.Now(),
			Statuses: make(map[string]Status),
			Results:  make(map[string]any),
		},
		cb: cb,
	}
	for _, id := range spec.order {
		r.report.Statuses[id] = StatusPending
	}
	for id, res := range checkpoint.Done {
		if _, ok := spec.tasks[id]; ok {
			r.report.Statuses[id] = StatusDone
			r.report.Results[id] = res
		}
	}
	r.pump()
}

type run struct {
	engine      *Engine
	spec        *Spec
	checkpoint  *Checkpoint
	report      *Report
	cb          func(*Report)
	outstanding int
	finished    bool
}

// ready reports whether a task's dependencies are satisfied (done or
// skipped-optional).
func (r *run) ready(t *Task) bool {
	for _, d := range t.Needs {
		st := r.report.Statuses[d]
		if st != StatusDone && st != StatusSkipped {
			return false
		}
	}
	return true
}

// pump launches every ready pending task, repeating the scan until a fixed
// point; finishes the run when nothing is outstanding.
func (r *run) pump() {
	if r.finished {
		return
	}
	for {
		progress := false
		for _, id := range r.spec.order {
			t := r.spec.tasks[id]
			if r.report.Statuses[id] != StatusPending || !r.ready(t) {
				continue
			}
			// A failed (non-optional) dependency poisons dependents: they
			// are skipped. Checked here because ready() treats only
			// done/skipped.
			if r.poisoned(t) {
				r.report.Statuses[id] = StatusSkipped
				r.report.Skipped++
				progress = true
				continue
			}
			r.report.Statuses[id] = StatusRunning
			r.outstanding++
			progress = true
			r.attempt(t, 1)
		}
		if r.finished {
			return
		}
		if !progress {
			break
		}
	}
	if r.outstanding == 0 {
		r.finish()
	}
}

// poisoned reports whether any transitive dependency failed.
func (r *run) poisoned(t *Task) bool {
	for _, d := range t.Needs {
		if r.report.Statuses[d] == StatusFailed {
			return true
		}
		if r.report.Statuses[d] == StatusSkipped {
			// Skipped because of an upstream failure; optional-skip also
			// lands here, which is conservative but safe for dependents
			// that require the optional output to exist.
			dep := r.spec.tasks[d]
			if !dep.Optional {
				return true
			}
		}
	}
	return false
}

func (r *run) attempt(t *Task, n int) {
	r.report.Attempts++
	if n > 1 {
		r.report.Retries++
	}
	ctx := Ctx{Attempt: n, Results: r.depResults(t), Now: r.engine.eng.Now()}
	called := false
	t.Run(ctx, func(result any, err error) {
		if called {
			panic("workflow: task done called twice")
		}
		called = true
		if err == nil {
			r.report.Statuses[t.ID] = StatusDone
			r.report.Results[t.ID] = result
			r.checkpoint.Done[t.ID] = result
			r.report.Completed++
			r.outstanding--
			r.pump()
			return
		}
		if n <= t.Retries {
			delay := t.Backoff * sim.Time(n)
			r.engine.eng.Schedule(delay, func() { r.attempt(t, n+1) })
			return
		}
		// Terminal failure.
		if t.Optional {
			r.report.Statuses[t.ID] = StatusSkipped
			r.report.Skipped++
		} else {
			r.report.Statuses[t.ID] = StatusFailed
			r.report.Failed++
		}
		r.outstanding--
		r.pump()
	})
}

func (r *run) depResults(t *Task) map[string]any {
	out := make(map[string]any, len(t.Needs))
	for _, d := range t.Needs {
		if v, ok := r.report.Results[d]; ok {
			out[d] = v
		}
	}
	return out
}

func (r *run) finish() {
	if r.finished {
		return
	}
	// Anything still pending is unreachable (poisoned chains already
	// skipped); mark skipped for the report.
	for _, id := range r.spec.order {
		if r.report.Statuses[id] == StatusPending {
			r.report.Statuses[id] = StatusSkipped
			r.report.Skipped++
		}
	}
	r.finished = true
	r.report.Finished = r.engine.eng.Now()
	if r.report.Failed > 0 {
		r.report.Err = fmt.Errorf("%w: %d of %d", ErrTaskFailed, r.report.Failed, len(r.spec.tasks))
	}
	r.cb(r.report)
}
