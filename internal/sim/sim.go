// Package sim provides the deterministic discrete-event simulation kernel
// that underpins every AISLE substrate: networks, instruments, agents, and
// campaigns all advance on the same virtual clock.
//
// The kernel executes events in a total order defined by (time, sequence
// number), which makes every simulation run bit-reproducible for a given
// seed. The pending set is one hierarchical timer wheel (see wheel.go) with
// pooled event nodes, so Schedule/fire/Cancel allocate nothing in steady
// state.
package sim

import (
	"errors"
	"fmt"
	"math"
	"time"

	"github.com/aisle-sim/aisle/internal/prof"
)

// Time is virtual simulation time in nanoseconds since the start of the run.
// It deliberately mirrors time.Duration semantics so durations and instants
// compose with ordinary arithmetic.
type Time int64

// Common virtual time unit anchors, mirroring the time package.
const (
	Nanosecond  Time = 1
	Microsecond      = 1000 * Nanosecond
	Millisecond      = 1000 * Microsecond
	Second           = 1000 * Millisecond
	Minute           = 60 * Second
	Hour             = 60 * Minute
	Day              = 24 * Hour
)

// MaxTime is the largest representable virtual instant.
const MaxTime = Time(math.MaxInt64)

// Duration converts a standard library duration to virtual time.
func Duration(d time.Duration) Time { return Time(d.Nanoseconds()) }

// Seconds returns t expressed in floating-point seconds.
func (t Time) Seconds() float64 { return float64(t) / float64(Second) }

// Std converts virtual time back to a time.Duration for formatting.
func (t Time) Std() time.Duration { return time.Duration(t) }

// String formats the instant using duration notation (e.g. "1h3m0.25s").
func (t Time) String() string { return time.Duration(t).String() }

// Event is a handle to a scheduled callback. Events are single-shot: after
// firing or cancellation the underlying node returns to the engine's pool
// and the handle goes stale. Handles are generation-checked values, so
// holding (or cancelling) a stale handle is always safe — it is simply a
// no-op. The zero Event is a valid "no event" handle.
type Event struct {
	n   *node
	gen uint32
	at  Time
}

// At reports the virtual instant the event was scheduled for. It remains
// valid after the event fires or is cancelled.
func (e Event) At() Time { return e.at }

// Valid reports whether the handle refers to an event at all (as opposed to
// the zero Event).
func (e Event) Valid() bool { return e.n != nil }

// Pending reports whether the event is still queued: it has neither fired
// nor been cancelled.
func (e Event) Pending() bool { return e.n != nil && e.n.gen == e.gen }

// ErrHorizon is returned by Run when the configured event horizon is reached
// before the event queue drains, usually indicating a runaway feedback loop.
var ErrHorizon = errors.New("sim: event horizon reached")

// Engine is a discrete-event simulation executive. The zero value is ready
// to use; NewEngine is provided for symmetry and future options.
type Engine struct {
	now     Time
	seq     uint64
	q       wheel
	free    *node // node freelist, linked through next
	running bool

	// Horizon bounds the number of events processed in a single Run call.
	// Zero means no bound.
	Horizon uint64

	// Prof, when non-nil, wraps every event callback in a sim.event
	// profiler region, and is the one handle through which every subsystem
	// on this engine opens its own regions. The nil default costs one
	// pointer test per region.
	Prof *prof.Profiler

	processed uint64
}

// NewEngine returns an Engine positioned at virtual time zero.
func NewEngine() *Engine { return &Engine{} }

// Now reports current virtual time.
func (e *Engine) Now() Time { return e.now }

// Processed reports the number of events executed so far.
func (e *Engine) Processed() uint64 { return e.processed }

// Pending reports the number of live events currently queued. Cancelled
// events leave the queue immediately and are not counted.
func (e *Engine) Pending() int { return e.q.count }

// acquire pops a node from the freelist or allocates one.
func (e *Engine) acquire() *node {
	n := e.free
	if n == nil {
		return &node{}
	}
	e.free = n.next
	n.next = nil
	return n
}

// release recycles a completed node. Bumping the generation invalidates
// every outstanding handle before the node is reused.
func (e *Engine) release(n *node) {
	n.gen++
	n.fn = nil
	n.fnA = nil
	n.arg = nil
	n.prev = nil
	n.where = whereFree
	n.next = e.free
	e.free = n
}

// Schedule arranges for fn to run after delay d. Negative delays are
// clamped to zero, which schedules fn for the current instant after all
// already-queued events at that instant.
func (e *Engine) Schedule(d Time, fn func()) Event {
	if d < 0 {
		d = 0
	}
	return e.At(e.now+d, fn)
}

// ScheduleArg is Schedule without the closure: fn is invoked with arg at
// fire time. Hot paths use it with a prebound method value and a pooled
// argument so scheduling allocates nothing.
func (e *Engine) ScheduleArg(d Time, fn func(any), arg any) Event {
	if d < 0 {
		d = 0
	}
	if fn == nil {
		panic("sim: ScheduleArg called with nil function")
	}
	return e.at(e.now+d, nil, fn, arg)
}

// At arranges for fn to run at absolute virtual instant t. Instants in the
// past are clamped to the current time.
func (e *Engine) At(t Time, fn func()) Event {
	if fn == nil {
		panic("sim: At called with nil function")
	}
	return e.at(t, fn, nil, nil)
}

func (e *Engine) at(t Time, fn func(), fnA func(any), arg any) Event {
	if t < e.now {
		t = e.now
	}
	n := e.acquire()
	n.at = t
	n.seq = e.seq
	n.fn = fn
	n.fnA = fnA
	n.arg = arg
	e.seq++
	e.q.insert(n)
	return Event{n: n, gen: n.gen, at: t}
}

// Cancel removes ev from the queue if it has not yet fired. Cancelling a
// fired, already-cancelled, or zero event is a no-op. It reports whether
// the event was actually cancelled by this call.
func (e *Engine) Cancel(ev Event) bool {
	n := ev.n
	if n == nil || n.gen != ev.gen {
		return false
	}
	e.q.remove(n)
	e.release(n)
	return true
}

// fire pops and executes the earliest event, which peek has just
// confirmed exists.
func (e *Engine) fire() {
	n := e.q.popHead()
	if n.at < e.now {
		panic(fmt.Sprintf("sim: time went backwards: %v -> %v", e.now, n.at))
	}
	e.now = n.at
	e.processed++
	fn, fnA, arg := n.fn, n.fnA, n.arg
	e.release(n)
	r := e.Prof.Enter(prof.SiteSimEvent)
	if fnA != nil {
		fnA(arg)
	} else {
		fn()
	}
	r.End()
}

// Run executes events until the queue drains. It returns ErrHorizon if the
// configured horizon is exceeded.
func (e *Engine) Run() error {
	return e.RunUntil(MaxTime)
}

// RunUntil executes events with timestamps <= limit, leaving later events
// queued and the clock advanced to min(limit, time of last event). It
// returns ErrHorizon if the horizon is exceeded.
func (e *Engine) RunUntil(limit Time) error {
	if e.running {
		panic("sim: re-entrant Run")
	}
	e.running = true
	defer func() { e.running = false }()
	var n uint64
	for e.q.peek() && e.q.headAt <= limit {
		e.fire()
		n++
		if e.Horizon > 0 && n >= e.Horizon {
			return ErrHorizon
		}
	}
	if e.now < limit && limit != MaxTime {
		e.now = limit
	}
	return nil
}

// Ticker invokes fn every period until the returned stop function is called.
// The first invocation happens one period from now. fn receives the tick
// index starting at 0.
func (e *Engine) Ticker(period Time, fn func(i int)) (stop func()) {
	if period <= 0 {
		panic("sim: Ticker with non-positive period")
	}
	stopped := false
	var tick func()
	i := 0
	var pending Event
	tick = func() {
		if stopped {
			return
		}
		fn(i)
		i++
		if !stopped {
			pending = e.Schedule(period, tick)
		}
	}
	pending = e.Schedule(period, tick)
	return func() {
		stopped = true
		e.Cancel(pending)
	}
}
