package sim

import (
	"container/heap"
	"math/rand"
	"testing"
)

// refEvent / refHeap reimplement the pre-wheel container/heap event queue:
// the reference ordering the timer wheel must reproduce exactly.
type refEvent struct {
	at  Time
	seq uint64
	id  int
}

type refHeap []*refEvent

func (h refHeap) Len() int { return len(h) }
func (h refHeap) Less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	return h[i].seq < h[j].seq
}
func (h refHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *refHeap) Push(x any)   { *h = append(*h, x.(*refEvent)) }
func (h *refHeap) Pop() any {
	old := *h
	n := len(old)
	ev := old[n-1]
	*h = old[:n-1]
	return ev
}

// TestWheelMatchesHeapOrdering drives the wheel engine and the reference
// heap with identical randomized schedules — same-instant events,
// cancellations, negative-delay clamps, nested schedules spanning every
// wheel level — and requires the exact same fire order.
func TestWheelMatchesHeapOrdering(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		r := rand.New(rand.NewSource(seed))
		e := NewEngine()
		ref := &refHeap{}
		var refSeq uint64
		var gotOrder, wantOrder []int

		// Delay distribution spans all wheel levels: sub-tick, a few
		// ticks, and far-future (days).
		delay := func() Time {
			switch r.Intn(5) {
			case 0:
				return Time(r.Intn(int(Microsecond)))
			case 1:
				return Time(r.Intn(int(10 * Millisecond)))
			case 2:
				return Time(r.Intn(int(2 * Minute)))
			case 3:
				return Time(r.Intn(int(3 * Day)))
			default:
				return -Time(r.Intn(int(Second))) // clamped to "now"
			}
		}

		type sched struct {
			ev Event
			re *refEvent
		}
		var live []sched
		id := 0

		schedule := func(d Time) {
			myID := id
			id++
			ev := e.Schedule(d, func() { gotOrder = append(gotOrder, myID) })
			at := d
			if at < 0 {
				at = 0
			}
			re := &refEvent{at: e.Now() + at, seq: refSeq, id: myID}
			// Mirror the engine's clamp: Schedule(d) with negative d
			// fires at the current instant.
			re.at = ev.At()
			refSeq++
			heap.Push(ref, re)
			live = append(live, sched{ev, re})
		}

		for i := 0; i < 400; i++ {
			schedule(delay())
			// Duplicate some instants exactly to stress FIFO ties.
			if r.Intn(4) == 0 && len(live) > 0 {
				prev := live[r.Intn(len(live))]
				e.At(prev.re.at, func() {})
				// keep mirrors aligned: schedule the same no-op in ref
				at := prev.re.at
				if at < 0 {
					at = 0
				}
				heap.Push(ref, &refEvent{at: at, seq: refSeq, id: -1})
				refSeq++
			}
		}
		// Cancel a random subset before running.
		for _, sc := range live {
			if r.Intn(5) == 0 {
				if e.Cancel(sc.ev) {
					sc.re.id = -2 // tombstone in the reference
				}
			}
		}

		if err := e.Run(); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		for ref.Len() > 0 {
			re := heap.Pop(ref).(*refEvent)
			if re.id >= 0 {
				wantOrder = append(wantOrder, re.id)
			}
		}
		if len(gotOrder) != len(wantOrder) {
			t.Fatalf("seed %d: fired %d events, reference fired %d", seed, len(gotOrder), len(wantOrder))
		}
		for i := range gotOrder {
			if gotOrder[i] != wantOrder[i] {
				t.Fatalf("seed %d: order diverges at %d: wheel=%d ref=%d", seed, i, gotOrder[i], wantOrder[i])
			}
		}
	}
}

// TestWheelNestedRandom drives nested scheduling (events scheduling more
// events) against the reference, exercising cursor advancement with the
// clock in motion.
func TestWheelNestedRandom(t *testing.T) {
	for seed := int64(100); seed < 110; seed++ {
		r := rand.New(rand.NewSource(seed))
		e := NewEngine()
		var fired []Time
		var n int
		var spawn func()
		spawn = func() {
			fired = append(fired, e.Now())
			if n >= 2000 {
				return
			}
			for k := r.Intn(3); k > 0; k-- {
				n++
				e.Schedule(Time(r.Intn(int(Hour))), spawn)
			}
		}
		for i := 0; i < 50; i++ {
			n++
			e.Schedule(Time(r.Intn(int(Day))), spawn)
		}
		if err := e.Run(); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		for i := 1; i < len(fired); i++ {
			if fired[i] < fired[i-1] {
				t.Fatalf("seed %d: time went backwards at %d: %v -> %v", seed, i, fired[i-1], fired[i])
			}
		}
	}
}

// TestScheduleFireZeroAlloc is the pooled-kernel guard: after warmup,
// a Schedule→fire→reuse cycle must not allocate (mirroring the
// nil-profiler zero-alloc guard in internal/prof).
func TestScheduleFireZeroAlloc(t *testing.T) {
	e := NewEngine()
	sink := 0
	fn := func(any) { sink++ }
	// Warm the pool and the near-heap backing array.
	for i := 0; i < 64; i++ {
		e.ScheduleArg(Time(i)*Millisecond, fn, nil)
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(200, func() {
		e.ScheduleArg(Millisecond, fn, nil)
		e.ScheduleArg(Millisecond, fn, nil)
		e.ScheduleArg(2*Millisecond, fn, nil)
		if err := e.Run(); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("Schedule→fire→reuse allocated %.1f per cycle, want 0", allocs)
	}
}

// TestCancelZeroAlloc guards the cancel path the same way.
func TestCancelZeroAlloc(t *testing.T) {
	e := NewEngine()
	fn := func(any) {}
	for i := 0; i < 8; i++ {
		ev := e.ScheduleArg(Second, fn, nil)
		e.Cancel(ev)
	}
	allocs := testing.AllocsPerRun(200, func() {
		ev := e.ScheduleArg(Hour, fn, nil)
		if !e.Cancel(ev) {
			t.Fatal("cancel failed")
		}
		if e.Cancel(ev) {
			t.Fatal("stale handle cancelled twice")
		}
	})
	if allocs != 0 {
		t.Fatalf("Schedule→cancel allocated %.1f per cycle, want 0", allocs)
	}
}

// TestStaleHandleSafety exercises the generation counter: a handle kept
// past its event's completion must be inert even after the node is
// recycled into a new event.
func TestStaleHandleSafety(t *testing.T) {
	e := NewEngine()
	ev1 := e.Schedule(Millisecond, func() {})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	// ev1's node is now free; this schedule reuses it.
	fired := false
	ev2 := e.Schedule(Millisecond, func() { fired = true })
	if ev1.Pending() {
		t.Fatal("stale handle reports pending")
	}
	if e.Cancel(ev1) {
		t.Fatal("stale handle cancelled the recycled node's new event")
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if !fired {
		t.Fatal("recycled event did not fire")
	}
	_ = ev2
}
