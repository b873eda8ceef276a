package sim

import (
	"testing"
	"testing/quick"
	"time"
)

func TestScheduleOrdering(t *testing.T) {
	e := NewEngine()
	var order []int
	e.Schedule(3*Second, func() { order = append(order, 3) })
	e.Schedule(1*Second, func() { order = append(order, 1) })
	e.Schedule(2*Second, func() { order = append(order, 2) })
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	want := []int{1, 2, 3}
	for i, v := range want {
		if order[i] != v {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
	if e.Now() != 3*Second {
		t.Fatalf("Now() = %v, want 3s", e.Now())
	}
}

func TestSimultaneousEventsFIFO(t *testing.T) {
	e := NewEngine()
	var order []int
	for i := 0; i < 10; i++ {
		i := i
		e.Schedule(Second, func() { order = append(order, i) })
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	for i, v := range order {
		if v != i {
			t.Fatalf("simultaneous events out of scheduling order: %v", order)
		}
	}
}

func TestCancel(t *testing.T) {
	e := NewEngine()
	fired := false
	ev := e.Schedule(Second, func() { fired = true })
	if !e.Cancel(ev) {
		t.Fatal("Cancel returned false for pending event")
	}
	if e.Cancel(ev) {
		t.Fatal("second Cancel should be a no-op")
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if fired {
		t.Fatal("cancelled event fired")
	}
	if ev.Pending() {
		t.Fatal("event still pending after cancel")
	}
}

func TestCancelAfterFire(t *testing.T) {
	e := NewEngine()
	ev := e.Schedule(0, func() {})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if e.Cancel(ev) {
		t.Fatal("Cancel after fire should report false")
	}
}

func TestNestedScheduling(t *testing.T) {
	e := NewEngine()
	var times []Time
	e.Schedule(Second, func() {
		times = append(times, e.Now())
		e.Schedule(Second, func() {
			times = append(times, e.Now())
		})
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if len(times) != 2 || times[0] != Second || times[1] != 2*Second {
		t.Fatalf("times = %v", times)
	}
}

func TestRunUntil(t *testing.T) {
	e := NewEngine()
	var fired []Time
	for i := 1; i <= 5; i++ {
		d := Time(i) * Second
		e.Schedule(d, func() { fired = append(fired, e.Now()) })
	}
	if err := e.RunUntil(3 * Second); err != nil {
		t.Fatal(err)
	}
	if len(fired) != 3 {
		t.Fatalf("fired %d events, want 3", len(fired))
	}
	if e.Now() != 3*Second {
		t.Fatalf("Now() = %v, want 3s", e.Now())
	}
	if e.Pending() != 2 {
		t.Fatalf("Pending() = %d, want 2", e.Pending())
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if len(fired) != 5 {
		t.Fatalf("fired %d events total, want 5", len(fired))
	}
}

func TestRunUntilAdvancesClockWithoutEvents(t *testing.T) {
	e := NewEngine()
	if err := e.RunUntil(10 * Second); err != nil {
		t.Fatal(err)
	}
	if e.Now() != 10*Second {
		t.Fatalf("Now() = %v, want 10s", e.Now())
	}
}

func TestHorizon(t *testing.T) {
	e := NewEngine()
	e.Horizon = 100
	var tick func()
	tick = func() { e.Schedule(Second, tick) }
	e.Schedule(Second, tick)
	if err := e.Run(); err != ErrHorizon {
		t.Fatalf("Run() = %v, want ErrHorizon", err)
	}
}

func TestTicker(t *testing.T) {
	e := NewEngine()
	var ticks []int
	stop := e.Ticker(Second, func(i int) {
		ticks = append(ticks, i)
		if i == 4 {
			// stop from within the callback
		}
	})
	e.Schedule(4*Second+Millisecond, func() { stop() })
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if len(ticks) != 4 {
		t.Fatalf("ticks = %v, want 4 ticks", ticks)
	}
}

func TestTickerStopImmediately(t *testing.T) {
	e := NewEngine()
	n := 0
	stop := e.Ticker(Second, func(int) { n++ })
	stop()
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if n != 0 {
		t.Fatalf("ticker fired %d times after immediate stop", n)
	}
}

func TestNegativeDelayClamped(t *testing.T) {
	e := NewEngine()
	fired := false
	e.Schedule(-5*Second, func() { fired = true })
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if !fired || e.Now() != 0 {
		t.Fatalf("negative delay not clamped: fired=%v now=%v", fired, e.Now())
	}
}

func TestDurationConversion(t *testing.T) {
	if Duration(time.Second) != Second {
		t.Fatal("Duration(time.Second) != Second")
	}
	if (90 * Minute).Std() != 90*time.Minute {
		t.Fatal("Std round-trip failed")
	}
	if Second.Seconds() != 1.0 {
		t.Fatal("Seconds() wrong")
	}
}

func TestProcessedCount(t *testing.T) {
	e := NewEngine()
	for i := 0; i < 7; i++ {
		e.Schedule(Time(i)*Second, func() {})
	}
	ev := e.Schedule(10*Second, func() {})
	e.Cancel(ev)
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if e.Processed() != 7 {
		t.Fatalf("Processed() = %d, want 7 (cancelled events don't count)", e.Processed())
	}
}

// Property: for any set of non-negative delays, events fire in
// non-decreasing time order and the clock ends at the max delay.
func TestPropertyEventOrder(t *testing.T) {
	f := func(delays []uint16) bool {
		if len(delays) == 0 {
			return true
		}
		e := NewEngine()
		var fired []Time
		var maxT Time
		for _, d := range delays {
			dt := Time(d) * Millisecond
			if dt > maxT {
				maxT = dt
			}
			e.Schedule(dt, func() { fired = append(fired, e.Now()) })
		}
		if err := e.Run(); err != nil {
			return false
		}
		if len(fired) != len(delays) {
			return false
		}
		for i := 1; i < len(fired); i++ {
			if fired[i] < fired[i-1] {
				return false
			}
		}
		return e.Now() == maxT
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestAtClampsPast(t *testing.T) {
	e := NewEngine()
	e.Schedule(5*Second, func() {
		ev := e.At(Second, func() {}) // in the past
		if ev.At() != 5*Second {
			t.Errorf("past instant not clamped: %v", ev.At())
		}
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
}
