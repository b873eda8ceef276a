package sched

import (
	"errors"
	"testing"

	"github.com/aisle-sim/aisle/internal/bus"
	"github.com/aisle-sim/aisle/internal/instrument"
	"github.com/aisle-sim/aisle/internal/netsim"
	"github.com/aisle-sim/aisle/internal/sim"
)

// TestLostDispatchWaitsOutTimeout pins today's behaviour when one message of
// a remote dispatch is lost. The dispatch is a single bus call with the
// job's whole remaining budget and no retries, and netsim loss is silent, so
// the job stays in flight — its instrument slot counted busy — until its
// Timeout ends it with the timeout error, recovery sweep on or not: the host
// stays up and reachable. A lost reply also leaves the experiment run once
// with nobody told. The acknowledged, leased, idempotent dispatch protocol
// is expected to turn this test red; it then becomes that protocol's
// regression test.
func TestLostDispatchWaitsOutTimeout(t *testing.T) {
	const timeout = 10 * sim.Minute
	for _, c := range []struct {
		lost     string
		from, to sim.Time // window, relative to the submit, in which a-b loses every message
		runs     int      // experiments the instrument completes
	}{
		{"request", -sim.Second, sim.Second, 0},   // the run request leaves at the submit
		{"reply", sim.Second, 30 * sim.Second, 1}, // the reply leaves ~15s later
	} {
		t.Run(c.lost, func(t *testing.T) {
			tb := newTestbed(t, []netsim.SiteID{"a", "b"}, Options{Recover: true})
			in := tb.addGraded("b", "flow-0", false, 1, 0) // a hosts nothing: remote only
			tb.converge()
			tb.dir.Stop() // no gossip: the dispatch is all that crosses a-b
			submit := tb.Eng.Now() + 2*sim.Second
			tb.Lose("a", "b", submit+c.from, submit+c.to)
			var o outcome
			var done sim.Time
			tb.Eng.At(submit, func() {
				tb.s.Submit(Job{Tenant: "t", Origin: "a", Kind: instrument.KindFlowReactor, Timeout: timeout, Cmd: validCmd("j")},
					func(res instrument.Result, err error) { o.done(res, err); done = tb.Eng.Now() })
			})
			for tb.Eng.Now() < submit+timeout-sim.Minute {
				tb.runFor(sim.Minute)
				if o.calls != 0 || tb.s.InFlight() != 1 {
					t.Fatalf("at %v: %d callbacks, %d in flight; want the job still in flight", tb.Eng.Now(), o.calls, tb.s.InFlight())
				}
			}
			tb.runFor(2 * sim.Minute)
			if o.calls != 1 || done != submit+timeout || !errors.Is(o.err, bus.ErrTimeout) {
				t.Fatalf("%d callbacks, last at %v with %v; want one at %v with the timeout error", o.calls, done, o.err, submit+timeout)
			}
			if tb.s.InFlight() != 0 || in.Completed() != c.runs {
				t.Fatalf("after the timeout: %d in flight, instrument ran %d times; want 0 and %d", tb.s.InFlight(), in.Completed(), c.runs)
			}
			if lost := tb.Net.Metrics().Counter("net.lost").Value(); lost != 1 {
				t.Fatalf("the network lost %d messages, want exactly the %s", lost, c.lost)
			}
		})
	}
}
