package sched

import (
	"errors"
	"fmt"
	"maps"
	"slices"
	"sort"
	"testing"

	"github.com/aisle-sim/aisle/internal/bus"
	"github.com/aisle-sim/aisle/internal/discovery"
	"github.com/aisle-sim/aisle/internal/instrument"
	"github.com/aisle-sim/aisle/internal/netsim"
	"github.com/aisle-sim/aisle/internal/rng"
	"github.com/aisle-sim/aisle/internal/sim"
	"github.com/aisle-sim/aisle/internal/simtest"
	"github.com/aisle-sim/aisle/internal/telemetry"
	"github.com/aisle-sim/aisle/internal/twin"
)

// testbed is a minimal federation (network + bus + discovery + fleets)
// without the core package, mirroring core.AddInstrument's wiring.
type testbed struct {
	*simtest.Stack
	rnd    *rng.Stream
	dir    *discovery.Directory
	s      *Scheduler
	fleets map[netsim.SiteID]*instrument.Fleet
}

func newTestbed(t *testing.T, sites []netsim.SiteID, opts Options) *testbed {
	t.Helper()
	rnd := rng.New(1)
	// Lossless links keep the tests free of 48h RPC-timeout stalls.
	st := simtest.New(rnd.Fork("net"), netsim.Link{Latency: 15 * sim.Millisecond, Jitter: sim.Millisecond, Bandwidth: 125e6}, sites...)
	dir := discovery.NewDirectory(st.Fab, sites)
	tb := &testbed{
		Stack: st, rnd: rnd, dir: dir,
		s:      New(st.Eng, st.Net, st.Fab, telemetry.NewRegistry(), rnd.Fork("sched"), opts),
		fleets: make(map[netsim.SiteID]*instrument.Fleet),
	}
	for _, id := range sites {
		fleet := instrument.NewFleet()
		tb.fleets[id] = fleet
		tb.s.AddSite(SiteBinding{
			ID: id, Registry: dir.Registry(id), Fleet: fleet,
			Token: func() any { return nil },
		})
	}
	dir.Start()
	tb.s.Start()
	t.Cleanup(func() { tb.s.Stop(); dir.Stop() })
	return tb
}

// install puts an instrument at a site the way core.AddInstrument does:
// fleet, bus endpoint and discovery record. The record advertises extra
// beside the instrument's own capabilities; ttl 0 is the default lease.
func (tb *testbed) install(site netsim.SiteID, in *instrument.Instrument, extra map[string]float64, ttl sim.Time) *instrument.Instrument {
	d := in.Descriptor()
	tb.fleets[site].Add(in)
	endpoint := "instr/" + d.ID
	tb.Fab.Broker(site).Register(endpoint, func(env *bus.Envelope, respond func(any, error)) {
		in.Submit(env.Payload.(instrument.Command), func(res instrument.Result) { respond(res, res.Err) })
	})
	caps := maps.Clone(d.Capabilities)
	maps.Copy(caps, extra)
	tb.dir.Registry(site).Register(discovery.Record{
		Instance: string(site) + "/" + d.ID, Type: d.Kind, Addr: bus.Address{Site: site, Name: endpoint},
		Capabilities: caps, TTL: ttl,
	})
	return in
}

// addReactor installs a fluidic flow reactor (15 s actions).
func (tb *testbed) addReactor(site netsim.SiteID, id string) *instrument.Instrument {
	return tb.install(site, instrument.NewFluidicReactor(tb.Eng, tb.rnd, id, string(site), twin.Perovskite{}), nil, 0)
}

// addBatchReactor installs a slow (30-minute action) synthesis robot, for
// tests that need work to stay in flight across recovery sweeps.
func (tb *testbed) addBatchReactor(site netsim.SiteID, id string) *instrument.Instrument {
	return tb.install(site, instrument.NewBatchReactor(tb.Eng, tb.rnd, id, string(site), twin.Perovskite{}), nil, 0)
}

// addGraded installs a flow reactor or a batch robot whose directory record
// also advertises a grade and a pressure rating, so capability floors split
// the fleet. The lease is long enough that the directory can stop gossiping
// once it has converged.
func (tb *testbed) addGraded(site netsim.SiteID, id string, batch bool, grade, pressure float64) *instrument.Instrument {
	build := instrument.NewFluidicReactor
	if batch {
		build = instrument.NewBatchReactor
	}
	return tb.install(site, build(tb.Eng, tb.rnd, id, string(site), twin.Perovskite{}),
		map[string]float64{"grade": grade, "pressure": pressure}, 24*sim.Hour)
}

// floors is the requirement vocabulary: none, a floor every instrument can
// meet, a stricter one, one nested inside it, one disjoint from both, and
// one nothing meets (its jobs wait out their Timeout).
var floors = []map[string]float64{
	nil,
	{"grade": 1},
	{"grade": 2},
	{"grade": 2, "pressure": 2},
	{"pressure": 3},
	{"grade": 9},
}

// flowJobs submits n flow-reactor jobs for tenant at site a, each sample
// named after the tenant, and hands ok the result of each one that completes
// without error.
func (tb *testbed) flowJobs(tenant string, n int, ok func(instrument.Result)) {
	for i := 0; i < n; i++ {
		tb.s.Submit(Job{Tenant: tenant, Origin: "a", Kind: instrument.KindFlowReactor, Cmd: validCmd(tenant)},
			func(res instrument.Result, err error) {
				if err == nil {
					ok(res)
				}
			})
	}
}

// outcome counts a job's terminal callbacks and keeps the last error.
type outcome struct {
	calls int
	err   error
}

func (o *outcome) done(_ instrument.Result, err error) { o.calls, o.err = o.calls+1, err }

// converge runs gossip long enough for records to propagate.
func (tb *testbed) converge() { _ = tb.Eng.RunUntil(tb.Eng.Now() + 10*sim.Second) }

func (tb *testbed) runFor(d sim.Time) { _ = tb.Eng.RunUntil(tb.Eng.Now() + d) }

// validPoint is an in-envelope perovskite synthesis command.
func validCmd(sample string) instrument.Command {
	return instrument.Command{
		Action: "synthesize",
		Params: map[string]float64{
			"temperature": 150, "halide_ratio": 0.5, "residence_s": 60, "ligand_mM": 15,
		},
		SampleID: sample,
	}
}

func TestFairShareWeightedOrdering(t *testing.T) {
	tb := newTestbed(t, []netsim.SiteID{"a"}, Options{MaxInFlightPerInstrument: 1})
	tb.addReactor("a", "flow-1")
	tb.converge()

	tb.s.Tenant("a", TenantConfig{ID: "alpha", Weight: 2})
	tb.s.Tenant("a", TenantConfig{ID: "beta", Weight: 1})

	var order []string
	record := func(res instrument.Result) { order = append(order, res.SampleID) }
	// Beta submits first: weight, not arrival order, must set the ratio.
	tb.flowJobs("beta", 12, record)
	tb.flowJobs("alpha", 12, record)
	tb.runFor(30 * sim.Minute)

	if len(order) != 24 {
		t.Fatalf("completed %d of 24 jobs", len(order))
	}
	nAlpha := 0
	for _, id := range order[:12] {
		if id == "alpha" {
			nAlpha++
		}
	}
	// Weighted DRR at 2:1 should give alpha ~8 of the first 12 dispatches.
	if nAlpha < 7 || nAlpha > 9 {
		t.Fatalf("alpha got %d of first 12 dispatches, want ~8 (order %v)", nAlpha, order[:12])
	}
}

func TestPriorityClassesPreemptQueue(t *testing.T) {
	tb := newTestbed(t, []netsim.SiteID{"a"}, Options{MaxInFlightPerInstrument: 1})
	tb.addReactor("a", "flow-1")
	tb.converge()

	tb.s.Tenant("a", TenantConfig{ID: "urgent", Class: ClassUrgent})

	var order []string
	record := func(res instrument.Result) { order = append(order, res.SampleID) }
	tb.flowJobs("normal", 10, record)
	tb.runFor(5 * sim.Second) // the first normal job is dispatched
	tb.flowJobs("urgent", 5, record)
	tb.runFor(30 * sim.Minute)

	if len(order) != 15 {
		t.Fatalf("completed %d of 15 jobs", len(order))
	}
	// Slot 0 was already committed to normal; slots 1..5 must be urgent.
	for i := 1; i <= 5; i++ {
		if order[i] != "urgent" {
			t.Fatalf("urgent work did not jump the queue: order %v", order)
		}
	}
}

func TestAgingPromotesStarvedBackfill(t *testing.T) {
	tb := newTestbed(t, []netsim.SiteID{"a"}, Options{
		MaxInFlightPerInstrument: 1,
		AgingStep:                10 * sim.Second,
	})
	tb.addReactor("a", "flow-1")
	tb.converge()

	tb.s.Tenant("a", TenantConfig{ID: "bg", Class: ClassBatch})
	tb.s.Tenant("a", TenantConfig{ID: "hot", Class: ClassUrgent})

	var order []string
	record := func(res instrument.Result) { order = append(order, res.SampleID) }
	tb.flowJobs("bg", 1, record)
	tb.flowJobs("hot", 20, record)
	tb.runFor(30 * sim.Minute)

	bgIdx := -1
	for i, id := range order {
		if id == "bg" {
			bgIdx = i
		}
	}
	if bgIdx == -1 {
		t.Fatalf("background job never ran: order %v", order)
	}
	// Without aging the batch-class job would run dead last (index 20);
	// with a 10s aging step it outranks urgent work after ~30s of waiting,
	// i.e. within the first few ~15s reactor slots.
	if bgIdx > 5 {
		t.Fatalf("background job starved until index %d: order %v", bgIdx, order)
	}
}

func TestCrossSiteRoutingPrefersIdleRemote(t *testing.T) {
	tb := newTestbed(t, []netsim.SiteID{"a", "b"}, Options{MaxInFlightPerInstrument: 1})
	tb.addReactor("a", "flow-a")
	tb.addReactor("b", "flow-b")
	tb.converge()

	var ids []string
	tb.flowJobs("c", 2, func(res instrument.Result) { ids = append(ids, res.InstrumentID) })
	tb.runFor(10 * sim.Minute)

	if len(ids) != 2 {
		t.Fatalf("completed %d of 2 jobs", len(ids))
	}
	if ids[0] == ids[1] {
		t.Fatalf("both jobs ran on %s; the second should route to the idle remote reactor", ids[0])
	}
	if got := tb.s.metrics.Counter("sched.remote_dispatches").Value(); got != 1 {
		t.Fatalf("remote_dispatches = %d, want 1", got)
	}
}

func TestRoutingSkipsDownInstrument(t *testing.T) {
	tb := newTestbed(t, []netsim.SiteID{"a", "b"}, Options{MaxInFlightPerInstrument: 2})
	local := tb.addReactor("a", "flow-a")
	tb.addReactor("b", "flow-b")
	tb.converge()

	local.ForceFailure()
	var got string
	tb.flowJobs("c", 1, func(res instrument.Result) { got = res.InstrumentID })
	tb.runFor(10 * sim.Minute)

	if got != "flow-b" {
		t.Fatalf("job ran on %q, want the healthy remote flow-b", got)
	}
}

func TestWorkStealingDrainsPeerBacklog(t *testing.T) {
	tb := newTestbed(t, []netsim.SiteID{"a", "b"}, Options{MaxInFlightPerInstrument: 1})
	tb.addReactor("a", "flow-a")
	tb.addReactor("b", "flow-b")
	tb.converge()

	byInstr := map[string]int{}
	done := 0
	tb.flowJobs("c", 12, func(res instrument.Result) { byInstr[res.InstrumentID]++; done++ })
	tb.runFor(30 * sim.Minute)

	if done != 12 {
		t.Fatalf("completed %d of 12 jobs", done)
	}
	if byInstr["flow-b"] == 0 {
		t.Fatalf("remote reactor never used: %v", byInstr)
	}
	if steals := tb.s.metrics.Counter("sched.steals").Value(); steals == 0 {
		t.Fatal("site b never stole from a's backlog")
	}
}

func TestInFlightAccountingRespectsCaps(t *testing.T) {
	tb := newTestbed(t, []netsim.SiteID{"a"}, Options{MaxInFlightPerInstrument: 2})
	tb.addReactor("a", "flow-1")
	tb.addReactor("a", "flow-2")
	tb.converge()

	if got := tb.s.Capacity(); got != 4 {
		t.Fatalf("capacity = %d, want 4", got)
	}
	done := 0
	tb.flowJobs("c", 10, func(instrument.Result) { done++ })
	maxFlying := tb.s.InFlight() // nothing completes before the engine runs
	// Sample in-flight load as the simulation progresses.
	for i := 0; i < 60; i++ {
		tb.runFor(5 * sim.Second)
		if f := tb.s.InFlight(); f > maxFlying {
			maxFlying = f
		}
	}
	if done != 10 {
		t.Fatalf("completed %d of 10 jobs", done)
	}
	if maxFlying > 4 {
		t.Fatalf("in-flight peaked at %d, cap is 4", maxFlying)
	}
	if maxFlying < 3 {
		t.Fatalf("in-flight peaked at %d; batching should keep the fleet loaded", maxFlying)
	}
	if c := tb.s.metrics.Histogram("sched.wait_s").Count(); c != 10 {
		t.Fatalf("wait histogram has %d observations, want 10", c)
	}
	if tb.s.QueueDepth() != 0 || tb.s.InFlight() != 0 {
		t.Fatalf("scheduler not drained: queued %d flying %d", tb.s.QueueDepth(), tb.s.InFlight())
	}
}

func TestBackfillAcrossClasses(t *testing.T) {
	tb := newTestbed(t, []netsim.SiteID{"a"}, Options{MaxInFlightPerInstrument: 1})
	tb.addReactor("a", "flow-1")
	tb.converge()

	tb.s.Tenant("a", TenantConfig{ID: "urgent", Class: ClassUrgent})

	// The urgent tenant's jobs want a kind nobody advertises; the normal
	// tenant's reactor work must backfill the idle reactor immediately
	// instead of waiting behind the blocked higher class.
	for i := 0; i < 3; i++ {
		tb.s.Submit(Job{Tenant: "urgent", Origin: "a", Kind: "_xrd._aisle",
			Cmd: validCmd("x")}, func(instrument.Result, error) {})
	}
	done := 0
	tb.flowJobs("normal", 4, func(instrument.Result) { done++ })
	tb.runFor(10 * sim.Minute)

	if done != 4 {
		t.Fatalf("completed %d of 4 backfill jobs; blocked urgent class idled the reactor", done)
	}
	if tb.s.QueueDepth() != 3 {
		t.Fatalf("queue depth = %d, want the 3 unroutable urgent jobs", tb.s.QueueDepth())
	}
}

func TestQueuedJobExpiresWithTerminalError(t *testing.T) {
	tb := newTestbed(t, []netsim.SiteID{"a"}, Options{})
	in := tb.addReactor("a", "flow-1")
	tb.converge()

	in.ForceFailure() // down for 30 minutes (fluidic repair time)
	var o outcome
	tb.s.Submit(Job{Tenant: "c", Origin: "a", Kind: instrument.KindFlowReactor,
		Cmd: validCmd("x"), Timeout: 5 * sim.Minute}, o.done)
	tb.runFor(10 * sim.Minute)

	if o.calls != 1 || !errors.Is(o.err, ErrExpired) {
		t.Fatalf("%d terminal outcomes, last %v; want one, ErrExpired", o.calls, o.err)
	}
	if tb.s.QueueDepth() != 0 {
		t.Fatalf("queue depth = %d after expiry", tb.s.QueueDepth())
	}
}

func TestReleaseTenantCancelsQueuedJobs(t *testing.T) {
	tb := newTestbed(t, []netsim.SiteID{"a"}, Options{})
	tb.addReactor("a", "flow-1")
	tb.converge()

	var errs []error
	for i := 0; i < 3; i++ {
		// Unroutable kind: the jobs park in the tenant queue.
		tb.s.Submit(Job{Tenant: "dead", Origin: "a", Kind: "_xrd._aisle", Cmd: validCmd("x")},
			func(_ instrument.Result, err error) { errs = append(errs, err) })
	}
	tb.runFor(sim.Minute)
	if tb.s.QueueDepth() != 3 {
		t.Fatalf("queue depth = %d before release", tb.s.QueueDepth())
	}

	checkOrder(t, tb.s)
	tb.s.ReleaseTenant("dead")
	checkOrder(t, tb.s)
	if tb.s.QueueDepth() != 0 {
		t.Fatalf("queue depth = %d after release", tb.s.QueueDepth())
	}
	if len(errs) != 3 {
		t.Fatalf("got %d terminal callbacks, want 3", len(errs))
	}
	for _, err := range errs {
		if !errors.Is(err, ErrCanceled) {
			t.Fatalf("err = %v, want ErrCanceled", err)
		}
	}
}

func TestReleaseTenantCancelsStolenInTransit(t *testing.T) {
	tb := newTestbed(t, []netsim.SiteID{"a", "b"}, Options{MaxInFlightPerInstrument: 1})
	tb.addReactor("a", "flow-a")
	tb.addReactor("b", "flow-b")
	tb.converge()

	outcomes := 0
	for i := 0; i < 12; i++ {
		tb.s.Submit(Job{Tenant: "t", Origin: "a", Kind: instrument.KindFlowReactor,
			Cmd: validCmd("x")}, func(instrument.Result, error) { outcomes++ })
	}
	// Step until a steal batch is on the wire (its 30ms arrival event is
	// scheduled but not yet fired), then release the tenant mid-transit.
	for i := 0; i < 100000 && tb.s.metrics.Counter("sched.steals").Value() == 0; i++ {
		tb.runFor(5 * sim.Millisecond)
	}
	if tb.s.metrics.Counter("sched.steals").Value() == 0 {
		t.Fatal("no steal occurred; scenario did not form")
	}
	tb.s.ReleaseTenant("t")
	checkOrder(t, tb.s)
	tb.runFor(30 * sim.Minute)

	// Every job reaches exactly one terminal outcome: the in-flight ones
	// complete, the queued and in-transit ones are canceled.
	if outcomes != 12 {
		t.Fatalf("terminal outcomes = %d, want 12", outcomes)
	}
	for _, sid := range []netsim.SiteID{"a", "b"} {
		if _, ok := tb.s.sites[sid].tenants["t"]; ok {
			t.Fatalf("released tenant resurrected at %s", sid)
		}
	}
	if tb.s.QueueDepth() != 0 || len(tb.s.transit) != 0 {
		t.Fatalf("leftover state: queued %d, transit %d", tb.s.QueueDepth(), len(tb.s.transit))
	}
}

func TestSubmitErrors(t *testing.T) {
	tb := newTestbed(t, []netsim.SiteID{"a"}, Options{})
	var err1, err2 error
	tb.s.Submit(Job{Tenant: "c", Origin: "ghost"}, func(_ instrument.Result, err error) { err1 = err })
	tb.s.Submit(Job{Origin: "a"}, func(_ instrument.Result, err error) { err2 = err })
	if err1 == nil || err2 == nil {
		t.Fatalf("bad submissions must error synchronously: %v, %v", err1, err2)
	}
}

func TestMinCapsFilterRouting(t *testing.T) {
	tb := newTestbed(t, []netsim.SiteID{"a"}, Options{})
	tb.addReactor("a", "flow-1")
	tb.converge()

	done := false
	// Fluidic reactors advertise volume_mL 0.02; demanding 1 mL must leave
	// the job queued (unroutable), not dispatched somewhere wrong.
	tb.s.Submit(Job{Tenant: "c", Origin: "a", Kind: instrument.KindFlowReactor,
		MinCaps: map[string]float64{"volume_mL": 1},
		Cmd:     validCmd("x")}, func(res instrument.Result, err error) { done = true })
	tb.runFor(10 * sim.Minute)

	if done {
		t.Fatal("job with unsatisfiable capability floor was dispatched")
	}
	if tb.s.QueueDepth() != 1 {
		t.Fatalf("queue depth = %d, want the unroutable job parked", tb.s.QueueDepth())
	}
}

func TestRetryRecoversFromInstrumentFailure(t *testing.T) {
	tb := newTestbed(t, []netsim.SiteID{"a"}, Options{})
	in := tb.addReactor("a", "flow-1")
	tb.converge()

	// First attempt is guaranteed to fail; the instrument then repairs and
	// the retry must land without the caller seeing the failure.
	in.SetFailureProb(1)
	var o outcome
	tb.s.Submit(Job{Tenant: "t", Origin: "a", Kind: instrument.KindFlowReactor,
		Cmd: validCmd("s-1"), MaxRetries: 2}, o.done)
	tb.runFor(30 * sim.Minute)
	in.SetFailureProb(0)
	tb.runFor(2 * sim.Hour)

	if o.calls != 1 || o.err != nil {
		t.Fatalf("callback ran %d times, last with %v; want once, succeeding on retry", o.calls, o.err)
	}
	if got := tb.s.metrics.Counter(telemetry.Key("sched.retries", "site", "a", "tenant", "t")).Value(); got < 1 {
		t.Fatalf("sched.retries{site=a,tenant=t} = %d, want >= 1", got)
	}
	if got := tb.s.metrics.Counter(telemetry.Key("sched.requeues", "reason", "failure")).Value(); got < 1 {
		t.Fatalf("sched.requeues{reason=failure} = %d, want >= 1", got)
	}
}

func TestRetryBudgetExhaustedSurfacesTerminalError(t *testing.T) {
	tb := newTestbed(t, []netsim.SiteID{"a"}, Options{})
	in := tb.addReactor("a", "flow-1")
	tb.converge()

	in.SetFailureProb(1) // every attempt fails
	var o outcome
	tb.s.Submit(Job{Tenant: "t", Origin: "a", Kind: instrument.KindFlowReactor,
		Cmd: validCmd("s-1"), MaxRetries: 1}, o.done)
	tb.runFor(3 * sim.Hour)

	if o.calls != 1 || o.err == nil {
		t.Fatalf("callback ran %d times, last with %v; want once, surfacing the failure", o.calls, o.err)
	}
}

func TestRecoverReroutesFromDownInstrument(t *testing.T) {
	tb := newTestbed(t, []netsim.SiteID{"a", "b"}, Options{Recover: true})
	inA := tb.addBatchReactor("a", "batch-a")
	tb.addBatchReactor("b", "batch-b")
	tb.converge()

	var o outcome
	tb.s.Submit(Job{Tenant: "t", Origin: "a", Kind: instrument.KindSynthesis,
		Cmd: validCmd("s-1")}, o.done)
	tb.runFor(2 * sim.Minute) // dispatched to a (local preferred), mid-action
	if tb.s.InFlight() != 1 {
		t.Fatalf("in-flight = %d, want 1", tb.s.InFlight())
	}
	inA.ForceDown(6 * sim.Hour)
	tb.runFor(4 * sim.Hour)

	if o.calls != 1 || o.err != nil {
		t.Fatalf("callback ran %d times, last with %v; want once, completing at the peer site", o.calls, o.err)
	}
	if got := tb.s.metrics.Counter(telemetry.Key("sched.requeues", "reason", "site-down")).Value(); got != 1 {
		t.Fatalf("sched.requeues{reason=site-down} = %d, want 1", got)
	}
	// The doomed first dispatch still runs to completion on the device; its
	// late reply must be discarded by the epoch guard, not double-complete.
	if got := tb.s.metrics.Counter("sched.stale_replies").Value(); got != 1 {
		t.Fatalf("sched.stale_replies = %d, want 1", got)
	}
}

func TestRecoverReroutesFromPartitionedSite(t *testing.T) {
	tb := newTestbed(t, []netsim.SiteID{"a", "b"}, Options{Recover: true})
	tb.addBatchReactor("b", "batch-b") // only b can run the job
	tb.converge()

	var o outcome
	tb.s.Submit(Job{Tenant: "t", Origin: "a", Kind: instrument.KindSynthesis,
		Cmd: validCmd("s-1")}, o.done)
	tb.runFor(2 * sim.Minute) // dispatched across the WAN to b
	if tb.s.InFlight() != 1 {
		t.Fatalf("in-flight = %d, want 1", tb.s.InFlight())
	}
	tb.Net.SetLinkUp("a", "b", false)
	tb.runFor(10 * sim.Minute) // sweep rescues; job unroutable while dark
	if got := tb.s.metrics.Counter(telemetry.Key("sched.requeues", "reason", "unreachable")).Value(); got != 1 {
		t.Fatalf("sched.requeues{reason=unreachable} = %d, want 1", got)
	}
	if o.calls != 0 {
		t.Fatalf("job terminated while its only site was unreachable (o.calls=%d err=%v)", o.calls, o.err)
	}
	tb.Net.SetLinkUp("a", "b", true)
	tb.runFor(2 * sim.Hour)

	if o.calls != 1 || o.err != nil {
		t.Fatalf("callback ran %d times, last with %v; want once, completing after the heal", o.calls, o.err)
	}
}

func TestTryDispatchFailsFastOnExpiredJob(t *testing.T) {
	// A huge repump interval keeps the background sweep out of the picture:
	// the expiry must come from the dispatch path itself when capacity
	// finally frees for a job whose Timeout already elapsed in queue.
	tb := newTestbed(t, []netsim.SiteID{"a"}, Options{
		MaxInFlightPerInstrument: 1, RepumpInterval: 6 * sim.Hour, AgingStep: -1,
	})
	tb.addBatchReactor("a", "batch-a")
	tb.converge()

	var first, second outcome
	tb.s.Submit(Job{Tenant: "t", Origin: "a", Kind: instrument.KindSynthesis, Cmd: validCmd("s-long")}, first.done)
	tb.s.Submit(Job{Tenant: "t", Origin: "a", Kind: instrument.KindSynthesis,
		Cmd: validCmd("s-dead"), Timeout: 2 * sim.Minute}, second.done)
	tb.runFor(40 * sim.Minute) // first completes (~30m), freeing capacity

	if first.calls != 1 || first.err != nil {
		t.Fatalf("first job: calls=%d err=%v", first.calls, first.err)
	}
	if second.calls != 1 {
		t.Fatalf("second job callback ran %d times, want 1", second.calls)
	}
	if !errors.Is(second.err, ErrExpired) {
		t.Fatalf("second job error = %v, want ErrExpired", second.err)
	}
	// It must have failed fast, never shipped to the instrument.
	if got := tb.s.metrics.Counter("sched.dispatched").Value(); got != 1 {
		t.Fatalf("sched.dispatched = %d, want 1 (expired job must not dispatch)", got)
	}
}

// checkOrder asserts the persistent service order's invariant at every site
// — exactly the tenants with queued jobs, strictly ascending in fairOrder —
// that its other two readers still see what the old map scans saw: byID
// the sorted ids of the busy tenants, syncVtime the lowest busy vtime — and
// that the site and federation queue counts equal what the FIFOs hold.
func checkOrder(t *testing.T, s *Scheduler) {
	queued := 0
	for _, ss := range s.order {
		var busy []string
		floor := -1.0
		held := 0
		for id, tq := range ss.tenants {
			held += len(tq.jobs)
			if len(tq.jobs) > 0 {
				busy = append(busy, id)
				if floor < 0 || tq.vtime < floor {
					floor = tq.vtime
				}
			}
		}
		if held != ss.queued {
			t.Fatalf("site %s: queued count %d, FIFOs hold %d", ss.bind.ID, ss.queued, held)
		}
		queued += held
		sort.Strings(busy)
		var byID []string
		for _, tq := range ss.byID() {
			byID = append(byID, tq.cfg.ID)
		}
		if !slices.Equal(byID, busy) {
			t.Fatalf("site %s: byID() = %v, busy tenants are %v", ss.bind.ID, byID, busy)
		}
		for id, tq := range ss.tenants {
			if len(tq.jobs) == 0 {
				saved := tq.vtime
				tq.vtime = -1
				ss.syncVtime(tq)
				if tq.vtime != floor {
					t.Fatalf("site %s: syncVtime floors idle %s at %v, lowest busy vtime is %v", ss.bind.ID, id, tq.vtime, floor)
				}
				tq.vtime = saved
			}
		}
		for i, tq := range ss.active {
			if len(tq.jobs) == 0 || ss.tenants[tq.cfg.ID] != tq {
				t.Fatalf("site %s: active[%d]=%s is idle or released", ss.bind.ID, i, tq.cfg.ID)
			}
			if i > 0 && fairOrder(ss.active[i-1], tq) >= 0 {
				t.Fatalf("site %s: active order broken at %d (%s before %s)", ss.bind.ID, i, ss.active[i-1].cfg.ID, tq.cfg.ID)
			}
		}
	}
	if queued != s.queued {
		t.Fatalf("queued count %d, FIFOs hold %d", s.queued, queued)
	}
}

// TestSaturatedPumpIsFree pins what a pump against a saturated fleet costs:
// no allocation, and one route probe per distinct requirement however many
// tenants queue behind it.
func TestSaturatedPumpIsFree(t *testing.T) {
	tb := newTestbed(t, []netsim.SiteID{"a"}, Options{MaxInFlightPerInstrument: 1})
	tb.addGraded("a", "batch-0", true, 2, 2)
	tb.converge()
	reqs := floors[:4] // all met by batch-0, so all block on capacity alone
	for i := 0; i < 50; i++ {
		for n := 0; n < 2; n++ {
			tb.s.Submit(Job{
				Tenant: fmt.Sprintf("t%02d", i), Origin: "a", Kind: instrument.KindSynthesis,
				MinCaps: reqs[i%len(reqs)], Cmd: validCmd(fmt.Sprintf("s-%d-%d", i, n)),
			}, func(instrument.Result, error) {})
		}
	}
	tb.runFor(sim.Minute) // one job takes the robot for half an hour
	ss := tb.s.sites["a"]
	if tb.s.InFlight() != 1 || len(ss.active) != 50 {
		t.Fatalf("want a saturated fleet behind 50 queued tenants, got %d in flight, %d active", tb.s.InFlight(), len(ss.active))
	}
	before := tb.s.probesC.Value()
	const runs = 100
	allocs := testing.AllocsPerRun(runs, func() { tb.s.pumpSite(ss) })
	probes := float64(tb.s.probesC.Value()-before) / (runs + 1) // AllocsPerRun warms up once
	if allocs != 0 {
		t.Errorf("saturated pump allocates %v times, want 0", allocs)
	}
	if probes > float64(len(reqs)) {
		t.Errorf("saturated pump made %.1f route probes for %d distinct requirements", probes, len(reqs))
	}
	checkOrder(t, tb.s)
	if tb.s.InFlight() != 1 || tb.s.QueueDepth() != 99 {
		t.Errorf("pumping a saturated fleet moved work: %d in flight, %d queued", tb.s.InFlight(), tb.s.QueueDepth())
	}
}
