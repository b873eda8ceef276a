package sched

import (
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
)

// ---- the reference: pumpSite and tryDispatch as they stood before the
// blocked memo and the persistent order. Every pump rebuilds the active
// tenant list from the map, sorts it, and probes every head. It shares the
// production bookkeeping (route, dequeued, dispatch, failExpired,
// maybeSteal) and nothing of the production service order or memo. ----

func (s *Scheduler) refPump(ss *siteSched) {
	ids := make([]string, 0, len(ss.tenants))
	for id, t := range ss.tenants {
		if len(t.jobs) > 0 {
			ids = append(ids, id)
		}
	}
	sort.Strings(ids)
	byClass := make(map[int][]*tenantQ)
	var classes []int
	for _, id := range ids {
		t := ss.tenants[id]
		c := s.effClass(t)
		if _, ok := byClass[c]; !ok {
			classes = append(classes, c)
		}
		byClass[c] = append(byClass[c], t)
	}
	sort.Sort(sort.Reverse(sort.IntSlice(classes)))
	before := func(a, b *tenantQ) bool {
		if a.vtime != b.vtime {
			return a.vtime < b.vtime
		}
		return a.cfg.ID < b.cfg.ID
	}
	for _, cl := range classes {
		group := byClass[cl]
		sort.SliceStable(group, func(i, j int) bool { return before(group[i], group[j]) })
		for len(group) > 0 {
			t := group[0]
			group = group[1:]
			if !s.refTryDispatch(ss, t) {
				continue // blocked for the rest of this pump
			}
			t.vtime += 1 / t.cfg.Weight
			// Not the reference's business, but the production readers of the
			// persistent order (syncVtime, enqueue) need it kept sorted.
			slices.SortFunc(ss.active, fairOrder)
			if len(t.jobs) == 0 {
				continue
			}
			i := sort.Search(len(group), func(j int) bool { return before(t, group[j]) })
			group = append(group[:i], append([]*tenantQ{t}, group[i:]...)...)
		}
	}
	if ss.queueLen() == 0 {
		s.maybeSteal(ss)
	}
}

func (s *Scheduler) refTryDispatch(ss *siteSched, t *tenantQ) bool {
	qj := t.jobs[0]
	now := s.eng.Now()
	if qj.notBefore > now {
		return false
	}
	if now-qj.enqueued >= qj.job.Timeout {
		t.jobs = t.jobs[1:]
		s.dequeued(ss, t, 1)
		s.failExpired(qj, now)
		return true
	}
	rec, ok := s.route(ss, qj.job)
	if !ok {
		return false
	}
	t.jobs = t.jobs[1:]
	s.dequeued(ss, t, 1)
	s.dispatch(ss, t, qj, rec)
	return true
}

// ---- the scenarios ----

// addGraded installs a flow reactor (15 s actions) or a batch synthesis
// robot (30 min actions) whose directory record also advertises a grade and
// a pressure rating, so capability floors split the fleet. The lease is
// long enough that the directory can stop gossiping once it has converged.
func (tb *testbed) addGraded(site netsim.SiteID, id string, batch bool, grade, pressure float64) *instrument.Instrument {
	var in *instrument.Instrument
	if batch {
		in = tb.addBatchReactor(site, id)
	} else {
		in = tb.addReactor(site, id)
	}
	d := in.Descriptor()
	caps := map[string]float64{"grade": grade, "pressure": pressure}
	for k, v := range d.Capabilities {
		caps[k] = v
	}
	tb.dir.Registry(site).Register(discovery.Record{
		Instance:     string(site) + "/" + d.ID,
		Type:         d.Kind,
		Addr:         bus.Address{Site: site, Name: "instr/" + d.ID},
		Capabilities: caps,
		TTL:          24 * sim.Hour,
	})
	return in
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

type oracleTotals struct {
	byKind    [DecisionSteal + 1]int
	probes    int64
	decisions int
}

// runScenario plays one seeded scenario and returns its Decision stream.
// The script is drawn from its own stream before anything runs, so it cannot
// depend on what the scheduler does; with ref set the old pump stands in.
func runScenario(t *testing.T, seed uint64, ref bool, tot *oracleTotals) []Decision {
	r := rng.New(seed).Fork("script")
	pick := func(n int) int { return r.Intn(n) }
	sites := []netsim.SiteID{"a", "b", "c"}
	opts := Options{
		MaxInFlightPerInstrument: 1 + pick(2),
		AgingStep:                []sim.Time{0, 4 * sim.Minute, -1}[pick(3)],
		Recover:                  pick(2) == 0,
		RetryBase:                10 * sim.Second,
	}
	tb := newTestbed(t, sites, opts)
	if ref {
		tb.s.pumpRef = tb.s.refPump
	}
	// Site c hosts nothing: all its work routes remotely or is stolen.
	var fleet []*instrument.Instrument
	for _, site := range sites[:2] {
		for i := 0; i < 1+pick(2); i++ {
			fleet = append(fleet, tb.addGraded(site, fmt.Sprintf("flow-%d", i), false, float64(1+pick(2)), float64(pick(4))))
		}
	}
	fleet = append(fleet, tb.addGraded(sites[pick(2)], "batch-0", true, 2, 2))
	tb.converge()
	tb.dir.Stop() // a static directory: gossip would be most of the run

	var stream []Decision
	tb.s.Observer = func(d Decision) {
		stream = append(stream, d)
		tot.byKind[d.Kind]++
		if !ref {
			checkOrder(t, tb.s)
		}
	}

	type tenant struct {
		id   string
		site netsim.SiteID
		job  Job
	}
	var tenants []tenant
	// A scenario's tenants draw from a few requirements, so heads repeat.
	type req struct {
		kind string
		caps map[string]float64
	}
	reqs := make([]req, 2+pick(4))
	for i := range reqs {
		reqs[i] = req{
			[]string{instrument.KindFlowReactor, instrument.KindFlowReactor, instrument.KindSynthesis}[pick(3)],
			floors[pick(len(floors))],
		}
	}
	for _, site := range sites {
		for i := 0; i < 4+pick(12); i++ {
			tn := tenant{id: fmt.Sprintf("%s-t%d", site, i), site: site}
			if pick(4) == 0 {
				tn.id = fmt.Sprintf("shared-t%d", i) // same id at several sites
			}
			tb.s.Tenant(site, TenantConfig{
				ID:     tn.id,
				Weight: []float64{0.5, 1, 1, 2, 4}[pick(5)],
				Class:  []Class{ClassBatch, ClassNormal, ClassNormal, ClassUrgent}[pick(4)],
			})
			rq := reqs[pick(len(reqs))]
			tn.job = Job{
				Tenant: tn.id, Origin: site, Kind: rq.kind, MinCaps: rq.caps,
				Timeout:    []sim.Time{0, 10 * sim.Minute, 40 * sim.Minute}[pick(3)],
				MaxRetries: 2 * pick(2),
			}
			tenants = append(tenants, tn)
		}
	}
	at := func(within sim.Time, fn func()) { tb.eng.Schedule(sim.Time(r.Float64()*float64(within)), fn) }
	n := 0
	var submit func(tn tenant, followUps int)
	submit = func(tn tenant, followUps int) {
		n++
		j := tn.job
		j.Cmd = validCmd(fmt.Sprintf("%s/%d", tn.id, n))
		j.MinCaps = maps.Clone(tn.job.MinCaps) // equal by content, never by identity
		tb.s.Submit(j, func(instrument.Result, error) {
			if followUps > 0 { // a closed loop, like a campaign refilling its slots
				submit(tn, followUps-1)
			}
		})
	}
	for _, tn := range tenants {
		tn := tn
		for i, burst := 0, 1+pick(6); i < burst; i++ {
			followUps := pick(4)
			at(20*sim.Minute, func() { submit(tn, followUps) })
		}
	}
	// Faults: an outage, a flaky window, a drifting (so recalibrating)
	// instrument, a partition, and a tenant released mid-run.
	down, flaky, drifty := fleet[pick(len(fleet))], fleet[pick(len(fleet))], fleet[pick(len(fleet))]
	at(30*sim.Minute, func() { down.ForceDown(20 * sim.Minute) })
	at(15*sim.Minute, func() { flaky.SetFailureProb(0.5) })
	tb.eng.Schedule(40*sim.Minute, func() { flaky.SetFailureProb(0) })
	drifty.SetDriftPerAction(0.05)
	pa, pb := sites[pick(3)], sites[pick(3)]
	if pa != pb {
		at(25*sim.Minute, func() { tb.net.SetLinkUp(pa, pb, false) })
		tb.eng.Schedule(35*sim.Minute, func() { tb.net.SetLinkUp(pa, pb, true) })
	}
	released := tenants[pick(len(tenants))].id
	at(30*sim.Minute, func() { tb.s.ReleaseTenant(released) })

	tb.runFor(90 * sim.Minute)
	tot.probes += tb.s.probesC.Value()
	tot.decisions += len(stream)
	return stream
}

// checkOrder asserts the persistent service order's invariant at every site
// — exactly the tenants with queued jobs, strictly ascending in fairOrder —
// and that its other two readers still see what the old map scans saw: byID
// the sorted ids of the busy tenants, syncVtime the lowest busy vtime.
func checkOrder(t *testing.T, s *Scheduler) {
	queued := 0
	for _, ss := range s.order {
		var busy []string
		floor := -1.0
		for id, tq := range ss.tenants {
			queued += len(tq.jobs)
			if len(tq.jobs) > 0 {
				busy = append(busy, id)
				if floor < 0 || tq.vtime < floor {
					floor = tq.vtime
				}
			}
		}
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

// TestPumpMatchesReference is the differential oracle of the saturation-aware
// pump: over seeded random federations the production scheduler and the
// rebuild-sort-and-probe-everything reference must emit the same Decision
// stream — same jobs, instruments, instants and reasons, expiries included.
func TestPumpMatchesReference(t *testing.T) {
	const scenarios = 300
	var got, want oracleTotals
	for seed := uint64(1); seed <= uint64(scenarios); seed++ {
		ref := runScenario(t, seed, true, &want)
		prod := runScenario(t, seed, false, &got)
		for i := 0; i < len(ref) || i < len(prod); i++ {
			if i >= len(ref) || i >= len(prod) || ref[i] != prod[i] {
				t.Fatalf("seed %d: decision %d diverged (of %d reference, %d production)\n reference:  %s\n production: %s",
					seed, i, len(ref), len(prod), line(ref, i), line(prod, i))
			}
		}
	}
	// The sweep must have gone where the pump's branches are.
	for k := DecisionSubmit; k <= DecisionSteal; k++ {
		if got.byKind[k] == 0 {
			t.Errorf("no scenario produced a %s decision", k)
		}
	}
	if got.probes*2 > want.probes {
		t.Errorf("memo barely fired: %d route probes against the reference's %d", got.probes, want.probes)
	}
	t.Logf("%d scenarios, %d decisions, route probes %d (reference %d), by kind %v",
		scenarios, got.decisions, got.probes, want.probes, got.byKind)
}

func line(s []Decision, i int) string {
	if i < len(s) {
		return fmt.Sprintf("%+v", s[i])
	}
	return "(stream ended)"
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
	if tb.s.InFlight() != 1 || tb.s.QueueDepth() != 99 {
		t.Errorf("pumping a saturated fleet moved work: %d in flight, %d queued", tb.s.InFlight(), tb.s.QueueDepth())
	}
}
