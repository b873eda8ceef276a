package sched

import (
	"fmt"
	"maps"
	"slices"
	"sort"
	"testing"

	"github.com/aisle-sim/aisle/internal/instrument"
	"github.com/aisle-sim/aisle/internal/netsim"
	"github.com/aisle-sim/aisle/internal/rng"
	"github.com/aisle-sim/aisle/internal/sim"
	"github.com/aisle-sim/aisle/internal/simtest"
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
	if ss.queued == 0 {
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

// scenario is one seeded federation with its script installed. since
// holds, per origin site, the decisions made since the pair last looked,
// each numbered by its place in the whole stream.
type scenario struct {
	*testbed
	since   [][]numbered
	decided int
}

type numbered struct {
	N int
	Decision
}

// newScenario builds one seeded scenario. The script is drawn from its own
// stream before anything runs, so it cannot depend on what the scheduler
// does. With byKind nil the old pump stands in; otherwise the production
// one does, its decisions are tallied there, and its order is checked.
func newScenario(t *testing.T, seed uint64, byKind *[DecisionSteal + 1]int) *scenario {
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
	if byKind == nil {
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

	sc := &scenario{testbed: tb, since: make([][]numbered, len(sites))}
	tb.s.Observer = func(d Decision) {
		i := slices.Index(sites, d.Origin)
		sc.since[i] = append(sc.since[i], numbered{sc.decided, d})
		sc.decided++
		if byKind != nil {
			byKind[d.Kind]++
			checkOrder(t, tb.s)
		}
	}
	// A scenario's tenants draw from a few requirements, so heads repeat.
	reqs := make([]Job, 2+pick(4))
	for i := range reqs {
		reqs[i] = Job{
			Kind:    []string{instrument.KindFlowReactor, instrument.KindFlowReactor, instrument.KindSynthesis}[pick(3)],
			MinCaps: floors[pick(len(floors))],
		}
	}
	var tenants []Job // each tenant's job template
	for _, site := range sites {
		for i := 0; i < 4+pick(12); i++ {
			id := fmt.Sprintf("%s-t%d", site, i)
			if pick(4) == 0 {
				id = fmt.Sprintf("shared-t%d", i) // same id at several sites
			}
			tb.s.Tenant(site, TenantConfig{
				ID:     id,
				Weight: []float64{0.5, 1, 1, 2, 4}[pick(5)],
				Class:  []Class{ClassBatch, ClassNormal, ClassNormal, ClassUrgent}[pick(4)],
			})
			j := reqs[pick(len(reqs))]
			j.Tenant, j.Origin = id, site
			j.Timeout = []sim.Time{0, 10 * sim.Minute, 40 * sim.Minute}[pick(3)]
			j.MaxRetries = 2 * pick(2)
			tenants = append(tenants, j)
		}
	}
	at := func(within sim.Time, fn func()) { tb.Eng.Schedule(sim.Time(r.Float64()*float64(within)), fn) }
	n := 0
	var submit func(j Job, followUps int)
	submit = func(j Job, followUps int) {
		n++
		j.Cmd = validCmd(fmt.Sprintf("%s/%d", j.Tenant, n))
		j.MinCaps = maps.Clone(j.MinCaps) // equal by content, never by identity
		tb.s.Submit(j, func(instrument.Result, error) {
			if followUps > 0 { // a closed loop, like a campaign refilling its slots
				submit(j, followUps-1)
			}
		})
	}
	for _, j := range tenants {
		for i, burst := 0, 1+pick(6); i < burst; i++ {
			followUps := pick(4)
			at(20*sim.Minute, func() { submit(j, followUps) })
		}
	}
	// Faults: an outage, a flaky window, a drifting (so recalibrating)
	// instrument, a partition, and a tenant released mid-run.
	down, flaky, drifty := fleet[pick(len(fleet))], fleet[pick(len(fleet))], fleet[pick(len(fleet))]
	at(30*sim.Minute, func() { down.ForceDown(20 * sim.Minute) })
	at(15*sim.Minute, func() { flaky.SetFailureProb(0.5) })
	tb.Eng.Schedule(40*sim.Minute, func() { flaky.SetFailureProb(0) })
	drifty.SetDriftPerAction(0.05)
	pa, pb := sites[pick(3)], sites[pick(3)]
	if pa != pb {
		at(25*sim.Minute, func() { tb.Net.SetLinkUp(pa, pb, false) })
		tb.Eng.Schedule(35*sim.Minute, func() { tb.Net.SetLinkUp(pa, pb, true) })
	}
	released := tenants[pick(len(tenants))].Tenant
	at(30*sim.Minute, func() { tb.s.ReleaseTenant(released) })

	return sc
}

// TestPumpMatchesReference is the differential oracle of the saturation-aware
// pump: over seeded random federations the production scheduler and the
// rebuild-sort-and-probe-everything reference must make the same decisions —
// same jobs, instruments, instants, reasons and order, expiries included —
// compared per origin site after every virtual minute of the 90 each runs.
func TestPumpMatchesReference(t *testing.T) {
	const scenarios = 300
	var byKind [DecisionSteal + 1]int
	var probes, refProbes int64
	decisions := 0
	for seed := uint64(1); seed <= scenarios; seed++ {
		p := &simtest.Pair[*scenario]{T: t, Schedule: int(seed), Got: newScenario(t, seed, &byKind), Want: newScenario(t, seed, nil),
			View: func(sc *scenario, site int) any {
				d := sc.since[site]
				sc.since[site] = d[:0] // compared before the next step appends over it
				return d
			},
			Rand: rng.New(seed),
		}
		p.Steps = append(p.Steps, p.Advance(1, sim.Minute))
		p.Run(90)
		probes += p.Got.s.probesC.Value()
		refProbes += p.Want.s.probesC.Value()
		decisions += p.Got.decided
	}
	// The sweep must have gone where the pump's branches are.
	for k := DecisionSubmit; k <= DecisionSteal; k++ {
		if byKind[k] == 0 {
			t.Errorf("no scenario produced a %s decision", k)
		}
	}
	if probes*2 > refProbes {
		t.Errorf("memo barely fired: %d route probes against the reference's %d", probes, refProbes)
	}
	t.Logf("%d scenarios, %d decisions, route probes %d (reference %d), by kind %v",
		scenarios, decisions, probes, refProbes, byKind)
}
