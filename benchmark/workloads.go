package main

import (
	"errors"
	"fmt"
	"hash/fnv"
	"math"
	"runtime"
	"sort"
	"time"

	"github.com/aisle-sim/aisle/internal/bus"
	"github.com/aisle-sim/aisle/internal/chaos"
	"github.com/aisle-sim/aisle/internal/core"
	"github.com/aisle-sim/aisle/internal/instrument"
	"github.com/aisle-sim/aisle/internal/knowledge"
	"github.com/aisle-sim/aisle/internal/netsim"
	"github.com/aisle-sim/aisle/internal/obs"
	"github.com/aisle-sim/aisle/internal/param"
	"github.com/aisle-sim/aisle/internal/prof"
	"github.com/aisle-sim/aisle/internal/rng"
	"github.com/aisle-sim/aisle/internal/sched"
	"github.com/aisle-sim/aisle/internal/sim"
	"github.com/aisle-sim/aisle/internal/trace"
	"github.com/aisle-sim/aisle/internal/twin"
)

// A workload is one set of inputs the benchmark runs. Its sizes are fixed
// per scale; the seed only feeds the input generator and core.Config.Seed.
type workload struct {
	name string
	why  string
	loop string // "closed" or "open", with the rate or client count
	// latUnit names what virt_lat_* times on this workload.
	latUnit string
	// hasBest marks the campaign workloads, where best_value_mean applies.
	hasBest bool

	// full and tiny are the workload's sizes at the two scales.
	full, tiny preparer
}

// preparer is a workload's parameters: it generates the inputs from a seed.
type preparer interface {
	prepare(seed uint64) prepared
}

// prepare generates the workload's inputs from the seed, once per variant.
func (w *workload) prepare(sc scale, seed uint64) prepared {
	if sc == scaleTiny {
		return w.tiny.prepare(seed)
	}
	return w.full.prepare(seed)
}

// prepared is a workload with its inputs generated.
type prepared struct {
	// run executes one iteration over the inputs.
	run func(o iterOpts) (*iteration, error)
	// digest fingerprints the generated inputs, so two runs can be shown to
	// have offered the same load.
	digest string
	params string
	probe  probeSizes
}

// scale selects the workload sizes: full is the benchmark, tiny the smoke
// test that keeps `go test` fast.
type scale int

const (
	scaleFull scale = iota
	scaleTiny
)

// iterOpts selects what an iteration records beyond the end-to-end numbers.
// The zero value is the untraced pass.
type iterOpts struct {
	// prof turns core.Config.Prof on so region call counts can be read.
	prof bool
	// spans, when non-nil, receives the phase spans and one child span per
	// RunUntil slice.
	spans *spanLog
	// iter tags the spans of this iteration.
	iter int
	// setupOnly stops after set-up: setup_s is a millisecond-scale time, so
	// the untraced pass repeats it many more times than whole iterations.
	setupOnly bool
}

// iteration is what one run of a workload produced. Everything except the
// host times, the allocation deltas and the GC numbers is a simulated
// statistic: it repeats exactly at a fixed seed.
type iteration struct {
	setupS, runS float64    // host seconds
	cpuS         float64    // process CPU seconds over setup+run
	phases       [4]float64 // host milliseconds
	mallocs      uint64
	allocBytes   uint64
	gcCycles     uint32
	gcPauseNs    uint64

	attempted int
	failed    int
	makespanS float64   // virtual
	lat       []float64 // virtual seconds, sorted ascending
	bestMean  float64   // NaN where it does not apply
	lateS     float64   // open loop: worst generator lateness, virtual s

	counters map[string]float64 // exact per-layer counters
	regions  *prof.Profile      // when iterOpts.prof (or the workload) enabled it
}

// phase indices into iteration.phases (host milliseconds).
const (
	phaseNew = iota
	phaseWarmup
	phaseSubmit
	phaseDrain
)

var phaseNames = [4]string{"core.new", "core.warmup", "core.submit", "core.drain"}

func workloads() []*workload {
	return []*workload{
		{
			name:    "fleet_wide",
			why:     "wide federation, shallow campaigns: sched.route over the discovery directory and netsim links is ~86% of CPU, optimize under 1%",
			loop:    "closed, 800 campaigns x 4 in flight",
			latUnit: "campaign",
			hasBest: true,
			full:    campaignParams{sites: 16, campaigns: 800, budget: 6, parallelism: 4},
			tiny:    campaignParams{sites: 3, campaigns: 6, budget: 3, parallelism: 2},
		},
		{
			name:    "deep_campaign",
			why:     "few tenants, long campaigns: GP scoring in optimize is ~4/5 of CPU, sched under 1/10; only here can best_value_mean move",
			loop:    "closed, 64 campaigns x 4 in flight",
			latUnit: "campaign",
			hasBest: true,
			full:    campaignParams{sites: 4, campaigns: 64, budget: 64, parallelism: 4},
			tiny:    campaignParams{sites: 2, campaigns: 2, budget: 10, parallelism: 2},
		},
		{
			name:    "chaos_stream",
			why:     "arrivals, faults, retries and rescue under zero trust with all observers on: bus/netsim delivery, token checks, gossip and GC",
			loop:    "open, 0.185 jobs per virtual s over 6 virtual h",
			latUnit: "job",
			full:    chaosParams{sites: 16, jobs: 4000, horizon: 6 * sim.Hour, intensity: 0.15, latLimitS: 3600},
			tiny:    chaosParams{sites: 3, jobs: 40, horizon: 30 * sim.Minute, intensity: 0.15, latLimitS: 3600},
		},
		{
			name:    "msg_storm",
			why:     "nothing but sim + netsim + bus: 5.4 M events, so spine and bus-dispatch work shows here and sched/optimize work must not",
			loop:    "open, one message per 50 virtual us",
			latUnit: "rpc",
			full:    stormParams{sites: 64, messages: 750000, gap: 50 * sim.Microsecond, latLimitS: 1},
			tiny:    stormParams{sites: 16, messages: 400, gap: 50 * sim.Microsecond, latLimitS: 1},
		},
	}
}

func findWorkload(name string) *workload {
	for _, w := range workloads() {
		if w.name == name {
			return w
		}
	}
	return nil
}

func siteNames(n int) []netsim.SiteID {
	out := make([]netsim.SiteID, n)
	for i := range out {
		out[i] = netsim.SiteID(fmt.Sprintf("site%02d", i))
	}
	return out
}

// addReactors installs two fluidic perovskite reactors at every site.
func addReactors(n *core.Network, sites []netsim.SiteID) {
	for _, id := range sites {
		s := n.Site(id)
		for k := 0; k < 2; k++ {
			s.AddInstrument(instrument.NewFluidicReactor(
				n.Eng, n.Rnd, fmt.Sprintf("flow-%d-%s", k, id), string(id), twin.Perovskite{}))
		}
	}
}

// meter brackets one iteration: host clock, allocation counters and the
// phase spans. ReadMemStats stops the world, so it is read outside the
// timed interval.
type meter struct {
	o    iterOpts
	ms0  runtime.MemStats
	cpu0 float64
	t0   time.Time
	mark time.Time
	it   *iteration
}

func startMeter(o iterOpts) *meter {
	m := &meter{o: o, it: &iteration{bestMean: math.NaN()}}
	if !o.setupOnly {
		// A set-up-only repetition takes 0.1 to 8 ms: a forced collection and
		// two stop-the-world reads around it would be most of what it times.
		runtime.GC()
		runtime.ReadMemStats(&m.ms0)
	}
	m.cpu0 = cpuSeconds()
	m.t0 = time.Now()
	m.mark = m.t0
	return m
}

// phase closes the phase that ran since the previous call.
func (m *meter) phase(idx int) {
	now := time.Now()
	m.it.phases[idx] = now.Sub(m.mark).Seconds() * 1e3
	m.o.spans.add(phaseNames[idx], "iteration", m.o.iter, m.mark, now, 0)
	m.mark = now
	if idx == phaseWarmup {
		m.it.setupS = now.Sub(m.t0).Seconds()
	}
}

func (m *meter) stop() *iteration {
	end := m.mark
	m.it.runS = end.Sub(m.t0).Seconds() - m.it.setupS
	m.it.cpuS = cpuSeconds() - m.cpu0
	m.o.spans.add("iteration", "", m.o.iter, m.t0, end, 0)
	if m.o.setupOnly {
		return m.it
	}
	var ms1 runtime.MemStats
	runtime.ReadMemStats(&ms1)
	m.it.mallocs = ms1.Mallocs - m.ms0.Mallocs
	m.it.allocBytes = ms1.TotalAlloc - m.ms0.TotalAlloc
	m.it.gcCycles = ms1.NumGC - m.ms0.NumGC
	m.it.gcPauseNs = ms1.PauseTotalNs - m.ms0.PauseTotalNs
	return m.it
}

// drain advances the engine in slices until done reports true or the
// virtual deadline passes, recording one span per slice.
func (m *meter) drain(n *core.Network, slice, deadline sim.Time, done func() bool) error {
	limit := n.Eng.Now() + deadline
	for !done() && n.Eng.Now() < limit {
		t := time.Now()
		ev := n.Eng.Processed()
		if err := n.RunFor(slice); err != nil {
			return err
		}
		m.o.spans.add("sim.run_until", phaseNames[phaseDrain], m.o.iter, t, time.Now(), n.Eng.Processed()-ev)
	}
	if !done() {
		return errors.New("virtual deadline passed with ops outstanding")
	}
	return nil
}

// ---- fleet_wide and deep_campaign: closed-loop campaign fleets ----

type campaignParams struct {
	sites, campaigns, budget, parallelism int
}

func (p campaignParams) prepare(seed uint64) prepared {
	sites := siteNames(p.sites)
	cfgs := make([]core.CampaignConfig, p.campaigns)
	h := fnv.New64a()
	for c := range cfgs {
		cfgs[c] = core.CampaignConfig{
			Name:        fmt.Sprintf("bench-%03d", c),
			Site:        sites[c%len(sites)],
			Model:       twin.Perovskite{},
			Budget:      p.budget,
			Mode:        core.OrchAgentVerified,
			SynthKind:   instrument.KindFlowReactor,
			Parallelism: p.parallelism,
		}
		fmt.Fprintf(h, "%s@%s/%d/%d;", cfgs[c].Name, cfgs[c].Site, p.budget, p.parallelism)
	}
	params := fmt.Sprintf("sites=%d reactors_per_site=2 campaigns=%d budget=%d parallelism=%d observers=off",
		p.sites, p.campaigns, p.budget, p.parallelism)
	run := func(o iterOpts) (*iteration, error) {
		m := startMeter(o)
		n := core.New(core.Config{Seed: seed, Sites: sites, Link: core.DefaultLink(),
			Prof: prof.Options{Enabled: o.prof}})
		addReactors(n, sites)
		m.phase(phaseNew)
		if err := n.RunFor(3 * sim.Minute); err != nil {
			return nil, err
		}
		m.phase(phaseWarmup)
		if o.setupOnly {
			n.Stop()
			return m.stop(), nil
		}

		start := n.Eng.Now()
		reports := make([]*core.CampaignReport, 0, len(cfgs))
		for _, cfg := range cfgs {
			n.RunCampaign(cfg, func(r *core.CampaignReport) { reports = append(reports, r) })
		}
		m.phase(phaseSubmit)
		err := m.drain(n, sim.Hour, 60*sim.Day, func() bool { return len(reports) == len(cfgs) })
		n.Stop()
		m.phase(phaseDrain)
		it := m.stop()
		if err != nil {
			return nil, err
		}
		if err := checkCampaigns(reports, p.budget); err != nil {
			return nil, err
		}

		it.attempted = p.campaigns * p.budget
		var last sim.Time
		best := 0.0
		for _, r := range reports {
			it.lat = append(it.lat, (r.Finished - r.Started).Seconds())
			best += r.BestValue
			if r.Finished > last {
				last = r.Finished
			}
		}
		sort.Float64s(it.lat)
		it.bestMean = best / float64(len(reports))
		it.makespanS = (last - start).Seconds()
		it.counters = readCounters(n, 0, 0)
		it.regions = n.Prof.Snapshot()
		return it, nil
	}
	return prepared{run: run, digest: fmt.Sprintf("campaigns=%016x", h.Sum64()), params: params,
		probe: probeSizes{sites: p.sites, reactors: 2, observations: p.budget}}
}

// checkCampaigns is the closed-loop output check: every campaign ended
// without error having executed exactly its budget.
func checkCampaigns(reports []*core.CampaignReport, budget int) error {
	for _, r := range reports {
		if r.Err != nil {
			return fmt.Errorf("campaign %s: %w", r.Name, r.Err)
		}
		if r.Executed != budget {
			return fmt.Errorf("campaign %s executed %d experiments, want %d", r.Name, r.Executed, budget)
		}
	}
	return nil
}

// ---- chaos_stream: open-loop job arrivals under a fault schedule ----

type chaosParams struct {
	sites     int
	jobs      int
	horizon   sim.Time
	intensity float64
	latLimitS float64
}

// chaosJob is one generated arrival.
type chaosJob struct {
	id     string
	due    sim.Time // offset from the start of the stream
	origin netsim.SiteID
	domain int // index into chaosDomains
	point  param.Point
}

// chaosDomains are E16's two science domains.
var chaosDomains = []struct {
	name, kind, objective string
}{
	{"perovskite", instrument.KindFlowReactor, "plqy"},
	{"electrolyte", instrument.KindSynthesis, "conductivity_mS"},
}

func (p chaosParams) prepare(seed uint64) prepared {
	sites := siteNames(p.sites)
	perov, elec := twin.Perovskite{}, twin.Electrolyte{}
	models := []twin.Model{perov, elec}

	// Arrival schedule: seed-fixed instants, independent of progress.
	gen := rng.New(seed).Fork("bench-chaos-arrivals")
	jobs := make([]chaosJob, p.jobs)
	for i := range jobs {
		jobs[i].due = sim.Time(gen.Float64() * float64(p.horizon))
	}
	sort.Slice(jobs, func(i, j int) bool { return jobs[i].due < jobs[j].due })
	ha := fnv.New64a()
	for i := range jobs {
		j := &jobs[i]
		j.id = fmt.Sprintf("job-%04d", i)
		j.origin = sites[gen.Intn(len(sites))]
		if gen.Intn(4) == 0 {
			j.domain = 1
		}
		j.point = models[j.domain].Space().Sample(gen)
		fmt.Fprintf(ha, "%d@%s/%d/%s;", j.due, j.origin, j.domain, j.point.Key())
	}
	faults := chaos.Schedule(chaos.Config{Seed: seed + 1, Horizon: p.horizon, Intensity: p.intensity}, sites)
	hf := fnv.New64a()
	byz := make(map[netsim.SiteID]bool)
	for _, ev := range faults {
		fmt.Fprintf(hf, "%s@%d+%d/%s;", ev.Kind, ev.At, ev.Duration, ev.Site)
		if ev.Kind == chaos.KindByzantine {
			byz[ev.Site] = true
		}
	}
	params := fmt.Sprintf("sites=%d jobs=%d horizon=%s rate=%.3f/s fault_intensity=%.2f fault_windows=%d max_retries=4 lat_limit=%.0fs zero_trust=on shared_knowledge=on recover=on observers=trace(ring 256)+health+prof",
		p.sites, p.jobs, p.horizon, float64(p.jobs)/p.horizon.Seconds(), p.intensity, len(faults), p.latLimitS)

	run := func(o iterOpts) (*iteration, error) {
		m := startMeter(o)
		n := core.New(core.Config{
			Seed: seed, Sites: sites, Link: core.DefaultLink(),
			ZeroTrust: true, SharedKnowledge: true,
			Sched: sched.Options{Recover: true},
			// A 256-span ring per site, not the default 8,192: every
			// flight-recorder snapshot copies all rings, and at the default
			// the 0 to ~40 snapshots a fault schedule trips make bytes per op
			// range 97 to 364 KiB across seeds, which no bound could gate.
			Trace:  trace.Options{Enabled: true, SiteCapacity: 256},
			Health: obs.Options{Enabled: true},
			Prof:   prof.Options{Enabled: true},
		})
		n.Net.DropInFlight = true
		n.Knowledge.Bounds = map[string]knowledge.SanityBound{
			"perovskite":  {Space: perov.Space(), Min: 0, Max: 1},
			"electrolyte": {Space: elec.Space(), Min: 0, Max: 60},
		}
		addReactors(n, sites)
		for _, id := range sites {
			// E16's second domain: a slower formulation station per site.
			n.Site(id).AddInstrument(instrument.New(n.Eng, n.Rnd, instrument.Config{
				Descriptor: instrument.Descriptor{
					ID: "formulate-" + string(id), Kind: instrument.KindSynthesis,
					Vendor: "SimCo", ModelName: "FormuMix 9", Site: string(id),
					Actions: []instrument.ActionSpec{{
						Name: "synthesize", Space: elec.Space(), Duration: 2 * sim.Minute,
						Outputs: []string{"conductivity_mS", "viscosity_cP"},
					}},
					Capabilities: map[string]float64{"throughput_per_hr": 30},
				},
				Twin:           twin.NewTwin(elec, twin.Noise{Rel: 0.03}),
				DurationJitter: 0.1,
				FailureProb:    0.004,
				RepairTime:     45 * sim.Minute,
			}))
		}
		checker := chaos.NewChecker()
		checker.OnViolation = n.Health.ObserveViolation
		checker.WatchNet(n.Net)
		n.Fabric.Use(checker.BusTap(n.Fed))
		tgt := chaos.Bind(n)
		poisonRnd := n.Rnd.Fork("chaos-poison")
		poisonSeq := 0
		tgt.Poison = func(site netsim.SiteID) {
			poisonSeq++
			n.Site(site).Knowledge.AddObservation("perovskite", param.Point{
				"temperature": 500 + float64(poisonSeq), "halide_ratio": 2, "residence_s": 1, "ligand_mM": 0,
			}, 5+poisonRnd.Float64())
		}
		inj := chaos.NewInjector(tgt)
		m.phase(phaseNew)
		if err := n.RunFor(3 * sim.Minute); err != nil {
			return nil, err
		}
		m.phase(phaseWarmup)
		if o.setupOnly {
			n.Stop()
			return m.stop(), nil
		}

		it := m.it
		start := n.Eng.Now()
		inj.Run(faults)
		var terminals, errored int
		var last sim.Time
		it.lat = make([]float64, 0, len(jobs))
		for i := range jobs {
			j := &jobs[i]
			n.Eng.Schedule(j.due, func() {
				due := start + j.due
				if late := (n.Eng.Now() - due).Seconds(); late > it.lateS {
					it.lateS = late
				}
				ctx := n.Tracer.Root(trace.ID(j.id))
				dom := chaosDomains[j.domain]
				checker.Submitted(j.id)
				n.Sched.Submit(sched.Job{
					Tenant: "chaos", Origin: j.origin, Kind: dom.kind,
					Cmd:     instrument.Command{Action: "synthesize", Params: j.point, SampleID: j.id, Trace: ctx},
					Timeout: 2 * sim.Hour, MaxRetries: 4, Trace: ctx,
				}, func(res instrument.Result, err error) {
					checker.Terminal(j.id, err)
					terminals++
					last = n.Eng.Now()
					if err != nil {
						errored++
						return
					}
					it.lat = append(it.lat, (last - due).Seconds())
					n.Site(j.origin).Knowledge.AddObservationT(ctx, dom.name, j.point, res.Values[dom.objective])
				})
			})
		}
		m.phase(phaseSubmit)
		err := m.drain(n, 15*sim.Minute, p.horizon+48*sim.Hour, func() bool { return terminals == len(jobs) })
		n.Stop()
		m.phase(phaseDrain)
		m.stop()
		if err != nil {
			return nil, err
		}

		honest := make([]netsim.SiteID, 0, len(sites))
		for _, id := range sites {
			if !byz[id] {
				honest = append(honest, id)
			}
		}
		checker.CheckKnowledge(n.Knowledge, honest)
		violations := checker.Check()
		if len(violations) > 0 {
			return nil, fmt.Errorf("%d invariant violations, first: %s", len(violations), violations[0])
		}
		if terminals != len(jobs) {
			return nil, fmt.Errorf("%d terminal callbacks for %d jobs", terminals, len(jobs))
		}

		sort.Float64s(it.lat)
		it.attempted = len(jobs)
		it.failed = errored
		for _, l := range it.lat {
			if l > p.latLimitS {
				it.failed++
			}
		}
		it.makespanS = (last - start).Seconds()
		it.counters = readCounters(n, inj.Injected(), len(violations))
		it.regions = n.Prof.Snapshot()
		return it, nil
	}
	return prepared{run: run, digest: fmt.Sprintf("arrivals=%016x faults=%016x", ha.Sum64(), hf.Sum64()), params: params,
		probe: probeSizes{sites: p.sites, reactors: 2}}
}

// ---- msg_storm: open-loop RPC and publish storm, no instruments ----

type stormParams struct {
	sites     int
	messages  int
	gap       sim.Time
	latLimitS float64
}

const stormTopics = 8

// stormMsg is one planned message. A publish goes to topic dst%stormTopics.
type stormMsg struct {
	src, dst uint8
	pub      bool
}

// pubRec tracks which of a publish's subscribers have seen it.
type pubRec struct{ seen, dead uint16 }

func (p stormParams) prepare(seed uint64) prepared {
	sites := siteNames(p.sites)
	gen := rng.New(seed).Fork("bench-storm-plan")
	plan := make([]stormMsg, p.messages)
	h := fnv.New64a()
	var rpcs, pubs int
	for i := range plan {
		src := gen.Intn(p.sites)
		dst := gen.Intn(p.sites - 1)
		if dst >= src {
			dst++
		}
		plan[i] = stormMsg{src: uint8(src), dst: uint8(dst), pub: gen.Intn(4) == 0}
		if plan[i].pub {
			pubs++
		} else {
			rpcs++
		}
		h.Write([]byte{plan[i].src, plan[i].dst, byte(dst % stormTopics)})
		if plan[i].pub {
			h.Write([]byte{1})
		}
	}
	// Subscribers of topic t: the sites whose index is t modulo stormTopics.
	subsPerTopic := make([]uint16, stormTopics)
	for i := 0; i < p.sites; i++ {
		subsPerTopic[i%stormTopics] |= 1 << (i / stormTopics)
	}
	topics := make([]string, stormTopics)
	for t := range topics {
		topics[t] = fmt.Sprintf("t%d", t)
	}
	params := fmt.Sprintf("sites=%d messages=%d (rpc=%d pub=%d) gap=%s rpc=512B/250ms/3 retries/2ms service pub=256B/qos1 topics=%d lat_limit=%.0fs observers=off",
		p.sites, p.messages, rpcs, pubs, p.gap, stormTopics, p.latLimitS)

	run := func(o iterOpts) (*iteration, error) {
		m := startMeter(o)
		n := core.New(core.Config{Seed: seed, Sites: sites, Link: core.DefaultLink(),
			Prof: prof.Options{Enabled: o.prof}})
		it := m.it
		var last sim.Time
		var delivered int
		for i, id := range sites {
			n.Site(id).Broker.RegisterFunc("echo", 2*sim.Millisecond,
				func(env *bus.Envelope) (any, error) { return env.Payload, nil })
			bit := uint16(1) << (i / stormTopics)
			n.Fabric.Subscribe(bus.Address{Site: id, Name: "sub"}, topics[i%stormTopics], bus.AtLeastOnce,
				func(env *bus.Envelope) {
					env.Payload.(*pubRec).seen |= bit
					delivered++
					last = n.Eng.Now()
				})
		}
		m.phase(phaseNew)
		// No instruments and no campaigns: nothing waits on gossip, so there
		// is no warm-up and the storm starts at virtual time zero.
		m.phase(phaseWarmup)
		if o.setupOnly {
			n.Stop()
			return m.stop(), nil
		}

		start := n.Eng.Now()
		recs := make([]pubRec, pubs)
		it.lat = make([]float64, 0, rpcs)
		var okN, failN, issued, nextPub int
		var issue func()
		issue = func() {
			msg := plan[issued]
			due := start + sim.Time(issued)*p.gap
			if late := (n.Eng.Now() - due).Seconds(); late > it.lateS {
				it.lateS = late
			}
			issued++
			from := bus.Address{Site: sites[msg.src], Name: "gen"}
			if msg.pub {
				rec := &recs[nextPub]
				nextPub++
				n.Fabric.Publish(bus.PublishOpts{From: from, Topic: topics[int(msg.dst)%stormTopics],
					Payload: rec, Size: 256, QoS: bus.AtLeastOnce})
			} else {
				n.Fabric.Call(bus.CallOpts{From: from, To: bus.Address{Site: sites[msg.dst], Name: "echo"},
					Method: "echo", Size: 512, Timeout: 250 * sim.Millisecond, Retries: 3},
					func(_ any, err error) {
						last = n.Eng.Now()
						if err != nil {
							failN++
							return
						}
						okN++
						it.lat = append(it.lat, (last - due).Seconds())
					})
			}
			if issued < len(plan) {
				n.Eng.Schedule(p.gap, issue)
			}
		}
		n.Eng.Schedule(0, issue)
		m.phase(phaseSubmit)
		// Publishes settle within MaxAttempts x AckTimeout (4 x 2 s) of the
		// last one; RPCs within 4 x 250 ms.
		settle := start + sim.Time(len(plan))*p.gap + 10*sim.Second
		err := m.drain(n, sim.Second, sim.Time(len(plan))*p.gap+2*sim.Minute, func() bool {
			return issued == len(plan) && okN+failN == rpcs && n.Eng.Now() >= settle
		})
		n.Stop()
		m.phase(phaseDrain)
		m.stop()
		if err != nil {
			return nil, err
		}

		// Every RPC ended exactly once, and the bus agrees.
		busOK := n.Fabric.Metrics().Counter("bus.rpc.ok").Value()
		busFail := n.Fabric.Metrics().Counter("bus.rpc.failures").Value()
		if okN+failN != rpcs || int(busOK) != okN || int(busFail) != failN {
			return nil, fmt.Errorf("rpc accounting: issued %d, callbacks ok %d failed %d, bus ok %d failed %d",
				rpcs, okN, failN, busOK, busFail)
		}
		// Every publish reached each subscriber of its topic or was dead-lettered.
		siteIdx := make(map[netsim.SiteID]int, len(sites))
		for i, id := range sites {
			siteIdx[id] = i
		}
		for _, env := range n.Fabric.DeadLetters() {
			if rec, ok := env.Payload.(*pubRec); ok {
				rec.dead |= 1 << (siteIdx[env.To.Site] / stormTopics)
			}
		}
		pubFailed, pi := 0, 0
		for _, msg := range plan {
			if !msg.pub {
				continue
			}
			rec, want := recs[pi], subsPerTopic[int(msg.dst)%stormTopics]
			pi++
			if rec.seen|rec.dead != want {
				return nil, fmt.Errorf("publish %d: subscribers seen %b dead-lettered %b, want %b", pi-1, rec.seen, rec.dead, want)
			}
			if rec.dead != 0 {
				pubFailed++
			}
		}

		sort.Float64s(it.lat)
		it.attempted = len(plan)
		it.failed = failN + pubFailed
		for _, l := range it.lat {
			if l > p.latLimitS {
				it.failed++
			}
		}
		it.makespanS = (last - start).Seconds()
		it.counters = readCounters(n, 0, 0)
		it.regions = n.Prof.Snapshot()
		return it, nil
	}
	return prepared{run: run, digest: fmt.Sprintf("plan=%016x", h.Sum64()), params: params,
		probe: probeSizes{sites: p.sites}}
}
