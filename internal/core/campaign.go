package core

import (
	"errors"
	"fmt"
	"sort"

	"github.com/aisle-sim/aisle/internal/fabric"
	"github.com/aisle-sim/aisle/internal/instrument"
	"github.com/aisle-sim/aisle/internal/llm"
	"github.com/aisle-sim/aisle/internal/netsim"
	"github.com/aisle-sim/aisle/internal/optimize"
	"github.com/aisle-sim/aisle/internal/param"
	"github.com/aisle-sim/aisle/internal/prof"
	"github.com/aisle-sim/aisle/internal/rng"
	"github.com/aisle-sim/aisle/internal/sched"
	"github.com/aisle-sim/aisle/internal/sim"
	"github.com/aisle-sim/aisle/internal/trace"
	"github.com/aisle-sim/aisle/internal/twin"
)

// Orchestration selects who turns optimizer candidates into instrument
// commands — the experiment axis of milestone M8.
type Orchestration int

// Orchestration modes.
const (
	// OrchManual is the human baseline: slow, working-hours bound.
	OrchManual Orchestration = iota
	// OrchAgent is an LLM agent without verification tools.
	OrchAgent
	// OrchAgentVerified is an LLM agent with digital-twin verification.
	OrchAgentVerified
)

// String renders the mode.
func (o Orchestration) String() string {
	return [...]string{"manual", "agent", "agent+verify"}[o]
}

// CampaignConfig describes one closed-loop discovery campaign.
type CampaignConfig struct {
	Name   string
	Site   netsim.SiteID
	Model  twin.Model
	Budget int // experiments to execute (excluding knowledge-base hits)
	// Target stops the campaign early once the best measured objective
	// reaches it (0 disables).
	Target float64
	// Mode selects the orchestrator.
	Mode Orchestration
	// SynthKind is the instrument kind performing experiments.
	SynthKind string
	// CharacterizeKind optionally adds a characterization step per
	// experiment ("" disables).
	CharacterizeKind string
	// UseKnowledge seeds the optimizer from the site's knowledge base,
	// skips points already measured anywhere in the federation, and
	// publishes results back.
	UseKnowledge bool
	// SeedLabel decorrelates replicas.
	SeedLabel string
	// Parallelism is how many experiments the campaign keeps in flight
	// through the federation scheduler. 0 and 1 both mean one at a time.
	Parallelism int
	// FairWeight is the campaign's fair-share weight at the scheduler
	// (default 1).
	FairWeight float64
	// Priority is the campaign's scheduler class. The zero value is
	// normal priority.
	Priority sched.Class
}

const (
	// maxFailuresPerPoint bounds instrument-failure retries of one point.
	maxFailuresPerPoint = 2
	// instrumentTimeout bounds one instrument call.
	instrumentTimeout = 48 * sim.Hour
)

// CampaignReport is the outcome of one campaign.
type CampaignReport struct {
	Name      string
	Mode      Orchestration
	Executed  int // experiments run on instruments
	Reused    int // knowledge-base hits that avoided an experiment
	Failures  int // instrument failures encountered
	BestValue float64
	BestPoint param.Point

	Started  sim.Time
	Finished sim.Time

	DecisionTime   sim.Time // total orchestration latency
	InstrumentTime sim.Time // total time waiting on instruments

	Correct   int // emitted command matched planner intent
	Incorrect int
	Repaired  int // verification repairs

	Traces    int
	Approvals int // scientist approvals of reasoning traces

	Err error
}

// Makespan is the campaign's total virtual duration.
func (r *CampaignReport) Makespan() sim.Time { return r.Finished - r.Started }

// Correctness is the fraction of executed experiments whose command matched
// intent (M8's "experimental correctness").
func (r *CampaignReport) Correctness() float64 {
	total := r.Correct + r.Incorrect
	if total == 0 {
		return 1
	}
	return float64(r.Correct) / float64(total)
}

// ApprovalRate is the scientist trace-approval fraction (M9).
func (r *CampaignReport) ApprovalRate() float64 {
	if r.Traces == 0 {
		return 1
	}
	return float64(r.Approvals) / float64(r.Traces)
}

// ErrNoInstrument is reported when discovery finds no instrument of the
// campaign's kind.
var ErrNoInstrument = errors.New("core: no instrument available")

// RunCampaign executes the closed loop asynchronously; cb receives the
// final report. Drive the engine (n.Eng.Run or RunUntil) to make progress.
//
// Every experiment goes through the federation scheduler. The campaign
// keeps up to Parallelism of them in flight: proposals come from the
// Bayesian optimizer's constant-liar batch ask, decisions overlap with
// executing experiments, and every completion immediately refills the
// pipeline.
func (n *Network) RunCampaign(cfg CampaignConfig, cb func(*CampaignReport)) {
	if cfg.Parallelism < 1 {
		cfg.Parallelism = 1
	}
	site := n.Site(cfg.Site)
	if site == nil {
		cb(&CampaignReport{Name: cfg.Name, Err: fmt.Errorf("core: unknown site %q", cfg.Site)})
		return
	}

	c := &campaign{
		n:    n,
		cfg:  cfg,
		site: site,
		rep: &CampaignReport{
			Name: cfg.Name, Mode: cfg.Mode, Started: n.Eng.Now(),
			BestValue: -1e300,
		},
		cb:  cb,
		rnd: n.Rnd.Fork("campaign/" + cfg.Name + "/" + cfg.SeedLabel),
	}
	c.opt = optimize.NewBayes(cfg.Model.Space(), c.rnd.Fork("opt"), optimize.BayesOpts{})
	c.approver = llm.NewApprovalModel(c.rnd.Fork("review"))

	// Causal tracing: the campaign is one trace, rooted here. The trace ID
	// derives from the same label that decorrelates replicas, so a
	// fixed-seed run traces identically and sampling is per-campaign.
	c.tctx = n.Tracer.Root(trace.ID(cfg.Name + "/" + cfg.SeedLabel))
	if c.tctx.Enabled() {
		c.root, c.tctx = c.tctx.Start(n.Eng.Now(), string(cfg.Site), trace.KindCampaign, cfg.Name)
	}

	tw := twin.NewTwin(cfg.Model, twin.Noise{})
	switch cfg.Mode {
	case OrchManual:
		c.human = llm.NewHuman(c.rnd.Fork("human"))
	case OrchAgent:
		c.agent = llm.NewOrchestrator(c.rnd.Fork("agent"), nil)
	case OrchAgentVerified:
		c.agent = llm.NewOrchestrator(c.rnd.Fork("agent"), tw)
	}

	// Transfer learning: prior observations inform the surrogate, but the
	// campaign's reported best still requires a locally confirmed (or
	// reused) measurement.
	if cfg.UseKnowledge {
		pts, vals := site.Knowledge.Observations(cfg.Model.Name())
		if len(pts) > 0 {
			c.opt.Seed(pts, vals, 0.7)
		}
	}

	// Provenance: the campaign is an agent acting for the site.
	n.Mesh.Prov.AddAgent("campaign:"+cfg.Name, map[string]string{"site": string(cfg.Site)})

	n.Sched.Tenant(cfg.Site, sched.TenantConfig{
		ID: cfg.Name, Weight: cfg.FairWeight, Class: cfg.Priority,
	})
	c.fill()
}

type campaign struct {
	n        *Network
	cfg      CampaignConfig
	site     *Site
	rep      *CampaignReport
	cb       func(*CampaignReport)
	rnd      *rng.Stream
	opt      *optimize.Bayes
	agent    *llm.Orchestrator
	human    *llm.Human
	approver *llm.ApprovalModel

	reuseStreak int
	finished    bool

	// Tracing state. tctx is the context under the campaign root span (the
	// zero value when tracing is off or the trace was not sampled); root is
	// the campaign span itself, finished in finish().
	tctx trace.Context
	root trace.Span

	// Pipeline state.
	launched  int                    // experiments submitted and not permanently dropped
	flying    int                    // proposals being decided or executing
	seq       int                    // sample-ID sequence across concurrent flights
	flyingPts map[string]param.Point // intended points in flight, by sample ID
}

// expTrace is one experiment's span state, heap-allocated only when the
// campaign's trace is enabled; a nil *expTrace threads through the loop for
// free otherwise (closures capture one nil pointer, no span storage).
type expTrace struct {
	span trace.Span
	ctx  trace.Context
}

// ctxOr returns the experiment's trace context, or the disabled zero value.
func (et *expTrace) ctxOr() trace.Context {
	if et == nil {
		return trace.Context{}
	}
	return et.ctx
}

// beginExperiment opens one iteration's core.experiment span under the
// campaign root. Returns nil when tracing is off.
func (c *campaign) beginExperiment(sample string) *expTrace {
	if !c.tctx.Enabled() {
		return nil
	}
	et := &expTrace{}
	et.span, et.ctx = c.tctx.Start(c.n.Eng.Now(), string(c.cfg.Site), trace.KindExperiment, sample)
	return et
}

// endExperiment closes the iteration span.
func (c *campaign) endExperiment(et *expTrace) {
	if et != nil {
		et.ctx.Finish(&et.span, c.n.Eng.Now())
	}
}

// markReuse records the catalog-lookup wait of a knowledge hit as a
// core.reuse span directly under the campaign root.
func (c *campaign) markReuse(wait sim.Time) {
	if c.tctx.Enabled() {
		now := c.n.Eng.Now()
		sp, cc := c.tctx.Start(now, string(c.cfg.Site), trace.KindReuse, "knowledge-hit")
		cc.Finish(&sp, now+wait)
	}
}

// decide runs the orchestration decision for an intended point, with all
// report accounting (latency, repairs, traces, approvals).
func (c *campaign) decide(intended param.Point, et *expTrace) llm.Proposal {
	r := c.n.Prof.Enter(prof.SiteCoreDecide)
	defer r.End()
	var prop llm.Proposal
	goal := fmt.Sprintf("maximize %s of %s", c.cfg.Model.Objective(), c.cfg.Model.Name())
	if c.human != nil {
		prop = c.human.Propose(intended, c.cfg.Model.Space(), c.n.Eng.Now(), goal)
	} else {
		prop = c.agent.Propose(intended, c.cfg.Model.Space(), goal)
	}
	if et != nil {
		// The decision's virtual extent is its modeled latency, elapsed by
		// the caller's Schedule — span it now while the proposal is at hand.
		now := c.n.Eng.Now()
		sp, cc := et.ctx.Start(now, string(c.cfg.Site), trace.KindDecide, c.cfg.Mode.String())
		if prop.Repaired {
			sp.SetAttr("repaired", 1)
		}
		cc.Finish(&sp, now+prop.Latency)
	}
	c.rep.DecisionTime += prop.Latency
	if prop.Repaired {
		c.rep.Repaired++
	}
	c.rep.Traces++
	if c.approver.Approves(prop.Trace) {
		c.rep.Approvals++
	}
	return prop
}

// ingest scores correctness, feeds the optimizer and knowledge base,
// records provenance, characterizes if configured, and finally lands the
// flight.
func (c *campaign) ingest(prop llm.Proposal, res instrument.Result, et *expTrace) {
	c.rep.Executed++
	if prop.Correct() {
		c.rep.Correct++
	} else {
		c.rep.Incorrect++
	}

	obj := c.cfg.Model.Objective()
	value := res.Values[obj]
	// The optimizer is told the planner's intent; when a defect slipped
	// through, the label is wrong — exactly the failure mode the paper's
	// verification milestone exists to prevent.
	c.opt.Tell(prop.Intended, value)
	if value > c.rep.BestValue {
		c.rep.BestValue = value
		c.rep.BestPoint = prop.Emitted.Clone()
	}

	if c.cfg.UseKnowledge {
		c.site.Knowledge.AddObservationT(et.ctxOr(), c.cfg.Model.Name(), prop.Emitted, value)
	}

	// Provenance + dataset record for this experiment.
	prov := c.n.Mesh.Prov
	entID := prov.AddEntity(fmt.Sprintf("result:%s", res.SampleID), map[string]string{
		"objective": fmt.Sprintf("%.4f", value),
	})
	actID := prov.AddActivity("experiment:"+res.SampleID, res.Started, res.Finished)
	prov.WasGeneratedBy(entID, actID)
	prov.WasAssociatedWith(actID, fabric.AgentID("campaign:"+c.cfg.Name))

	// Characterization hop, through the scheduler like the synthesis (it
	// lands wherever the kind has capacity, possibly at another site).
	if kind := c.cfg.CharacterizeKind; kind != "" && c.site.Registry.HasType(kind) {
		started := c.n.Eng.Now()
		c.n.Sched.Submit(sched.Job{
			Tenant: c.cfg.Name, Origin: c.cfg.Site, Kind: kind,
			Cmd: instrument.Command{
				Action:   charActionFor(kind),
				Params:   param.Point{"scan_resolution": 1, "exposure_s": 60},
				SampleID: res.SampleID,
				Trace:    et.ctxOr(),
			},
			Timeout: instrumentTimeout,
			Trace:   et.ctxOr(),
		}, func(instrument.Result, error) {
			if c.finished {
				return
			}
			c.rep.InstrumentTime += c.n.Eng.Now() - started
			c.land(et)
		})
		return
	}
	c.land(et)
}

func charActionFor(kind string) string {
	switch kind {
	case instrument.KindXRD:
		return "scan"
	case instrument.KindTEM:
		return "image"
	case instrument.KindSpectrometer:
		return "spectrum"
	default:
		return "scan"
	}
}

func (c *campaign) finish(err error) {
	if c.finished {
		return
	}
	c.finished = true
	c.rep.Finished = c.n.Eng.Now()
	c.rep.Err = err
	c.tctx.Finish(&c.root, c.rep.Finished)
	c.n.Sched.ReleaseTenant(c.cfg.Name)
	c.n.Metrics.Counter("core.campaigns").Inc()
	c.cb(c.rep)
}

// fill tops the pipeline up to Parallelism in-flight experiments and
// finishes the campaign once the budget (or target) is met and the last
// flight lands.
func (c *campaign) fill() {
	if c.finished {
		return
	}
	stop := c.cfg.Target > 0 && c.rep.BestValue >= c.cfg.Target
	for !stop && c.flying < c.cfg.Parallelism && c.launched < c.cfg.Budget {
		p, ok := c.nextPoint()
		if !ok {
			// A knowledge reuse costs a 30s catalog lookup, not an
			// experiment; launching resumes afterwards while in-flight
			// work continues.
			c.markReuse(30 * sim.Second)
			c.n.Eng.Schedule(30*sim.Second, c.fill)
			return
		}
		c.launch(p)
		stop = c.cfg.Target > 0 && c.rep.BestValue >= c.cfg.Target
	}
	if c.flying == 0 && (stop || c.launched >= c.cfg.Budget) {
		c.finish(nil)
	}
}

// inflightPoints lists the intended points currently executing, in a
// deterministic order, so batch asks can fantasize over them.
func (c *campaign) inflightPoints() []param.Point {
	keys := make([]string, 0, len(c.flyingPts))
	for k := range c.flyingPts {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	out := make([]param.Point, len(keys))
	for i, k := range keys {
		out[i] = c.flyingPts[k]
	}
	return out
}

// nextPoint draws one intended point, fantasizing over the still-in-flight
// points (constant liar) so the proposal does not duplicate executing
// experiments. Asking per freed slot — rather than buffering a batch —
// means every proposal sees all evidence Telled so far, and it is cheap:
// the optimizer's fantasy overlay appends the in-flight rows to the shared
// Cholesky factor in O(n^2) each and retracts them by truncation, so a
// refill never refits the surrogate. A federation knowledge hit is
// consumed instead (ok=false): the known value feeds the optimizer without
// costing a flight slot, and the caller pays the catalog-lookup latency
// before drawing again.
func (c *campaign) nextPoint() (param.Point, bool) {
	var p param.Point
	r := c.n.Prof.Enter(prof.SiteCoreDecide)
	if fly := c.inflightPoints(); len(fly) > 0 {
		p = c.opt.AskBatch(1, fly)[0]
	} else {
		p = c.opt.Ask()
	}
	r.End()
	if c.tryReuse(p) {
		return nil, false
	}
	return p, true
}

// tryReuse consumes a federation knowledge hit for p, reporting whether it
// did. Misses reset the reuse streak that caps consecutive hits.
func (c *campaign) tryReuse(p param.Point) bool {
	if c.cfg.UseKnowledge && c.reuseStreak < 5 {
		if v, ok := c.site.Knowledge.HasObservation(c.cfg.Model.Name(), p); ok {
			c.rep.Reused++
			c.reuseStreak++
			c.opt.Tell(p, v)
			if v > c.rep.BestValue {
				c.rep.BestValue = v
				c.rep.BestPoint = p.Clone()
			}
			return true
		}
	}
	c.reuseStreak = 0
	return false
}

// launch claims a flight slot, runs the orchestration decision, and
// submits the emitted command to the scheduler once the decision latency
// elapses. Decisions for different slots overlap.
func (c *campaign) launch(intended param.Point) {
	c.flying++
	c.launched++
	sample := fmt.Sprintf("%s-%04d", c.cfg.Name, c.seq)
	c.seq++
	if c.flyingPts == nil {
		c.flyingPts = make(map[string]param.Point)
	}
	c.flyingPts[sample] = intended.Clone()
	et := c.beginExperiment(sample)
	prop := c.decide(intended, et)
	c.n.Eng.Schedule(prop.Latency, func() { c.submitSched(prop, sample, 0, et) })
}

// submitSched ships one proposal through the federation scheduler,
// retrying a failed experiment up to maxFailuresPerPoint times.
func (c *campaign) submitSched(prop llm.Proposal, sample string, failures int, et *expTrace) {
	if c.finished {
		return
	}
	// A kind absent from the federation directory fails the campaign
	// rather than parking jobs.
	if !c.site.Registry.HasType(c.cfg.SynthKind) {
		c.finish(fmt.Errorf("%w: kind %s at %s", ErrNoInstrument, c.cfg.SynthKind, c.cfg.Site))
		return
	}
	cmd := instrument.Command{
		Action:   "synthesize",
		Params:   prop.Emitted,
		SampleID: sample,
		Trace:    et.ctxOr(),
	}
	started := c.n.Eng.Now()
	c.n.Sched.Submit(sched.Job{
		Tenant:  c.cfg.Name,
		Origin:  c.cfg.Site,
		Kind:    c.cfg.SynthKind,
		Cmd:     cmd,
		Timeout: instrumentTimeout,
		Trace:   et.ctxOr(),
	}, func(res instrument.Result, err error) {
		if c.finished {
			return
		}
		c.rep.InstrumentTime += c.n.Eng.Now() - started
		if err != nil {
			c.rep.Failures++
			if failures+1 <= maxFailuresPerPoint {
				c.submitSched(prop, sample, failures+1, et)
				return
			}
			// Give up on this point: release its slot and its budget so
			// the pipeline replaces it.
			delete(c.flyingPts, sample)
			c.flying--
			c.launched--
			c.endExperiment(et)
			c.n.Eng.Schedule(0, c.fill)
			return
		}
		delete(c.flyingPts, sample)
		c.ingest(prop, res, et)
	})
}

// land closes a completed experiment's flight and refills the pipeline.
func (c *campaign) land(et *expTrace) {
	c.endExperiment(et)
	c.flying--
	c.fill()
}
