package core

// Batched dispatch: with CampaignConfig.Parallelism > 1 a campaign keeps k
// experiments in flight through the federation scheduler instead of
// walking the serial ask -> run -> tell loop. Proposals come from the
// Bayesian optimizer's constant-liar batch ask, decisions overlap with
// executing experiments, and every completion immediately refills the
// pipeline — so campaign throughput tracks fleet capacity, not the sum of
// decision and action latencies.
//
// The per-decision hot path underneath is the incremental GP engine in
// internal/optimize (O(n^2) factor appends, fantasy overlay, allocation-
// free batch scoring) plus the scheduler's clone-free directory routing
// (discovery.BrowseFunc); together they keep saturated multi-tenant
// refills off every cubic or allocating path.

import (
	"fmt"
	"sort"

	"github.com/aisle-sim/aisle/internal/instrument"
	"github.com/aisle-sim/aisle/internal/llm"
	"github.com/aisle-sim/aisle/internal/param"
	"github.com/aisle-sim/aisle/internal/prof"
	"github.com/aisle-sim/aisle/internal/sched"
	"github.com/aisle-sim/aisle/internal/sim"
)

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
			// A knowledge reuse costs a catalog lookup, not an
			// experiment — same 30s charge as the serial path; launching
			// resumes afterwards while in-flight work continues.
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
// elapses. Decisions for different slots overlap — the agent is not the
// bottleneck the serial loop makes it.
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

// submitSched ships one proposal through the federation scheduler, with
// the same retry-on-failure policy as the serial path.
func (c *campaign) submitSched(prop llm.Proposal, sample string, failures int, et *expTrace) {
	if c.finished {
		return
	}
	// Mirror the serial path's failure mode: a kind absent from the
	// federation directory fails the campaign rather than parking jobs.
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
		Timeout: c.cfg.InstrumentTimeout,
		Trace:   et.ctxOr(),
	}, func(res instrument.Result, err error) {
		if c.finished {
			return
		}
		c.rep.InstrumentTime += c.n.Eng.Now() - started
		if err != nil {
			c.rep.Failures++
			if failures+1 <= c.cfg.MaxFailuresPerPoint {
				c.submitSched(prop, sample, failures+1, et)
				return
			}
			// Give up on this point: release its slot and its budget so
			// the pipeline replaces it, as the serial loop would.
			delete(c.flyingPts, sample)
			c.flying--
			c.launched--
			c.endExperiment(et)
			c.n.Eng.Schedule(0, c.fill)
			return
		}
		delete(c.flyingPts, sample)
		c.ingest(prop, res, et, func() {
			c.endExperiment(et)
			c.flying--
			c.fill()
		})
	})
}
