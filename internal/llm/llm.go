// Package llm models the LLM-based orchestration agents of the paper's
// dimension 3. The paper's architecture treats LLM agents as probabilistic,
// higher-latency orchestrators that coordinate deterministic tools
// (optimizers, twins, instruments) and must be wrapped in verification
// infrastructure to be trustworthy (milestone M8).
//
// Rather than wrapping a real language model, the package implements a
// stochastic cognitive model with exactly the failure modes the paper
// worries about: plan steps acquire defects (unit slips, out-of-range
// setpoints, parameter transpositions, stale values) at a configurable
// rate, some defects violate physics (catchable by a digital-twin
// verifier) while others are subtle (in-range but wrong), and verification
// repairs cost latency. A parameterized human orchestrator — slower,
// nearly defect-free, constrained to working hours — provides the manual
// baseline the paper's 3x speedup claim compares against.
package llm

import (
	"fmt"

	"github.com/aisle-sim/aisle/internal/param"
	"github.com/aisle-sim/aisle/internal/rng"
	"github.com/aisle-sim/aisle/internal/sim"
	"github.com/aisle-sim/aisle/internal/twin"
)

// DefectKind classifies injected plan defects.
type DefectKind string

// Defect kinds. UnitSlip and RangeError usually violate physics bounds
// (catchable); Transpose and StaleValue are subtle — physically plausible
// but wrong.
const (
	DefectNone       DefectKind = ""
	DefectUnitSlip   DefectKind = "unit-slip"
	DefectRangeError DefectKind = "range-error"
	DefectTranspose  DefectKind = "transpose"
	DefectStaleValue DefectKind = "stale-value"
)

// Proposal is one orchestration decision: the parameters the agent intends
// to run next, possibly corrupted in transcription.
type Proposal struct {
	Intended param.Point // what the planner meant: the caller's point
	Emitted  param.Point // what it actually wrote: Intended itself iff Defect == DefectNone
	Defect   DefectKind
	// Repaired marks proposals fixed by the verification loop.
	Repaired bool
	// Latency is the total decision latency including repairs.
	Latency sim.Time
	// Trace is the reasoning trace for scientist review.
	Trace Trace
}

// Correct reports whether the emitted command matches intent.
func (p *Proposal) Correct() bool {
	if len(p.Intended) != len(p.Emitted) {
		return false
	}
	for k, v := range p.Intended {
		ev, ok := p.Emitted[k]
		if !ok {
			return false
		}
		d := ev - v
		if d < 0 {
			d = -d
		}
		tol := 1e-9 * (1 + abs(v))
		if d > tol {
			return false
		}
	}
	return true
}

// Trace is a reasoning trace: the grounded rationale a scientist reviews
// (milestone M9 requires >90% approval of traces).
type Trace struct {
	Goal      string
	Steps     []string
	Citations int  // references to knowledge-base entries or prior data
	Grounded  bool // claims tied to tool outputs rather than free assertion
}

// VerifyMode selects the verification depth (the E2 ablation axis).
type VerifyMode int

// Verification depths.
const (
	// VerifyOff executes proposals unchecked.
	VerifyOff VerifyMode = iota
	// VerifyBounds checks physics constraints and parameter bounds only.
	VerifyBounds
	// VerifyFull adds the digital-twin prediction cross-check: the twin's
	// predicted objective for the emitted command must match the prediction
	// recorded for the planner's intent (milestone M3's in-silico dry run).
	VerifyFull
)

// Orchestrator is the simulated LLM agent.
type Orchestrator struct {
	rnd *rng.Stream

	// DefectRate is the per-proposal probability of a transcription defect.
	// Published agent-reliability studies and the paper's own framing put
	// unverified agent error rates well above the 5% that M8's ">95%
	// correctness" target implies; default 0.25.
	DefectRate float64
	// SubtleFraction is the share of defects that stay physically plausible
	// (in-range) and therefore evade constraint checking. Default 0.2.
	SubtleFraction float64
	// DecisionLatency is the base thinking latency per proposal.
	// Default 30s.
	DecisionLatency sim.Time
	// RepairLatency is the extra cost of one verification repair round.
	// Default 15s.
	RepairLatency sim.Time
	// Verifier, when set, preflights every proposal against the digital
	// twin and repairs violations (up to MaxRepairs rounds).
	Verifier *twin.Twin
	// Mode selects verification depth; ignored when Verifier is nil.
	Mode VerifyMode
	// PredictionTol is the relative objective-prediction mismatch that
	// VerifyFull flags. Default 0.02.
	PredictionTol float64
	// MaxRepairs bounds verification repair rounds. Default 3.
	MaxRepairs int

	proposals int
	defects   int
	repairs   int
	caught    int
}

// NewOrchestrator builds an agent with the given defect profile. A non-nil
// verifier enables VerifyFull by default.
func NewOrchestrator(r *rng.Stream, verifier *twin.Twin) *Orchestrator {
	o := &Orchestrator{
		rnd:             r.Fork("llm"),
		DefectRate:      0.25,
		SubtleFraction:  0.2,
		DecisionLatency: 30 * sim.Second,
		RepairLatency:   15 * sim.Second,
		Verifier:        verifier,
		PredictionTol:   0.02,
		MaxRepairs:      3,
	}
	if verifier != nil {
		o.Mode = VerifyFull
	}
	return o
}

// Stats reports lifetime counters: proposals, injected defects, repair
// rounds, and defects caught by verification.
func (o *Orchestrator) Stats() (proposals, defects, repairs, caught int) {
	return o.proposals, o.defects, o.repairs, o.caught
}

// Propose turns an intended parameter point (from an optimizer or planner)
// into an executed command, modelling transcription defects and the
// verification loop. The space is needed to synthesize realistic defects.
func (o *Orchestrator) Propose(intended param.Point, space param.Space, goal string) Proposal {
	o.proposals++
	p := Proposal{
		Intended: intended,
		Emitted:  intended,
		Latency:  o.DecisionLatency,
		Trace: Trace{
			Goal: goal,
			Steps: []string{
				"selected candidate via surrogate acquisition",
				fmt.Sprintf("emitting %d parameters to instrument", len(intended)),
			},
			Citations: 1,
			Grounded:  true,
		},
	}

	if o.rnd.Bool(o.DefectRate) {
		o.defects++
		p.Defect = o.injectDefect(&p, space)
		p.Trace.Grounded = false // defective steps lack tool grounding
	}

	if o.Verifier == nil || o.Mode == VerifyOff {
		return p
	}

	// Verification loop: preflight, repair on violation.
	for round := 0; round < o.MaxRepairs; round++ {
		violation := o.check(&p)
		if violation == "" {
			break
		}
		o.caught++
		o.repairs++
		p.Latency += o.RepairLatency
		p.Trace.Steps = append(p.Trace.Steps,
			fmt.Sprintf("verifier flagged %s; regenerating command", violation))
		// Repair: re-emit from intent (the defect was in transcription).
		p.Emitted = p.Intended
		p.Repaired = true
		p.Trace.Grounded = true
		p.Trace.Citations++
		// A repeated defect on the repair round is possible but rarer.
		if o.rnd.Bool(o.DefectRate / 4) {
			o.defects++
			p.Defect = o.injectDefect(&p, space)
		} else {
			p.Defect = DefectNone
			break
		}
	}
	return p
}

// check returns the first violation found at the configured verification
// depth, or "" when the proposal passes.
func (o *Orchestrator) check(p *Proposal) string {
	if violations := o.Verifier.Verifier.Verify(p.Emitted); len(violations) > 0 {
		return violations[0].Rule
	}
	// Defect-free, the command is the intent: a cross-check cannot fail.
	if o.Mode != VerifyFull || p.Defect == DefectNone {
		return ""
	}
	// Twin prediction cross-check: the prediction for the emitted command
	// must match the prediction recorded at planning time for the intent.
	expected, intentViol := o.Verifier.Preflight(p.Intended)
	if len(intentViol) > 0 {
		// The plan itself is infeasible; bounds repair can't help, and the
		// optimizer layer is responsible. Treat as passing here.
		return ""
	}
	obj := o.Verifier.Model.Objective()
	want, got := expected[obj], o.Verifier.Model.Eval(p.Emitted)[obj]
	if abs(got-want)/max(abs(want), 1e-9) > o.PredictionTol {
		return "twin-prediction-mismatch"
	}
	return ""
}

// injectDefect corrupts one dimension of a copy of prop.Intended, which
// becomes prop.Emitted, and returns the defect kind.
func (o *Orchestrator) injectDefect(prop *Proposal, space param.Space) DefectKind {
	if len(space) == 0 {
		return DefectNone
	}
	p := prop.Intended.Clone()
	prop.Emitted = p
	d := space[o.rnd.Intn(len(space))]
	if o.rnd.Bool(o.SubtleFraction) { // subtle: stays in range
		if o.rnd.Bool(0.5) && len(space) >= 2 {
			// Transpose two parameter values, then clamp into range so the
			// command stays plausible.
			e := space[o.rnd.Intn(len(space))]
			for e.Name == d.Name {
				e = space[o.rnd.Intn(len(space))]
			}
			p[d.Name], p[e.Name] = d.Snap(e.Snap(p[e.Name])), e.Snap(d.Snap(p[d.Name]))
			return DefectTranspose
		}
		// Stale value: reuse a plausible but wrong value (mid-range).
		p[d.Name] = d.Snap(d.Lo + 0.5*(d.Hi-d.Lo) + o.rnd.Normal(0, 0.05*(d.Hi-d.Lo)))
		return DefectStaleValue
	}
	if o.rnd.Bool(0.5) {
		// Unit slip: factor-of-60 or factor-of-1000 scaling, usually lands
		// far outside the feasible window.
		factor := 60.0
		if o.rnd.Bool(0.5) {
			factor = 1000
		}
		if o.rnd.Bool(0.5) {
			p[d.Name] *= factor
		} else {
			p[d.Name] /= factor
		}
		return DefectUnitSlip
	}
	// Range error: setpoint beyond the physical envelope.
	p[d.Name] = d.Hi + (d.Hi-d.Lo)*o.rnd.Range(0.1, 0.5)
	return DefectRangeError
}

// ApprovalModel scores reasoning traces the way the paper's M9 milestone is
// assessed: a scientist approves a trace when it is grounded in tool
// outputs and cites prior knowledge; ungrounded or citation-free traces are
// usually rejected.
type ApprovalModel struct {
	rnd *rng.Stream
}

// NewApprovalModel seeds a reviewer.
func NewApprovalModel(r *rng.Stream) *ApprovalModel {
	return &ApprovalModel{rnd: r.Fork("approval")}
}

// Approves returns the reviewer's verdict on one trace.
func (m *ApprovalModel) Approves(t Trace) bool {
	p := 0.35 // base rate for an unexceptional trace
	if t.Grounded {
		p += 0.45
	}
	if t.Citations >= 1 {
		p += 0.15
	}
	if t.Citations >= 3 {
		p += 0.05
	}
	if len(t.Steps) >= 2 {
		p += 0.05
	}
	if p > 0.99 {
		p = 0.99
	}
	return m.rnd.Bool(p)
}

// Human is the manual-orchestration baseline: near-perfect decisions but
// slow, and only during working hours. The decades-to-months framing of the
// paper is largely this model: instruments idle while humans sleep,
// deliberate, and coordinate across institutions.
type Human struct {
	rnd *rng.Stream

	// DecisionMin/Mode/Max parameterize the triangular decision-latency
	// distribution. Defaults 20/45/120 minutes.
	DecisionMin, DecisionMode, DecisionMax sim.Time
	// WorkdayStart/End bound when decisions complete (hours, 0-24).
	// Defaults 9 and 17.
	WorkdayStart, WorkdayEnd int
	// Weekends: when true (default), no decisions on days 6 and 7.
	Weekends bool
	// DefectRate is small but non-zero; humans transcribe wrong too.
	// Default 0.02.
	DefectRate float64
}

// NewHuman builds the baseline human orchestrator.
func NewHuman(r *rng.Stream) *Human {
	return &Human{
		rnd:          r.Fork("human"),
		DecisionMin:  20 * sim.Minute,
		DecisionMode: 45 * sim.Minute,
		DecisionMax:  120 * sim.Minute,
		WorkdayStart: 9,
		WorkdayEnd:   17,
		Weekends:     true,
		DefectRate:   0.02,
	}
}

// DecisionLatency returns how long a decision takes if it starts at the
// virtual instant now: the raw deliberation time plus any wait until the
// scientist is at work.
func (h *Human) DecisionLatency(now sim.Time) sim.Time {
	think := sim.Time(h.rnd.Triangular(float64(h.DecisionMin), float64(h.DecisionMode), float64(h.DecisionMax)))
	ready := now + think
	return h.nextWorkingInstant(ready) - now
}

// nextWorkingInstant rolls an instant forward to the next moment within
// working hours.
func (h *Human) nextWorkingInstant(t sim.Time) sim.Time {
	for {
		dayIndex := int(t / sim.Day)
		hour := int((t % sim.Day) / sim.Hour)
		weekday := dayIndex % 7 // day 0 is a Monday
		if h.Weekends && weekday >= 5 {
			// Jump to next Monday at WorkdayStart.
			daysAhead := 7 - weekday
			t = sim.Time(dayIndex+daysAhead)*sim.Day + sim.Time(h.WorkdayStart)*sim.Hour
			continue
		}
		if hour < h.WorkdayStart {
			t = sim.Time(dayIndex)*sim.Day + sim.Time(h.WorkdayStart)*sim.Hour
			continue
		}
		if hour >= h.WorkdayEnd {
			t = sim.Time(dayIndex+1)*sim.Day + sim.Time(h.WorkdayStart)*sim.Hour
			continue
		}
		return t
	}
}

// Propose is the human version of the orchestration decision: slow and
// almost always correct.
func (h *Human) Propose(intended param.Point, space param.Space, now sim.Time, goal string) Proposal {
	p := Proposal{
		Intended: intended,
		Emitted:  intended,
		Latency:  h.DecisionLatency(now),
		Trace: Trace{
			Goal:      goal,
			Steps:     []string{"manual review of candidates", "command entered by hand"},
			Citations: 1,
			Grounded:  true,
		},
	}
	if h.rnd.Bool(h.DefectRate) {
		d := space[h.rnd.Intn(len(space))]
		p.Emitted = intended.Clone()                        // copy on write: Intended is the caller's
		p.Emitted[d.Name] = d.Snap(p.Emitted[d.Name] * 1.1) // small slip
		p.Defect = DefectStaleValue
	}
	return p
}

func abs(v float64) float64 {
	if v < 0 {
		return -v
	}
	return v
}
