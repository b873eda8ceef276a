package llm

import (
	"fmt"
	"maps"
	"reflect"
	"testing"

	"github.com/aisle-sim/aisle/internal/param"
	"github.com/aisle-sim/aisle/internal/rng"
	"github.com/aisle-sim/aisle/internal/sim"
	"github.com/aisle-sim/aisle/internal/twin"
)

func intended() param.Point {
	return param.Point{"temperature": 150, "halide_ratio": 0.5, "residence_s": 60, "ligand_mM": 15}
}

func TestProposeNoDefectIsExact(t *testing.T) {
	o := NewOrchestrator(rng.New(1), nil)
	o.DefectRate = 0
	p := o.Propose(intended(), twin.Perovskite{}.Space(), "maximize plqy")
	if !p.Correct() {
		t.Fatalf("defect-free proposal incorrect: %+v", p)
	}
	if p.Latency != o.DecisionLatency {
		t.Fatalf("latency = %v", p.Latency)
	}
	if p.Defect != DefectNone {
		t.Fatalf("defect = %v", p.Defect)
	}
}

func TestDefectRateWithoutVerifier(t *testing.T) {
	o := NewOrchestrator(rng.New(2), nil)
	o.DefectRate = 0.25
	wrong := 0
	const n = 4000
	for i := 0; i < n; i++ {
		p := o.Propose(intended(), twin.Perovskite{}.Space(), "g")
		if !p.Correct() {
			wrong++
		}
	}
	rate := float64(wrong) / n
	if rate < 0.21 || rate > 0.29 {
		t.Fatalf("unverified error rate = %v, want ~0.25", rate)
	}
}

func TestVerifierRestoresCorrectness(t *testing.T) {
	tw := twin.NewTwin(twin.Perovskite{}, twin.Noise{})
	o := NewOrchestrator(rng.New(3), tw)
	o.DefectRate = 0.25
	wrong := 0
	const n = 4000
	for i := 0; i < n; i++ {
		p := o.Propose(intended(), twin.Perovskite{}.Space(), "g")
		if !p.Correct() {
			wrong++
		}
	}
	rate := 1 - float64(wrong)/n
	// M8 target: >95% correctness with verification.
	if rate < 0.95 {
		t.Fatalf("verified correctness = %v, want > 0.95", rate)
	}
	_, defects, _, caught := o.Stats()
	if caught == 0 || defects == 0 {
		t.Fatal("verifier never engaged")
	}
}

func TestRepairCostsLatency(t *testing.T) {
	tw := twin.NewTwin(twin.Perovskite{}, twin.Noise{})
	o := NewOrchestrator(rng.New(4), tw)
	o.DefectRate = 1.0     // always defective
	o.SubtleFraction = 0.0 // always catchable
	p := o.Propose(intended(), twin.Perovskite{}.Space(), "g")
	if !p.Repaired {
		t.Fatal("proposal not repaired")
	}
	if p.Latency <= o.DecisionLatency {
		t.Fatalf("repair latency not charged: %v", p.Latency)
	}
}

func TestSubtleDefectsEvadeBoundsVerifier(t *testing.T) {
	tw := twin.NewTwin(twin.Perovskite{}, twin.Noise{})
	o := NewOrchestrator(rng.New(5), tw)
	o.Mode = VerifyBounds
	o.DefectRate = 1.0
	o.SubtleFraction = 1.0 // all defects in-range
	evaded := 0
	const n = 500
	for i := 0; i < n; i++ {
		p := o.Propose(intended(), twin.Perovskite{}.Space(), "g")
		if !p.Correct() {
			evaded++
		}
	}
	if evaded < n/2 {
		t.Fatalf("only %d/%d subtle defects evaded the bounds verifier; they should mostly pass", evaded, n)
	}
}

func TestFullVerificationCatchesSubtleDefects(t *testing.T) {
	tw := twin.NewTwin(twin.Perovskite{}, twin.Noise{})
	o := NewOrchestrator(rng.New(5), tw) // VerifyFull by default
	o.DefectRate = 1.0
	o.SubtleFraction = 1.0
	wrong := 0
	const n = 500
	for i := 0; i < n; i++ {
		p := o.Propose(intended(), twin.Perovskite{}.Space(), "g")
		if !p.Correct() {
			wrong++
		}
	}
	// The twin-prediction cross-check should catch the vast majority of
	// in-range defects (those with a material effect on the objective).
	if wrong > n/5 {
		t.Fatalf("%d/%d subtle defects survived full verification", wrong, n)
	}
}

func TestTraceGrounding(t *testing.T) {
	o := NewOrchestrator(rng.New(6), nil)
	o.DefectRate = 0
	p := o.Propose(intended(), twin.Perovskite{}.Space(), "maximize plqy")
	if !p.Trace.Grounded || p.Trace.Citations < 1 {
		t.Fatalf("clean trace should be grounded with citations: %+v", p.Trace)
	}
	o.DefectRate = 1
	o.SubtleFraction = 1
	p2 := o.Propose(intended(), twin.Perovskite{}.Space(), "g")
	if p2.Trace.Grounded {
		t.Fatal("defective unverified trace should be ungrounded")
	}
}

func TestApprovalModelPrefersGroundedTraces(t *testing.T) {
	m := NewApprovalModel(rng.New(7))
	good := Trace{Goal: "g", Steps: []string{"a", "b"}, Citations: 3, Grounded: true}
	bad := Trace{Goal: "g", Steps: []string{"a"}, Citations: 0, Grounded: false}
	goodApprovals, badApprovals := 0, 0
	const n = 2000
	for i := 0; i < n; i++ {
		if m.Approves(good) {
			goodApprovals++
		}
		if m.Approves(bad) {
			badApprovals++
		}
	}
	goodRate := float64(goodApprovals) / n
	badRate := float64(badApprovals) / n
	if goodRate < 0.9 {
		t.Fatalf("grounded trace approval = %v, want > 0.9 (M9)", goodRate)
	}
	if badRate > 0.5 {
		t.Fatalf("ungrounded trace approval = %v, should be low", badRate)
	}
}

func TestHumanDecisionLatencyWorkingHours(t *testing.T) {
	h := NewHuman(rng.New(8))
	// Day 0 (Monday) 10:00: decision completes same day or later, but the
	// completion instant must fall within working hours.
	for i := 0; i < 500; i++ {
		start := sim.Time(i%5)*sim.Day + 10*sim.Hour
		lat := h.DecisionLatency(start)
		if lat < 20*sim.Minute {
			t.Fatalf("decision faster than the minimum: %v", lat)
		}
		done := start + lat
		hour := int((done % sim.Day) / sim.Hour)
		weekday := int(done/sim.Day) % 7
		if hour < h.WorkdayStart || hour >= h.WorkdayEnd {
			t.Fatalf("decision completed at hour %d, outside working hours", hour)
		}
		if h.Weekends && weekday >= 5 {
			t.Fatalf("decision completed on weekend day %d", weekday)
		}
	}
}

func TestHumanNightDecisionRollsToMorning(t *testing.T) {
	h := NewHuman(rng.New(9))
	// Friday 16:55: a >5 minute decision must roll to Monday morning.
	start := 4*sim.Day + 16*sim.Hour + 55*sim.Minute
	lat := h.DecisionLatency(start)
	done := start + lat
	if done < 7*sim.Day+9*sim.Hour {
		t.Fatalf("Friday-evening decision completed at %v, want Monday morning", done)
	}
}

func TestHumanIsMuchSlowerThanAgent(t *testing.T) {
	h := NewHuman(rng.New(10))
	o := NewOrchestrator(rng.New(10), nil)
	var humanTotal, agentTotal sim.Time
	now := 9 * sim.Hour // Monday 9am
	for i := 0; i < 100; i++ {
		humanTotal += h.DecisionLatency(now + sim.Time(i)*sim.Hour%8*sim.Hour)
		agentTotal += o.Propose(intended(), twin.Perovskite{}.Space(), "g").Latency
	}
	if humanTotal < 20*agentTotal {
		t.Fatalf("human/agent latency ratio = %v, expected >> 20", float64(humanTotal)/float64(agentTotal))
	}
}

func TestHumanProposeMostlyCorrect(t *testing.T) {
	h := NewHuman(rng.New(11))
	wrong := 0
	const n = 2000
	for i := 0; i < n; i++ {
		p := h.Propose(intended(), twin.Perovskite{}.Space(), 10*sim.Hour, "g")
		if !p.Correct() {
			wrong++
		}
	}
	rate := float64(wrong) / n
	if rate > 0.04 {
		t.Fatalf("human error rate = %v, want ~0.02", rate)
	}
}

func TestProposalCorrectDetectsMismatch(t *testing.T) {
	p := Proposal{
		Intended: param.Point{"x": 1},
		Emitted:  param.Point{"x": 1.5},
	}
	if p.Correct() {
		t.Fatal("mismatch not detected")
	}
	p2 := Proposal{Intended: param.Point{"x": 1}, Emitted: param.Point{}}
	if p2.Correct() {
		t.Fatal("missing key not detected")
	}
}

// samePoint reports whether a and b are one map, not merely equal ones.
func samePoint(a, b param.Point) bool {
	return reflect.ValueOf(a).Pointer() == reflect.ValueOf(b).Pointer()
}

// Proposals share the caller's point: Propose never writes it, Intended is
// that very map, and Emitted is a separate map iff a defect stands.
func TestProposeNeverWritesIntended(t *testing.T) {
	space := twin.Perovskite{}.Space()
	tw := twin.NewTwin(twin.Perovskite{}, twin.Noise{})
	holds := func(who string, in, before param.Point, p Proposal) {
		t.Helper()
		if !maps.Equal(in, before) {
			t.Fatalf("%s wrote the caller's point: %v, was %v", who, in, before)
		}
		if !samePoint(p.Intended, in) {
			t.Fatalf("%s: Intended is a copy of the caller's point", who)
		}
		if alias := samePoint(p.Emitted, p.Intended); alias != (p.Defect == DefectNone) {
			t.Fatalf("%s: Emitted aliases Intended = %v with defect %q", who, alias, p.Defect)
		}
	}
	kinds := make(map[DefectKind]bool)
	var redefects, repairedClean, repairedDefective int
	for seed := uint64(1); seed <= 300; seed++ {
		for _, mode := range []VerifyMode{VerifyOff, VerifyBounds, VerifyFull} {
			o := NewOrchestrator(rng.New(seed), tw)
			o.DefectRate, o.Mode = 1, mode
			in := space.Sample(rng.New(seed))
			before := in.Clone()
			p := o.Propose(in, space, "g")
			holds(fmt.Sprintf("orchestrator seed %d mode %d", seed, mode), in, before, p)
			kinds[p.Defect] = true
			if _, defects, _, _ := o.Stats(); defects > 1 {
				redefects++
			}
			switch {
			case p.Repaired && p.Defect == DefectNone:
				repairedClean++
			case p.Repaired:
				repairedDefective++
			}
		}
		h := NewHuman(rng.New(seed))
		h.DefectRate = 1
		in := space.Sample(rng.New(seed))
		before := in.Clone()
		p := h.Propose(in, space, 0, "g")
		holds(fmt.Sprintf("human seed %d", seed), in, before, p)
		if p.Defect == DefectNone {
			t.Fatalf("human seed %d: no slip at DefectRate 1", seed)
		}
	}
	for _, k := range []DefectKind{DefectUnitSlip, DefectRangeError, DefectTranspose, DefectStaleValue} {
		if !kinds[k] {
			t.Errorf("no proposal ended with defect %q", k)
		}
	}
	if redefects == 0 || repairedClean == 0 || repairedDefective == 0 {
		t.Errorf("repair paths not all reached: %d re-defects, %d repaired clean, %d repaired but re-defective",
			redefects, repairedClean, repairedDefective)
	}
}

// crossCheckRef is check as it was before defect-free proposals skipped the
// twin cross-check: preflight the command and the intent, and compare the
// two predictions. check must return the same verdict on every proposal.
func crossCheckRef(o *Orchestrator, p *Proposal) string {
	predicted, violations := o.Verifier.Preflight(p.Emitted)
	if len(violations) > 0 {
		return violations[0].Rule
	}
	if o.Mode != VerifyFull {
		return ""
	}
	expected, intentViol := o.Verifier.Preflight(p.Intended)
	if len(intentViol) > 0 {
		return ""
	}
	obj := o.Verifier.Model.Objective()
	want := expected[obj]
	got := predicted[obj]
	denom := abs(want)
	if denom < 1e-9 {
		denom = 1e-9
	}
	if abs(got-want)/denom > o.PredictionTol {
		return "twin-prediction-mismatch"
	}
	return ""
}

func TestCheckMatchesCrossCheckReference(t *testing.T) {
	verdicts := make(map[string]int)
	for name, m := range twin.Registry() {
		space := m.Space()
		tw := twin.NewTwin(m, twin.Noise{})
		r := rng.New(7)
		// point draws a random point, pushed out of bounds one time in three.
		point := func() param.Point {
			p := space.Sample(r)
			if r.Bool(1.0 / 3) {
				d := space[r.Intn(len(space))]
				p[d.Name] = d.Hi + (d.Hi-d.Lo)*r.Range(-0.5, 0.5)
			}
			return p
		}
		for _, mode := range []VerifyMode{VerifyBounds, VerifyFull} {
			o := NewOrchestrator(r, tw)
			o.Mode = mode
			for i := 0; i < 2000; i++ {
				in := point()
				props := []Proposal{
					{Intended: in, Emitted: in},
					{Intended: in, Emitted: point(), Defect: DefectStaleValue},
					{Intended: in},
				}
				props[2].Defect = o.injectDefect(&props[2], space)
				for j := range props {
					got, want := o.check(&props[j]), crossCheckRef(o, &props[j])
					if got != want {
						t.Fatalf("%s mode %d: check(%v -> %v, %q) = %q, reference %q",
							name, mode, props[j].Intended, props[j].Emitted, props[j].Defect, got, want)
					}
					verdicts[got]++
				}
			}
		}
	}
	if verdicts[""] == 0 || verdicts["twin-prediction-mismatch"] == 0 || len(verdicts) < 4 {
		t.Errorf("verdicts not all reached: %v", verdicts)
	}
}
