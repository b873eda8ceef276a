package instrument

import (
	"errors"
	"fmt"
	"testing"

	"github.com/aisle-sim/aisle/internal/param"
	"github.com/aisle-sim/aisle/internal/rng"
	"github.com/aisle-sim/aisle/internal/sim"
	"github.com/aisle-sim/aisle/internal/twin"
)

func goodPerovskite() param.Point {
	return param.Point{"temperature": 150, "halide_ratio": 0.5, "residence_s": 60, "ligand_mM": 15}
}

func TestSubmitHappyPath(t *testing.T) {
	eng := sim.NewEngine()
	r := rng.New(1)
	in := NewFluidicReactor(eng, r, "flow-1", "ornl", twin.Perovskite{})

	var res Result
	in.Submit(Command{Action: "synthesize", Params: goodPerovskite(), SampleID: "s1"}, func(r Result) { res = r })
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	if res.Err != nil {
		t.Fatalf("result error: %v", res.Err)
	}
	if res.Values["plqy"] <= 0 {
		t.Fatalf("no measurement: %v", res.Values)
	}
	if res.Duration() < 10*sim.Second || res.Duration() > 30*sim.Second {
		t.Fatalf("fluidic synthesis took %v, want ~15s", res.Duration())
	}
	if in.Completed() != 1 {
		t.Fatal("completion not counted")
	}
}

func TestUnknownActionRejected(t *testing.T) {
	eng := sim.NewEngine()
	in := NewFluidicReactor(eng, rng.New(1), "flow-1", "ornl", twin.Perovskite{})
	var res Result
	in.Submit(Command{Action: "explode", Params: goodPerovskite()}, func(r Result) { res = r })
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	if !errors.Is(res.Err, ErrUnknownAction) {
		t.Fatalf("err = %v, want ErrUnknownAction", res.Err)
	}
}

func TestInterlockRejectsOutOfRange(t *testing.T) {
	eng := sim.NewEngine()
	in := NewFluidicReactor(eng, rng.New(1), "flow-1", "ornl", twin.Perovskite{})
	bad := goodPerovskite()
	bad["temperature"] = 400 // above space max 220
	var res Result
	in.Submit(Command{Action: "synthesize", Params: bad}, func(r Result) { res = r })
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	if !errors.Is(res.Err, ErrInterlock) {
		t.Fatalf("err = %v, want ErrInterlock", res.Err)
	}
}

func TestCustomInterlockAndOverride(t *testing.T) {
	eng := sim.NewEngine()
	in := newFurnace(eng, rng.New(1), "furnace-1", "ornl", 800)
	in.overrides["dr-jones"] = true // an operator allowed to bypass interlocks

	hot := param.Point{"anneal_C": 900, "anneal_min": 60} // within space, above interlock
	var denied, allowed, forged Result
	in.Submit(Command{Action: "anneal", Params: hot}, func(r Result) { denied = r })
	in.Submit(Command{Action: "anneal", Params: hot, Override: "dr-jones"}, func(r Result) { allowed = r })
	in.Submit(Command{Action: "anneal", Params: hot, Override: "impostor"}, func(r Result) { forged = r })
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	if !errors.Is(denied.Err, ErrInterlock) {
		t.Fatalf("unauthorized hot run: %v", denied.Err)
	}
	if allowed.Err != nil {
		t.Fatalf("authorized override rejected: %v", allowed.Err)
	}
	if !errors.Is(forged.Err, ErrInterlock) {
		t.Fatalf("forged override accepted: %v", forged.Err)
	}
}

func TestQueueFIFOAndSerialization(t *testing.T) {
	eng := sim.NewEngine()
	in := NewFluidicReactor(eng, rng.New(2), "flow-1", "ornl", twin.Perovskite{})
	var order []string
	for _, id := range []string{"a", "b", "c"} {
		id := id
		in.Submit(Command{Action: "synthesize", Params: goodPerovskite(), SampleID: id},
			func(Result) { order = append(order, id) })
	}
	if in.QueueDepth() != 2 {
		t.Fatalf("queue depth = %d, want 2 while first job runs", in.QueueDepth())
	}
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	if len(order) != 3 || order[0] != "a" || order[2] != "c" {
		t.Fatalf("execution order = %v", order)
	}
}

func TestQueueLimit(t *testing.T) {
	eng := sim.NewEngine()
	in := New(eng, rng.New(1), Config{
		Descriptor: Descriptor{
			ID: "x", Actions: []ActionSpec{{Name: "a", Space: param.Space{}, Duration: sim.Minute}},
		},
		QueueLimit: 1,
	})
	var errs []error
	for i := 0; i < 3; i++ {
		in.Submit(Command{Action: "a", Params: param.Point{}}, func(r Result) { errs = append(errs, r.Err) })
	}
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	full := 0
	for _, e := range errs {
		if errors.Is(e, ErrBusyQueue) {
			full++
		}
	}
	if full != 1 {
		t.Fatalf("%d queue-full rejections, want 1 (1 running + 1 queued + 1 rejected)", full)
	}
}

func TestFailureAndRepair(t *testing.T) {
	eng := sim.NewEngine()
	in := New(eng, rng.New(3), Config{
		Descriptor: Descriptor{
			ID: "fragile", Actions: []ActionSpec{{Name: "a", Space: param.Space{}, Duration: sim.Minute}},
		},
		FailureProb: 1.0, // always fails
		RepairTime:  sim.Hour,
	})
	var res Result
	in.Submit(Command{Action: "a", Params: param.Point{}}, func(r Result) { res = r })
	if err := eng.RunUntil(30 * sim.Minute); err != nil {
		t.Fatal(err)
	}
	if !errors.Is(res.Err, ErrFailed) {
		t.Fatalf("err = %v, want ErrFailed", res.Err)
	}
	if in.State() != StateDown {
		t.Fatalf("state = %v, want down", in.State())
	}
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	if in.State() != StateIdle {
		t.Fatalf("state = %v after repair, want idle", in.State())
	}
}

func TestCalibrationDriftTriggersRecalibration(t *testing.T) {
	eng := sim.NewEngine()
	in := New(eng, rng.New(4), Config{
		Descriptor: Descriptor{
			ID: "drifty", Actions: []ActionSpec{{Name: "a", Space: param.Space{}, Duration: sim.Second}},
		},
		Twin:           twin.NewTwin(twin.Perovskite{}, twin.Noise{}),
		DriftPerAction: 0.02,
		DriftThreshold: 0.05,
	})
	done := 0
	var enqueue func()
	enqueue = func() {
		if done >= 200 {
			return
		}
		in.Submit(Command{Action: "a", Params: param.Point{}}, func(Result) {
			done++
			enqueue()
		})
	}
	enqueue()
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	if in.calCount == 0 {
		t.Fatal("no recalibration despite strong drift")
	}
	if abs(in.bias) > 0.05+3*0.02 {
		t.Fatalf("bias %v should stay near threshold after recalibrations", in.bias)
	}
}

func TestForceFailureRetainsQueue(t *testing.T) {
	eng := sim.NewEngine()
	in := New(eng, rng.New(5), Config{
		Descriptor: Descriptor{
			ID: "x", Actions: []ActionSpec{{Name: "a", Space: param.Space{}, Duration: sim.Minute}},
		},
		RepairTime: sim.Hour,
	})
	in.ForceFailure()
	got := false
	in.Submit(Command{Action: "a", Params: param.Point{}}, func(r Result) { got = r.Err == nil })
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	if !got {
		t.Fatal("queued job did not run after repair")
	}
}

func TestFleet(t *testing.T) {
	eng := sim.NewEngine()
	r := rng.New(6)
	f := NewFleet()
	f.Add(NewXRD(eng, r, "xrd-1", "ornl"))
	f.Add(NewFluidicReactor(eng, r, "flow-1", "ornl", twin.Perovskite{}))
	f.Add(NewBatchReactor(eng, r, "batch-1", "ornl", twin.Perovskite{}))

	if _, ok := f.Get("xrd-1"); !ok {
		t.Fatal("Get failed")
	}
	ids := f.IDs()
	if len(ids) != 3 || ids[0] != "batch-1" {
		t.Fatalf("IDs = %v", ids)
	}
	if got := f.ByKind(KindFlowReactor); len(got) != 1 || got[0].Descriptor().ID != "flow-1" {
		t.Fatalf("ByKind = %v", got)
	}
}

func TestBatchVsFluidicThroughput(t *testing.T) {
	// The structural seed of E4: fluidic completes far more experiments in
	// a fixed window.
	eng := sim.NewEngine()
	r := rng.New(7)
	batch := NewBatchReactor(eng, r, "batch-1", "ornl", twin.Perovskite{})
	flow := NewFluidicReactor(eng, r, "flow-1", "ornl", twin.Perovskite{})

	runFor := func(in *Instrument) {
		var next func()
		next = func() {
			in.Submit(Command{Action: "synthesize", Params: goodPerovskite()}, func(Result) {
				if eng.Now() < 8*sim.Hour {
					next()
				}
			})
		}
		next()
	}
	runFor(batch)
	runFor(flow)
	if err := eng.RunUntil(8 * sim.Hour); err != nil {
		t.Fatal(err)
	}
	if batch.Completed() == 0 {
		t.Fatal("batch reactor idle")
	}
	ratio := float64(flow.Completed()) / float64(batch.Completed())
	if ratio < 50 {
		t.Fatalf("fluidic/batch throughput ratio = %v, want >> 50", ratio)
	}
}

func TestMeasurementBiasAppliedBeforeCalibration(t *testing.T) {
	eng := sim.NewEngine()
	in := New(eng, rng.New(8), Config{
		Descriptor: Descriptor{
			ID: "b", Actions: []ActionSpec{{
				Name: "synthesize", Space: twin.Perovskite{}.Space(), Duration: sim.Second,
			}},
		},
		Twin:           twin.NewTwin(twin.Perovskite{}, twin.Noise{}), // no noise
		DriftPerAction: 0,
		DriftThreshold: 1, // never recalibrate
	})
	in.bias = 0.10 // inject known bias
	truth := twin.Perovskite{}.Eval(goodPerovskite())["plqy"]
	var res Result
	in.Submit(Command{Action: "synthesize", Params: goodPerovskite()}, func(r Result) { res = r })
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	want := truth * 1.10
	if abs(res.Values["plqy"]-want) > 1e-9 {
		t.Fatalf("biased measurement = %v, want %v", res.Values["plqy"], want)
	}
	if res.Quality >= 1 {
		t.Fatal("quality should be degraded under bias")
	}
}

func TestDescriptorAction(t *testing.T) {
	d := Descriptor{Actions: []ActionSpec{{Name: "scan"}}}
	if _, ok := d.Action("scan"); !ok {
		t.Fatal("Action lookup failed")
	}
	if _, ok := d.Action("ghost"); ok {
		t.Fatal("ghost action found")
	}
}

func TestStateString(t *testing.T) {
	if StateIdle.String() != "idle" || StateDown.String() != "down" {
		t.Fatal("state names wrong")
	}
}

func TestForceDownWindowAndResume(t *testing.T) {
	eng := sim.NewEngine()
	in := New(eng, rng.New(8), Config{
		Descriptor: Descriptor{
			ID: "x", Actions: []ActionSpec{{Name: "a", Space: param.Space{}, Duration: sim.Minute}},
		},
	})
	got := false
	in.ForceDown(2 * sim.Hour)
	if in.State() != StateDown {
		t.Fatalf("state = %v after ForceDown, want down", in.State())
	}
	// Work queued during the outage waits it out rather than being lost.
	in.Submit(Command{Action: "a", Params: param.Point{}}, func(r Result) { got = r.Err == nil })
	if err := eng.RunUntil(sim.Hour); err != nil {
		t.Fatal(err)
	}
	if in.State() != StateDown {
		t.Fatalf("state = %v mid-window, want down", in.State())
	}
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	if in.State() != StateIdle {
		t.Fatalf("state = %v after window, want idle", in.State())
	}
	if !got {
		t.Fatal("queued command did not run once the outage lifted")
	}
}

func TestForceDownExtendsActiveRepair(t *testing.T) {
	eng := sim.NewEngine()
	in := New(eng, rng.New(9), Config{
		Descriptor: Descriptor{
			ID: "x", Actions: []ActionSpec{{Name: "a", Space: param.Space{}, Duration: sim.Minute}},
		},
		RepairTime: 30 * sim.Minute,
	})
	in.ForceFailure() // natural repair due at 30m
	in.ForceDown(2 * sim.Hour)
	if err := eng.RunUntil(sim.Hour); err != nil {
		t.Fatal(err)
	}
	if in.State() != StateDown {
		t.Fatalf("state = %v at 1h, want down (forced window outlasts repair)", in.State())
	}
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	if in.State() != StateIdle {
		t.Fatalf("state = %v at end, want idle", in.State())
	}
}

func TestFaultSettersRoundTrip(t *testing.T) {
	eng := sim.NewEngine()
	in := New(eng, rng.New(10), Config{
		Descriptor: Descriptor{
			ID: "x", Actions: []ActionSpec{{Name: "a", Space: param.Space{}, Duration: sim.Minute}},
		},
		FailureProb:    0.01,
		DriftPerAction: 0.002,
	})
	if in.FailureProb() != 0.01 || in.DriftPerAction() != 0.002 {
		t.Fatalf("getters: prob=%v drift=%v", in.FailureProb(), in.DriftPerAction())
	}
	in.SetFailureProb(0.5)
	in.SetDriftPerAction(0.04)
	if in.FailureProb() != 0.5 || in.DriftPerAction() != 0.04 {
		t.Fatalf("setters did not stick: prob=%v drift=%v", in.FailureProb(), in.DriftPerAction())
	}
}

// newFurnace builds an annealing furnace with a tight thermal interlock.
func newFurnace(eng *sim.Engine, r *rng.Stream, id, site string, maxSafeC float64) *Instrument {
	space := param.Space{
		{Name: "anneal_C", Lo: 100, Hi: 1200, Unit: "C"},
		{Name: "anneal_min", Lo: 1, Hi: 2880, Unit: "min"},
	}
	return New(eng, r, Config{
		Descriptor: Descriptor{
			ID: id, Kind: KindFurnace, Vendor: "Acme Scientific", ModelName: "HeatWave",
			Site: site,
			Actions: []ActionSpec{{
				Name: "anneal", Space: space,
				Duration: 2 * sim.Hour,
				Outputs:  []string{"ramp_ok"},
			}},
			Capabilities: map[string]float64{"temp_max": maxSafeC},
		},
		Synthesize: func(cmd Command, r *rng.Stream) map[string]float64 {
			return map[string]float64{"ramp_ok": 1}
		},
		DurationJitter: 0.1,
		FailureProb:    0.008,
		RepairTime:     12 * sim.Hour,
		DriftPerAction: 0.003,
		Interlock: func(cmd Command) error {
			if cmd.Params["anneal_C"] > maxSafeC {
				return fmt.Errorf("setpoint %.0fC above safe limit %.0fC", cmd.Params["anneal_C"], maxSafeC)
			}
			return nil
		},
	})
}
