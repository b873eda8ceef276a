package instrument

import (
	"fmt"

	"github.com/aisle-sim/aisle/internal/param"
	"github.com/aisle-sim/aisle/internal/rng"
	"github.com/aisle-sim/aisle/internal/sim"
	"github.com/aisle-sim/aisle/internal/twin"
)

// This file is the instrument library: constructors for the equipment the
// paper's workflows span — synthesis robots, flow reactors, diffractometers,
// electron microscopes, spectrometers, furnaces, and HPC allocations — each
// with realistic duty cycles. Two vendors ("SimCo" and "Acme Scientific")
// are emulated with different duty-cycle personalities to exercise the
// vendor-agnostic abstraction.

// Service-type constants (DNS-SD style types used in discovery records).
const (
	KindSynthesis    = "_synth._aisle"
	KindFlowReactor  = "_flow._aisle"
	KindXRD          = "_xrd._aisle"
	KindTEM          = "_tem._aisle"
	KindSpectrometer = "_spec._aisle"
	KindFurnace      = "_furnace._aisle"
	KindHPC          = "_hpc._aisle"
)

// NewBatchReactor builds a classic batch synthesis robot: one sample per
// ~30-minute run, the baseline in the fluidic-SDL comparison (E4).
func NewBatchReactor(eng *sim.Engine, r *rng.Stream, id, site string, model twin.Model) *Instrument {
	return New(eng, r, Config{
		Descriptor: Descriptor{
			ID: id, Kind: KindSynthesis, Vendor: "Acme Scientific",
			ModelName: "BatchMate 3000", Site: site,
			Actions: []ActionSpec{{
				Name:     "synthesize",
				Space:    model.Space(),
				Duration: 30 * sim.Minute,
				Outputs:  outputsOf(model),
			}},
			Capabilities: map[string]float64{"throughput_per_hr": 2, "volume_mL": 50},
			Text:         map[string]string{"class": "batch", "model": model.Name()},
		},
		Twin:           twin.NewTwin(model, twin.Noise{Rel: 0.03}),
		DurationJitter: 0.15,
		FailureProb:    0.01,
		RepairTime:     4 * sim.Hour,
		DriftPerAction: 0.004,
	})
}

// NewFluidicReactor builds a droplet-microfluidic self-driving-lab reactor:
// ~15 seconds per micro-droplet experiment with tiny reagent consumption —
// the source of the paper's ">100x data acquisition efficiency" claim.
func NewFluidicReactor(eng *sim.Engine, r *rng.Stream, id, site string, model twin.Model) *Instrument {
	return New(eng, r, Config{
		Descriptor: Descriptor{
			ID: id, Kind: KindFlowReactor, Vendor: "SimCo",
			ModelName: "DropletFlow X", Site: site,
			Actions: []ActionSpec{{
				Name:     "synthesize",
				Space:    model.Space(),
				Duration: 15 * sim.Second,
				Outputs:  outputsOf(model),
			}},
			Capabilities: map[string]float64{"throughput_per_hr": 240, "volume_mL": 0.02},
			Text:         map[string]string{"class": "fluidic", "model": model.Name()},
		},
		Twin:           twin.NewTwin(model, twin.Noise{Rel: 0.04}),
		DurationJitter: 0.08,
		FailureProb:    0.002,
		RepairTime:     30 * sim.Minute,
		DriftPerAction: 0.0005,
	})
}

// characterizationSpace is the shared input space for analysis instruments:
// they re-measure a synthesized sample, so their parameter is which sample
// property scan to run.
func characterizationSpace() param.Space {
	return param.Space{
		{Name: "scan_resolution", Lo: 0.1, Hi: 10},
		{Name: "exposure_s", Lo: 1, Hi: 600, Unit: "s"},
	}
}

// NewXRD builds an X-ray diffractometer for structure characterization.
func NewXRD(eng *sim.Engine, r *rng.Stream, id, site string) *Instrument {
	return New(eng, r, Config{
		Descriptor: Descriptor{
			ID: id, Kind: KindXRD, Vendor: "SimCo", ModelName: "DiffractPro",
			Site: site,
			Actions: []ActionSpec{{
				Name: "scan", Space: characterizationSpace(),
				Duration: 20 * sim.Minute,
				Outputs:  []string{"crystallinity", "phase_purity"},
			}},
			Capabilities: map[string]float64{"resolution": 0.05, "throughput_per_hr": 3},
		},
		Synthesize: func(cmd Command, r *rng.Stream) map[string]float64 {
			return map[string]float64{
				"crystallinity": r.Range(0.55, 0.95),
				"phase_purity":  r.Range(0.6, 0.99),
			}
		},
		DurationJitter: 0.1,
		FailureProb:    0.005,
		RepairTime:     8 * sim.Hour,
		DriftPerAction: 0.002,
	})
}

// NewSpectrometer builds a UV-Vis/PL spectrometer (fast characterization).
func NewSpectrometer(eng *sim.Engine, r *rng.Stream, id, site string) *Instrument {
	return New(eng, r, Config{
		Descriptor: Descriptor{
			ID: id, Kind: KindSpectrometer, Vendor: "SimCo", ModelName: "SpectraQuick",
			Site: site,
			Actions: []ActionSpec{{
				Name: "spectrum", Space: characterizationSpace(),
				Duration: 2 * sim.Minute,
				Outputs:  []string{"peak_nm", "fwhm_nm"},
			}},
			Capabilities: map[string]float64{"resolution": 0.5, "throughput_per_hr": 25},
		},
		Synthesize: func(cmd Command, r *rng.Stream) map[string]float64 {
			return map[string]float64{
				"peak_nm": r.Range(490, 680),
				"fwhm_nm": r.Range(18, 42),
			}
		},
		DurationJitter: 0.05,
		FailureProb:    0.001,
		RepairTime:     time2h(),
		DriftPerAction: 0.001,
	})
}

// NewFurnace builds an annealing furnace with a tight thermal interlock.
func NewFurnace(eng *sim.Engine, r *rng.Stream, id, site string, maxSafeC float64) *Instrument {
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

// NewHPC builds a compute "instrument": simulation campaigns are scheduled
// on it like any other resource, reflecting the paper's instruments-plus-
// computing integration.
func NewHPC(eng *sim.Engine, r *rng.Stream, id, site string, nodes float64) *Instrument {
	space := param.Space{
		{Name: "nodes", Lo: 1, Hi: nodes, Step: 1},
		{Name: "sim_fidelity", Lo: 1, Hi: 3, Step: 1},
	}
	return New(eng, r, Config{
		Descriptor: Descriptor{
			ID: id, Kind: KindHPC, Vendor: "SimCo", ModelName: "ClusterSim",
			Site: site,
			Actions: []ActionSpec{{
				Name: "simulate", Space: space,
				Duration: 1 * sim.Hour,
				Outputs:  []string{"predicted_objective", "uncertainty"},
			}},
			Capabilities: map[string]float64{"nodes": nodes},
		},
		Synthesize: func(cmd Command, r *rng.Stream) map[string]float64 {
			return map[string]float64{
				"predicted_objective": r.Range(0, 1),
				"uncertainty":         r.Range(0.02, 0.2) / cmd.Params["sim_fidelity"],
			}
		},
		DurationJitter: 0.3,
		FailureProb:    0.004,
		RepairTime:     1 * sim.Hour,
		DriftPerAction: 0, // computers don't drift
	})
}

func outputsOf(m twin.Model) []string {
	out := m.Eval(m.Space().Sample(rng.New(1)))
	names := make([]string, 0, len(out))
	for k := range out {
		names = append(names, k)
	}
	return names
}

func time2h() sim.Time { return 2 * sim.Hour }
