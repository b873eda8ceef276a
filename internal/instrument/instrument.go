// Package instrument implements AISLE's instrument-and-cyberinfrastructure
// integration layer (dimension 1, milestones M1 and M4): a vendor-agnostic
// hardware abstraction layer over simulated scientific instruments.
//
// Each simulated instrument has the lifecycle properties that make
// cross-facility orchestration hard in practice — nontrivial action
// durations, a FIFO job queue, warm-up, calibration drift that biases
// measurements until a recalibration, stochastic breakdowns with repair
// windows, and safety interlocks that reject out-of-specification commands
// unless a human override is presented (the paper's human-in-the-loop
// safeguard).
//
// Physics comes from a digital twin (internal/twin): an instrument is the
// twin plus operational reality.
package instrument

import (
	"errors"
	"fmt"
	"sort"

	"github.com/aisle-sim/aisle/internal/param"
	"github.com/aisle-sim/aisle/internal/rng"
	"github.com/aisle-sim/aisle/internal/sim"
	"github.com/aisle-sim/aisle/internal/telemetry"
	"github.com/aisle-sim/aisle/internal/trace"
	"github.com/aisle-sim/aisle/internal/twin"
)

// Errors surfaced to submitters.
var (
	ErrUnknownAction = errors.New("instrument: unknown action")
	ErrInterlock     = errors.New("instrument: interlock rejected command")
	ErrDown          = errors.New("instrument: instrument down")
	ErrBusyQueue     = errors.New("instrument: queue full")
	ErrFailed        = errors.New("instrument: action failed mid-run")
)

// State is the instrument lifecycle state.
type State int

// Lifecycle states.
const (
	StateIdle State = iota
	StateBusy
	StateDown
	StateCalibrating
)

// String renders the state name.
func (s State) String() string {
	switch s {
	case StateIdle:
		return "idle"
	case StateBusy:
		return "busy"
	case StateDown:
		return "down"
	case StateCalibrating:
		return "calibrating"
	}
	return "unknown"
}

// ActionSpec describes one action the instrument supports: its parameter
// space and nominal duration.
type ActionSpec struct {
	Name     string
	Space    param.Space
	Duration sim.Time // nominal; actual durations draw jitter around this
	// Outputs names the measurement keys the action produces.
	Outputs []string
}

// Descriptor is the self-describing record an instrument advertises
// (M4: "self-describing instruments with semantic descriptors").
type Descriptor struct {
	ID           string
	Kind         string // "_xrd._aisle", "_synth._aisle", ...
	Vendor       string
	ModelName    string
	Site         string
	Actions      []ActionSpec
	Capabilities map[string]float64
	Text         map[string]string
}

// Action looks up an action spec by name.
func (d *Descriptor) Action(name string) (ActionSpec, bool) {
	for _, a := range d.Actions {
		if a.Name == name {
			return a, true
		}
	}
	return ActionSpec{}, false
}

// Command requests one action execution.
type Command struct {
	Action   string
	Params   param.Point
	SampleID string
	// Override carries a human-in-the-loop authorization that bypasses the
	// interlock for out-of-envelope parameters (still bounded by hard
	// physical limits).
	Override string
	// Trace is the causal context the command executes under; the hosting
	// site's endpoint records the device queue + action as a span.
	Trace trace.Context
}

// Result is the outcome of a command.
type Result struct {
	InstrumentID string
	SampleID     string
	Action       string
	Params       param.Point
	Values       map[string]float64
	Quality      float64 // 0..1, degraded by calibration drift
	Started      sim.Time
	Finished     sim.Time
	Err          error
}

// Duration reports wall-clock (virtual) execution time.
func (r *Result) Duration() sim.Time { return r.Finished - r.Started }

// Config assembles a simulated instrument.
type Config struct {
	Descriptor Descriptor
	Twin       *twin.Twin
	// DurationJitter is the lognormal sigma applied to action durations.
	DurationJitter float64
	// FailureProb is the per-action probability of mid-run failure.
	FailureProb float64
	// RepairTime is how long the instrument stays down after a failure.
	RepairTime sim.Time
	// DriftPerAction is the calibration bias random-walk step (relative).
	DriftPerAction float64
	// DriftThreshold triggers auto-recalibration when |bias| exceeds it.
	DriftThreshold float64
	// QueueLimit bounds pending jobs; 0 means unlimited.
	QueueLimit int
	// Interlock optionally narrows the safe envelope below the action
	// space; nil uses the action space bounds.
	Interlock func(Command) error
	// Synthesize generates measurement values for instruments without a
	// ground-truth twin (characterization equipment whose readings are
	// sample-independent in this model).
	Synthesize func(Command, *rng.Stream) map[string]float64
}

// Instrument is a simulated instrument bound to a simulation engine.
type Instrument struct {
	cfg     Config
	eng     *sim.Engine
	rnd     *rng.Stream
	metrics *telemetry.Registry

	state State
	bias  float64 // calibration drift, relative
	queue []job
	// overrides holds operator IDs allowed to bypass the interlock.
	overrides map[string]bool
	// forcedDownUntil pins the instrument in StateDown through an injected
	// outage window: internal state transitions (action completion, natural
	// repair, recalibration) that would normally resume service defer to it.
	forcedDownUntil sim.Time

	completed int
	failures  int
	calCount  int
}

type job struct {
	cmd Command
	cb  func(Result)
}

// New creates an instrument on the engine with its own random sub-stream.
func New(eng *sim.Engine, parent *rng.Stream, cfg Config) *Instrument {
	if cfg.DurationJitter == 0 {
		cfg.DurationJitter = 0.1
	}
	if cfg.RepairTime == 0 {
		cfg.RepairTime = 2 * sim.Hour
	}
	if cfg.DriftThreshold == 0 {
		cfg.DriftThreshold = 0.05
	}
	return &Instrument{
		cfg:       cfg,
		eng:       eng,
		rnd:       parent.Fork("instrument/" + cfg.Descriptor.ID),
		metrics:   telemetry.NewRegistry(),
		state:     StateIdle,
		overrides: make(map[string]bool),
	}
}

// Descriptor returns the instrument's self-description.
func (in *Instrument) Descriptor() Descriptor { return in.cfg.Descriptor }

// State reports the current lifecycle state.
func (in *Instrument) State() State { return in.state }

// Metrics exposes instrument telemetry.
func (in *Instrument) Metrics() *telemetry.Registry { return in.metrics }

// Bias reports the current calibration bias (for tests and ablations).
func (in *Instrument) Bias() float64 { return in.bias }

// QueueDepth reports pending jobs (excluding the running one).
func (in *Instrument) QueueDepth() int { return len(in.queue) }

// Completed reports successfully executed actions.
func (in *Instrument) Completed() int { return in.completed }

// Failures reports mid-run failures.
func (in *Instrument) Failures() int { return in.failures }

// Calibrations reports how many recalibration cycles have run.
func (in *Instrument) Calibrations() int { return in.calCount }

// AuthorizeOverride registers an operator allowed to bypass interlocks.
func (in *Instrument) AuthorizeOverride(operator string) {
	in.overrides[operator] = true
}

// Submit enqueues a command; cb receives the Result when the action
// finishes (successfully or not). Validation failures surface immediately
// through cb with Err set, so callers have one result path.
func (in *Instrument) Submit(cmd Command, cb func(Result)) {
	now := in.eng.Now()
	fail := func(err error) {
		in.metrics.Counter("instrument.rejected").Inc()
		cb(Result{
			InstrumentID: in.cfg.Descriptor.ID, SampleID: cmd.SampleID,
			Action: cmd.Action, Params: cmd.Params,
			Started: now, Finished: now, Err: err,
		})
	}

	spec, ok := in.cfg.Descriptor.Action(cmd.Action)
	if !ok {
		fail(fmt.Errorf("%w: %q on %s", ErrUnknownAction, cmd.Action, in.cfg.Descriptor.ID))
		return
	}
	if err := in.checkInterlock(spec, cmd); err != nil {
		fail(err)
		return
	}
	if in.cfg.QueueLimit > 0 && len(in.queue) >= in.cfg.QueueLimit {
		fail(fmt.Errorf("%w: %d pending", ErrBusyQueue, len(in.queue)))
		return
	}
	in.queue = append(in.queue, job{cmd: cmd, cb: cb})
	in.metrics.Counter("instrument.submitted").Inc()
	in.pump()
}

// checkInterlock enforces the safety envelope. Out-of-space parameters are
// always rejected (hard physical limits). A custom interlock may narrow the
// envelope further; an authorized Override bypasses only the custom check.
func (in *Instrument) checkInterlock(spec ActionSpec, cmd Command) error {
	if err := spec.Space.Validate(cmd.Params); err != nil {
		return fmt.Errorf("%w: %v", ErrInterlock, err)
	}
	if in.cfg.Interlock != nil {
		if err := in.cfg.Interlock(cmd); err != nil {
			if cmd.Override != "" && in.overrides[cmd.Override] {
				in.metrics.Counter("instrument.overrides").Inc()
				return nil
			}
			return fmt.Errorf("%w: %v", ErrInterlock, err)
		}
	}
	return nil
}

// pump starts the next job if the instrument is idle.
func (in *Instrument) pump() {
	if in.state != StateIdle || len(in.queue) == 0 {
		return
	}
	j := in.queue[0]
	in.queue = in.queue[1:]
	in.run(j)
}

func (in *Instrument) run(j job) {
	spec, _ := in.cfg.Descriptor.Action(j.cmd.Action)
	in.state = StateBusy
	started := in.eng.Now()

	dur := sim.Time(float64(spec.Duration) * in.rnd.LogNormal(0, in.cfg.DurationJitter))
	if dur <= 0 {
		dur = spec.Duration
	}

	failed := in.cfg.FailureProb > 0 && in.rnd.Bool(in.cfg.FailureProb)
	if failed {
		// Failure occurs partway through the action.
		at := sim.Time(float64(dur) * in.rnd.Range(0.1, 0.9))
		in.eng.Schedule(at, func() {
			in.failures++
			in.metrics.Counter("instrument.failures").Inc()
			in.state = StateDown
			j.cb(Result{
				InstrumentID: in.cfg.Descriptor.ID, SampleID: j.cmd.SampleID,
				Action: j.cmd.Action, Params: j.cmd.Params,
				Started: started, Finished: in.eng.Now(),
				Err: fmt.Errorf("%w: %s", ErrFailed, j.cmd.Action),
			})
			in.eng.Schedule(in.cfg.RepairTime, func() {
				in.metrics.Counter("instrument.repairs").Inc()
				in.resume()
			})
		})
		return
	}

	in.eng.Schedule(dur, func() {
		values := in.measure(j.cmd)
		in.completed++
		in.metrics.Counter("instrument.completed").Inc()
		in.metrics.Histogram("instrument.action_s").Observe((in.eng.Now() - started).Seconds())

		quality := 1 - minf(abs(in.bias)/(in.cfg.DriftThreshold*4+1e-12), 0.5)
		j.cb(Result{
			InstrumentID: in.cfg.Descriptor.ID, SampleID: j.cmd.SampleID,
			Action: j.cmd.Action, Params: j.cmd.Params,
			Values: values, Quality: quality,
			Started: started, Finished: in.eng.Now(),
		})

		// Calibration random walk after each action.
		in.bias += in.rnd.Normal(0, in.cfg.DriftPerAction)
		if abs(in.bias) > in.cfg.DriftThreshold {
			in.recalibrate()
			return
		}
		in.resume()
	})
}

// measure evaluates the twin and applies noise plus calibration bias.
func (in *Instrument) measure(cmd Command) map[string]float64 {
	var out map[string]float64
	switch {
	case in.cfg.Twin != nil:
		out = in.cfg.Twin.Measure(cmd.Params, in.rnd)
	case in.cfg.Synthesize != nil:
		out = in.cfg.Synthesize(cmd, in.rnd)
	default:
		return map[string]float64{}
	}
	if in.bias != 0 {
		for k, v := range out {
			out[k] = v * (1 + in.bias)
		}
	}
	return out
}

// calibrationTime is the duration of a recalibration cycle.
const calibrationTime = 30 * sim.Minute

// recalibrate models the automated-calibration protocol of M4: the
// instrument takes itself offline, resets bias, and resumes.
func (in *Instrument) recalibrate() {
	in.state = StateCalibrating
	in.metrics.Counter("instrument.calibrations").Inc()
	in.eng.Schedule(calibrationTime, func() {
		in.bias = 0
		in.calCount++
		in.resume()
	})
}

// resume returns the instrument to service after an action, repair, or
// recalibration — unless a forced outage window is still open, in which case
// the instrument stays down until the window's restore event runs.
func (in *Instrument) resume() {
	if in.eng.Now() < in.forcedDownUntil {
		in.state = StateDown
		return
	}
	in.state = StateIdle
	in.pump()
}

// ForceFailure drives the instrument down immediately (fault injection for
// workflow experiments). Queued jobs are retained and resume after repair.
func (in *Instrument) ForceFailure() {
	if in.state == StateDown {
		return
	}
	in.state = StateDown
	in.eng.Schedule(in.cfg.RepairTime, func() {
		in.resume()
	})
}

// ForceDown takes the instrument out of service for exactly d (chaos site
// outages). Unlike ForceFailure, the window is pinned: an action completing
// or a natural repair firing mid-window cannot resume service early. Queued
// jobs are retained and pump when the window closes. Overlapping windows
// extend to the latest end.
func (in *Instrument) ForceDown(d sim.Time) {
	until := in.eng.Now() + d
	if until <= in.forcedDownUntil {
		return
	}
	in.forcedDownUntil = until
	in.state = StateDown
	in.eng.Schedule(d, func() {
		if in.eng.Now() < in.forcedDownUntil {
			return // a later window superseded this one
		}
		if in.state == StateDown {
			in.state = StateIdle
			in.pump()
		}
	})
}

// SetFailureProb retunes the per-action failure probability mid-run (chaos
// degradation ramps). Returns the previous value so injectors can restore it.
func (in *Instrument) SetFailureProb(p float64) float64 {
	prev := in.cfg.FailureProb
	in.cfg.FailureProb = p
	return prev
}

// SetDriftPerAction retunes the calibration random-walk step mid-run.
// Returns the previous value.
func (in *Instrument) SetDriftPerAction(d float64) float64 {
	prev := in.cfg.DriftPerAction
	in.cfg.DriftPerAction = d
	return prev
}

// FailureProb reports the current per-action failure probability.
func (in *Instrument) FailureProb() float64 { return in.cfg.FailureProb }

// DriftPerAction reports the current calibration random-walk step.
func (in *Instrument) DriftPerAction() float64 { return in.cfg.DriftPerAction }

func abs(v float64) float64 {
	if v < 0 {
		return -v
	}
	return v
}

func minf(a, b float64) float64 {
	if a < b {
		return a
	}
	return b
}

// Fleet is a registry of instruments at one site.
type Fleet struct {
	byID map[string]*Instrument
}

// NewFleet returns an empty fleet.
func NewFleet() *Fleet { return &Fleet{byID: make(map[string]*Instrument)} }

// Add registers an instrument.
func (f *Fleet) Add(in *Instrument) { f.byID[in.cfg.Descriptor.ID] = in }

// Size reports the number of registered instruments.
func (f *Fleet) Size() int { return len(f.byID) }

// Get fetches by ID.
func (f *Fleet) Get(id string) (*Instrument, bool) {
	in, ok := f.byID[id]
	return in, ok
}

// IDs lists instrument IDs, sorted.
func (f *Fleet) IDs() []string {
	out := make([]string, 0, len(f.byID))
	for id := range f.byID {
		out = append(out, id)
	}
	sort.Strings(out)
	return out
}

// Each visits the instruments in no particular order until fn returns
// false, without copying or sorting the IDs — for existential questions
// whose answer does not depend on which instrument is found first.
func (f *Fleet) Each(fn func(*Instrument) bool) {
	for _, in := range f.byID {
		if !fn(in) {
			return
		}
	}
}

// ByKind returns instruments of the given kind, sorted by ID.
func (f *Fleet) ByKind(kind string) []*Instrument {
	var out []*Instrument
	for _, id := range f.IDs() {
		in := f.byID[id]
		if in.cfg.Descriptor.Kind == kind {
			out = append(out, in)
		}
	}
	return out
}
