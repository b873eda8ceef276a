// Package aisle is the public API of the AISLE reference implementation —
// a complete, simulation-backed realization of the Autonomous
// Interconnected Science Lab Ecosystem described in "A Grassroots Network
// and Community Roadmap for Interconnected Autonomous Science Laboratories
// for Accelerated Discovery" (ICPP 2025).
//
// The facade re-exports the stable surface of the internal packages:
//
//   - federation assembly (New, Config, Network, Site),
//   - instruments and their digital twins (NewFluidicReactor, twins...),
//   - closed-loop campaigns (RunCampaign, CampaignConfig),
//   - the experiment suite that regenerates the paper's milestone claims.
//
// A minimal autonomous campaign:
//
//	n := aisle.New(aisle.Config{
//	    Seed:            1,
//	    Sites:           []aisle.SiteID{"ornl", "anl"},
//	    Link:            aisle.DefaultLink(),
//	    SharedKnowledge: true,
//	})
//	s := n.Site("ornl")
//	s.AddInstrument(aisle.NewFluidicReactor(n.Eng, n.Rnd, "flow-1", "ornl", aisle.Perovskite{}))
//	n.RunCampaign(aisle.CampaignConfig{
//	    Name: "demo", Site: "ornl", Model: aisle.Perovskite{},
//	    Budget: 30, Mode: aisle.OrchAgentVerified,
//	    SynthKind: aisle.KindFlowReactor,
//	}, func(rep *aisle.CampaignReport) { fmt.Println(rep.BestValue) })
//	n.Eng.Run()
package aisle

import (
	"github.com/aisle-sim/aisle/internal/chaos"
	"github.com/aisle-sim/aisle/internal/core"
	"github.com/aisle-sim/aisle/internal/instrument"
	"github.com/aisle-sim/aisle/internal/netsim"
	"github.com/aisle-sim/aisle/internal/obs"
	"github.com/aisle-sim/aisle/internal/prof"
	"github.com/aisle-sim/aisle/internal/rng"
	"github.com/aisle-sim/aisle/internal/sched"
	"github.com/aisle-sim/aisle/internal/sim"
	"github.com/aisle-sim/aisle/internal/trace"
	"github.com/aisle-sim/aisle/internal/twin"
)

// Federation assembly.
type (
	// Config assembles a federation; see New.
	Config = core.Config
	// Network is the assembled AISLE federation.
	Network = core.Network
	// Site is one institution's full stack.
	Site = core.Site
	// SiteID names an institution.
	SiteID = netsim.SiteID
	// Link parameterizes a WAN connection between sites.
	Link = netsim.Link
)

// Campaigns.
type (
	// CampaignConfig describes one closed-loop discovery campaign.
	CampaignConfig = core.CampaignConfig
	// CampaignReport is a campaign outcome.
	CampaignReport = core.CampaignReport
	// Orchestration selects manual / agent / verified-agent control.
	Orchestration = core.Orchestration
)

// Orchestration modes.
const (
	OrchManual        = core.OrchManual
	OrchAgent         = core.OrchAgent
	OrchAgentVerified = core.OrchAgentVerified
)

// Federation scheduler. Every campaign experiment goes through it;
// CampaignConfig.Parallelism sets how many a campaign keeps in flight,
// FairWeight its fair-share weight and Priority its priority class.
type (
	// Scheduler is the federation-wide experiment scheduler (Network.Sched).
	Scheduler = sched.Scheduler
	// SchedulerOptions tunes the scheduler via Config.Sched.
	SchedulerOptions = sched.Options
	// SchedClass is a tenant priority class.
	SchedClass = sched.Class
	// SchedTenant describes one fair-share tenant.
	SchedTenant = sched.TenantConfig
	// SchedJob is one experiment submission (Network.Sched.Submit); set
	// MaxRetries for the self-healing retry budget.
	SchedJob = sched.Job
)

// Scheduler priority classes.
const (
	SchedBatch  = sched.ClassBatch
	SchedNormal = sched.ClassNormal
	SchedUrgent = sched.ClassUrgent
)

// Observability: causal tracing. Enable with Config.Trace (Enabled: true);
// the assembled Network.Tracer then holds every sampled span of the run in
// virtual time, exportable to chrome://tracing / Perfetto with
// WriteChromeTraceFile and reducible to per-campaign layer breakdowns with
// CriticalPaths. The zero TraceOptions keeps tracing off at zero cost.
type (
	// TraceOptions tunes tracing via Config.Trace.
	TraceOptions = trace.Options
	// Tracer records spans into per-site ring buffers (Network.Tracer).
	Tracer = trace.Tracer
	// TraceSpan is one recorded operation.
	TraceSpan = trace.Span
	// TraceContext is a position in a trace, threaded through jobs and
	// commands.
	TraceContext = trace.Context
	// PathReport is a per-campaign critical-path breakdown.
	PathReport = trace.PathReport
)

// Observability: the federation health engine. Enable with Config.Health
// (Enabled: true); the assembled Network.Health then evaluates streaming
// SLOs with multi-window burn-rate alerting, journals scheduler decisions
// and fault injections into a bounded flight recorder that snapshots on
// alerts and invariant violations, and links degraded jobs back to the
// injected fault that caused them. The zero HealthOptions keeps the
// engine off at zero cost (Network.Health stays nil, and every method on
// a nil engine is a no-op).
type (
	// HealthOptions tunes the health engine via Config.Health.
	HealthOptions = obs.Options
	// HealthEngine is the assembled health engine (Network.Health).
	HealthEngine = obs.Engine
	// HealthSLO declares one service-level objective.
	HealthSLO = obs.SLO
	// HealthMetric is the SLI specification of an SLO.
	HealthMetric = obs.Metric
	// HealthBurnWindow is one multi-window burn-rate alerting rule.
	HealthBurnWindow = obs.BurnWindow
	// HealthSnapshot is one frozen flight-recorder state.
	HealthSnapshot = obs.Snapshot
	// HealthIncident is one per-fault incident report.
	HealthIncident = obs.Incident
	// HealthAttribution is root-cause coverage over degraded jobs.
	HealthAttribution = obs.AttributionStats
	// HealthFaultWindow is one applied fault window as the linker sees it.
	HealthFaultWindow = obs.FaultWindow
)

// Observability: the continuous spine profiler. Enable with Config.Prof
// (Enabled: true); the assembled Network.Prof then attributes region counts
// and virtual time to the federation's hot call-sites (sim event loop,
// netsim delivery, bus dispatch, scheduler routing and stealing, telemetry
// recording, knowledge merging, campaign decisions) through instrumented
// regions, and keeps deterministic per-site ring aggregates with trace-ID
// exemplars. Snapshot() is byte-stable across identical
// seeded runs; WriteFolded emits pprof-style folded stacks. The zero
// ProfOptions keeps every region at a single pointer test.
type (
	// ProfOptions tunes the profiler via Config.Prof.
	ProfOptions = prof.Options
	// Profiler is the assembled spine profiler (Network.Prof).
	Profiler = prof.Profiler
	// ProfSite identifies one instrumented call-site.
	ProfSite = prof.Site
	// ProfSiteCount is one site's aggregate counters.
	ProfSiteCount = prof.SiteCount
	// Profile is one deterministic profiler snapshot.
	Profile = prof.Profile
)

// DefaultSLOs is the stock federation health policy: completion rate,
// queue wait, knowledge sync lag, and a per-site queue-depth bound.
func DefaultSLOs(sites []string) []HealthSLO { return obs.DefaultSLOs(sites) }

// DefaultBurnWindows is the Google-SRE two-pair alerting policy (fast
// 5m/1h at 14.4x, slow 6h/3d at 1x).
func DefaultBurnWindows() []HealthBurnWindow { return obs.DefaultWindows() }

// CriticalPaths reduces a span set to one critical-path report per trace,
// attributing each campaign's end-to-end virtual latency to the federation
// layer that spent it.
func CriticalPaths(spans []TraceSpan) []PathReport { return trace.CriticalPaths(spans) }

// TraceID derives a deterministic trace ID from a stable label, for
// pre-computing which campaigns a sampling rate keeps.
func TraceID(label string) uint64 { return trace.ID(label) }

// Instruments.
type (
	// Instrument is a simulated laboratory instrument.
	Instrument = instrument.Instrument
	// InstrumentCommand requests one action execution.
	InstrumentCommand = instrument.Command
	// InstrumentResult is an action outcome.
	InstrumentResult = instrument.Result
)

// Instrument service kinds (DNS-SD style types).
const (
	KindSynthesis    = instrument.KindSynthesis
	KindFlowReactor  = instrument.KindFlowReactor
	KindXRD          = instrument.KindXRD
	KindTEM          = instrument.KindTEM
	KindSpectrometer = instrument.KindSpectrometer
	KindFurnace      = instrument.KindFurnace
	KindHPC          = instrument.KindHPC
)

// Digital-twin ground-truth models.
type (
	// Model is a physics ground-truth process model.
	Model = twin.Model
	// Perovskite models flow-reactor CsPb(Br/I)3 nanocrystal synthesis.
	Perovskite = twin.Perovskite
	// QuantumDot models the ~1e13-condition Smart Dope synthesis space.
	QuantumDot = twin.QuantumDot
	// Alloy models ternary alloy annealing.
	Alloy = twin.Alloy
	// Reaction models homogeneous catalysis yield.
	Reaction = twin.Reaction
	// Electrolyte models liquid battery-electrolyte formulation.
	Electrolyte = twin.Electrolyte
)

// Chaos harness: seeded fault schedules, a fault injector, and the
// invariant checker that together make up the robustness test surface.
// Generate a schedule with ChaosSchedule, bind an injector to an assembled
// federation with ChaosBind + NewChaosInjector, and watch invariants with
// NewChaosChecker. Pair with SchedulerOptions.Recover and Job.MaxRetries
// for the self-healing policy the injections are designed to exercise.
type (
	// ChaosConfig parameterizes seeded fault-schedule generation.
	ChaosConfig = chaos.Config
	// ChaosEvent is one scheduled fault window (pure data).
	ChaosEvent = chaos.Event
	// ChaosKind classifies a fault window.
	ChaosKind = chaos.Kind
	// ChaosTarget is the set of federation handles the injector drives.
	ChaosTarget = chaos.Target
	// ChaosInjector applies a schedule to a target on the sim clock.
	ChaosInjector = chaos.Injector
	// ChaosChecker accumulates invariant violations during a chaos run.
	ChaosChecker = chaos.Checker
)

// Fault kinds.
const (
	ChaosSiteOutage = chaos.KindSiteOutage
	ChaosPartition  = chaos.KindPartition
	ChaosDegrade    = chaos.KindDegrade
	ChaosBadCreds   = chaos.KindBadCreds
	ChaosByzantine  = chaos.KindByzantine
)

// ChaosSchedule expands a seed into a reproducible fault schedule over the
// given sites.
func ChaosSchedule(cfg ChaosConfig, sites []SiteID) []ChaosEvent {
	return chaos.Schedule(cfg, sites)
}

// ChaosBind derives an injection target from an assembled federation.
func ChaosBind(n *Network) ChaosTarget { return chaos.Bind(n) }

// NewChaosInjector builds an injector over a target.
func NewChaosInjector(tgt ChaosTarget) *ChaosInjector { return chaos.NewInjector(tgt) }

// NewChaosChecker builds an empty invariant checker.
func NewChaosChecker() *ChaosChecker { return chaos.NewChecker() }

// Virtual time (nanoseconds); see the sim package for arithmetic helpers.
type Time = sim.Time

// Common virtual durations.
const (
	Millisecond = sim.Millisecond
	Second      = sim.Second
	Minute      = sim.Minute
	Hour        = sim.Hour
	Day         = sim.Day
)

// New assembles a federation from the config: sites with brokers,
// registries, identity providers, data nodes, and knowledge bases, joined
// by a full-mesh WAN, with discovery gossip running.
func New(cfg Config) *Network { return core.New(cfg) }

// DefaultLink is a realistic lab-to-lab WAN link (15 ms, 1 Gbit/s, 0.1%
// loss).
func DefaultLink() Link { return core.DefaultLink() }

// NewFluidicReactor builds a droplet-microfluidic self-driving-lab reactor
// (~15 s per experiment) measuring the given twin model.
func NewFluidicReactor(eng *sim.Engine, r *rng.Stream, id, site string, m Model) *Instrument {
	return instrument.NewFluidicReactor(eng, r, id, site, m)
}

// NewBatchReactor builds a classical batch synthesis robot (~30 min per
// sample).
func NewBatchReactor(eng *sim.Engine, r *rng.Stream, id, site string, m Model) *Instrument {
	return instrument.NewBatchReactor(eng, r, id, site, m)
}

// NewSpectrometer builds a fast optical characterization instrument.
func NewSpectrometer(eng *sim.Engine, r *rng.Stream, id, site string) *Instrument {
	return instrument.NewSpectrometer(eng, r, id, site)
}

// NewXRD builds an X-ray diffractometer.
func NewXRD(eng *sim.Engine, r *rng.Stream, id, site string) *Instrument {
	return instrument.NewXRD(eng, r, id, site)
}

// NewHPC builds a compute cluster scheduled like an instrument.
func NewHPC(eng *sim.Engine, r *rng.Stream, id, site string, nodes float64) *Instrument {
	return instrument.NewHPC(eng, r, id, site, nodes)
}
