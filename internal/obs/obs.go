// Package obs is AISLE's federation health engine: the layer that turns
// the raw signals the other observability subsystems produce — labeled
// metrics (telemetry), causal spans (trace), scheduler decisions (sched),
// and injected fault windows (chaos) — into operator answers: is the
// federation healthy, what broke, and which fault each degraded job traces
// back to.
//
// Three cooperating pieces, all native to virtual (simulation) time:
//
//   - Streaming SLO evaluation (slo.go): rolling sim-time windows over
//     metric streams with multi-window burn-rate alerting in the
//     Google-SRE style — an alert fires only when both a fast window
//     (minutes) and a slow window (hours) burn error budget faster than
//     the declared rate, so blips don't page and slow leaks don't hide.
//
//   - Flight recorder (recorder.go): a bounded, preallocated ring journal
//     of recent scheduler decisions, fault injections, SLO burn events,
//     and invariant violations. When an alert fires or an invariant trips
//     it freezes a Snapshot — journal tail, recent spans, trace-drop
//     counts, SLO statuses — serializable to byte-stable JSON.
//
//   - Incident root-cause linker (linker.go): joins the decision stream
//     with the fault-injection log to attribute every retried, rescued,
//     failed, or expired job to the fault window that plausibly caused it,
//     and aggregates per-fault Incident reports.
//
// Design constraints match the rest of the observability stack: a nil
// *Engine is valid and free (every method short-circuits on a pointer
// test); an enabled engine only reads simulation state — it never mutates
// it and never draws randomness — so the virtual trajectory of a run is
// bit-identical with health monitoring on or off; and everything it
// retains is bounded (sample rings, journal ring, tracked-job cap).
package obs

import (
	"encoding/json"
	"io"

	"github.com/aisle-sim/aisle/internal/prof"
	"github.com/aisle-sim/aisle/internal/sched"
	"github.com/aisle-sim/aisle/internal/sim"
	"github.com/aisle-sim/aisle/internal/telemetry"
	"github.com/aisle-sim/aisle/internal/trace"
)

// Options tunes the health engine. The zero value disables it.
type Options struct {
	// Enabled turns the engine on. Off (the default) keeps Config.Health
	// free: core wires a nil *Engine and no hook fires.
	Enabled bool
	// SamplePeriod is the sim-time metric sampling interval. Default 15s.
	SamplePeriod sim.Time
	// SLOs to evaluate. Empty lets the assembler install defaults
	// (DefaultSLOs) covering completion rate, queue wait, knowledge sync
	// lag, and per-site queue depth.
	SLOs []SLO
	// JournalCapacity bounds the flight-recorder ring in entries.
	// Default 4096.
	JournalCapacity int
	// SnapshotSpans is how many recent spans per site a snapshot captures
	// from the tracer. Default 32.
	SnapshotSpans int
	// MaxSnapshots bounds retained snapshots; once full, further triggers
	// are counted but drop no new artifacts. Default 16.
	MaxSnapshots int
	// MaxTrackedJobs bounds the root-cause linker's per-job records.
	// Default 16384; beyond it, new jobs are counted as untracked.
	MaxTrackedJobs int
}

func (o *Options) defaults() {
	if o.SamplePeriod <= 0 {
		o.SamplePeriod = 15 * sim.Second
	}
	if o.JournalCapacity <= 0 {
		o.JournalCapacity = 4096
	}
	if o.SnapshotSpans <= 0 {
		o.SnapshotSpans = 32
	}
	if o.MaxSnapshots <= 0 {
		o.MaxSnapshots = 16
	}
	if o.MaxTrackedJobs <= 0 {
		o.MaxTrackedJobs = 16384
	}
}

// Engine is the assembled health engine. A nil *Engine is valid and
// always-off. Every hook runs on the simulation's goroutine, so the engine
// takes no locks; read it between engine steps.
type Engine struct {
	eng  *sim.Engine
	opts Options

	regs    []watchedReg
	tracer  *trace.Tracer
	prof    *prof.Profiler
	derived *telemetry.Registry
	// dropG caches trace.dropped{site=...} gauges per site so the sampling
	// tick never rebuilds a labeled key; reset when derived changes.
	dropG    map[string]*telemetry.Gauge
	slos     []*sloState
	rec      *recorder
	link     *linker
	alerts   []Alert
	stopTick func()
}

type watchedReg struct {
	name string
	reg  *telemetry.Registry
}

// Alert is one fired burn-rate alert, resolved or still active.
type Alert struct {
	SLO        string   `json:"slo"`
	At         sim.Time `json:"at_ns"`
	ResolvedAt sim.Time `json:"resolved_at_ns"` // 0 while active
	Detail     string   `json:"detail"`
}

// New builds a health engine on the sim clock, or returns nil when
// opts.Enabled is false — callers hold and pass nil engines freely.
func New(eng *sim.Engine, opts Options) *Engine {
	if !opts.Enabled {
		return nil
	}
	opts.defaults()
	e := &Engine{
		eng:  eng,
		opts: opts,
		rec:  newRecorder(opts.JournalCapacity, opts.MaxSnapshots),
		link: newLinker(opts.MaxTrackedJobs),
	}
	for i := range opts.SLOs {
		e.slos = append(e.slos, newSLOState(opts.SLOs[i], opts.SamplePeriod))
	}
	return e
}

// AddSLO registers one more SLO before Start. Used by the assembler to
// install defaults when Options.SLOs was empty.
func (e *Engine) AddSLO(s SLO) {
	if e == nil {
		return
	}
	e.slos = append(e.slos, newSLOState(s, e.opts.SamplePeriod))
}

// Watch registers a metric registry under a subsystem name. SLO metric
// references resolve against every watched registry (first match wins, in
// registration order); the spine profile reads per-subsystem event
// counters from them.
func (e *Engine) Watch(name string, reg *telemetry.Registry) {
	if e == nil || reg == nil {
		return
	}
	e.regs = append(e.regs, watchedReg{name: name, reg: reg})
}

// WatchTracer hands the engine the federation tracer, so snapshots can
// capture recent spans and per-site drop counts. A nil tracer is fine.
func (e *Engine) WatchTracer(t *trace.Tracer) {
	if e == nil {
		return
	}
	e.tracer = t
}

// WatchProfiler hands the engine the spine profiler, so Profile() carries
// live per-call-site region counters alongside the subsystem event counts.
// A nil profiler is fine.
func (e *Engine) WatchProfiler(p *prof.Profiler) {
	if e == nil {
		return
	}
	e.prof = p
}

// ExportTo names the registry that receives the engine's derived gauges —
// today the per-site trace-drop counts (trace.dropped{site=...}), which the
// tracer records internally but which never reached a Registry.Snapshot
// before. The assembler points this at the core registry so the gauges ride
// every snapshot and SLO evaluation.
func (e *Engine) ExportTo(reg *telemetry.Registry) {
	if e == nil {
		return
	}
	e.derived = reg
	e.dropG = nil
}

// exportTraceDrops publishes the tracer's per-site span-drop counts
// as labeled gauges on the export registry. It visits the counts in place
// (no map per health sample), so gauges are created in site order rather
// than map order; nothing is created until the first drop.
func (e *Engine) exportTraceDrops() {
	if e.derived == nil || e.tracer == nil {
		return
	}
	e.tracer.EachDropped(func(site string, n uint64) {
		g, ok := e.dropG[site]
		if !ok {
			if e.dropG == nil {
				e.dropG = make(map[string]*telemetry.Gauge)
			}
			g = e.derived.Gauge(telemetry.Key("trace.dropped", "site", site))
			e.dropG[site] = g
		}
		g.Set(float64(n))
	})
}

// Start launches the sampling ticker. Idempotent.
func (e *Engine) Start() {
	if e == nil || e.stopTick != nil {
		return
	}
	e.stopTick = e.eng.Ticker(e.opts.SamplePeriod, func(int) { e.Sample() })
}

// Stop cancels the sampling ticker so the event queue can drain.
func (e *Engine) Stop() {
	if e == nil || e.stopTick == nil {
		return
	}
	e.stopTick()
	e.stopTick = nil
}

// Sample takes one SLO evaluation tick: sample every declared SLO, update
// burn-rate alert state, and snapshot the flight recorder on any alert
// transition to firing. Start drives it off the sim clock; tests and the
// watch loop may call it directly.
func (e *Engine) Sample() {
	if e == nil {
		return
	}
	now := e.eng.Now()
	e.exportTraceDrops()
	for _, st := range e.slos {
		badDelta := st.sample(now, e.regs)
		if badDelta > 0 {
			e.rec.add(Entry{At: now, Type: "slo", Event: st.slo.Name,
				Reason: "bad-events", Value: badDelta})
		}
		fired, resolved, detail := st.evaluate()
		if fired {
			e.alerts = append(e.alerts, Alert{SLO: st.slo.Name, At: now, Detail: detail})
			e.rec.add(Entry{At: now, Type: "alert", Event: st.slo.Name, Reason: detail})
			e.snapshot(now, "alert:"+st.slo.Name, detail)
		}
		if resolved {
			for i := len(e.alerts) - 1; i >= 0; i-- {
				if e.alerts[i].SLO == st.slo.Name && e.alerts[i].ResolvedAt == 0 {
					e.alerts[i].ResolvedAt = now
					break
				}
			}
			e.rec.add(Entry{At: now, Type: "alert", Event: st.slo.Name, Reason: "resolved"})
		}
	}
}

// ObserveDecision is the scheduler Observer hook: journal the decision and
// feed the root-cause linker. Wire it with Scheduler.Observer =
// engine.ObserveDecision.
func (e *Engine) ObserveDecision(d sched.Decision) {
	if e == nil {
		return
	}
	e.rec.add(Entry{
		At:      d.At,
		Type:    "sched",
		Event:   d.Kind.String(),
		Job:     d.Job,
		Tenant:  d.Tenant,
		Site:    string(d.Origin),
		Host:    string(d.Host),
		Inst:    d.Inst,
		Reason:  d.Reason,
		Attempt: d.Attempt,
	})
	e.link.observe(d)
}

// FaultWindow is one applied fault, as the linker sees it. It mirrors
// chaos.Event without importing chaos (which imports core, which imports
// this package).
type FaultWindow struct {
	Kind  string   `json:"kind"`
	Site  string   `json:"site"`
	Start sim.Time `json:"start_ns"`
	End   sim.Time `json:"end_ns"`
}

// ObserveFault records an applied fault window for incident attribution.
// chaos.Bind wires the injector's Observe hook here.
func (e *Engine) ObserveFault(w FaultWindow) {
	if e == nil {
		return
	}
	e.rec.add(Entry{At: w.Start, Type: "fault", Event: w.Kind, Site: w.Site,
		End: w.End})
	e.link.addFault(w)
}

// ObserveViolation journals an invariant violation and trips a snapshot.
// chaos.Checker's OnViolation hook points here.
func (e *Engine) ObserveViolation(msg string) {
	if e == nil {
		return
	}
	now := e.eng.Now()
	e.rec.add(Entry{At: now, Type: "violation", Reason: msg})
	e.snapshot(now, "violation", msg)
}

// Snapshot freezes the flight recorder now, under an explicit trigger
// label — the operator's "dump what just happened" button.
func (e *Engine) Snapshot(trigger string) {
	if e == nil {
		return
	}
	e.snapshot(e.eng.Now(), trigger, "")
}

func (e *Engine) snapshot(now sim.Time, trigger, detail string) {
	e.rec.snapshot(now, trigger, detail, e.tracer, e.opts.SnapshotSpans, e.Statuses())
}

// Journal returns the flight recorder's current ring contents, oldest
// first — the raw event stream a snapshot would freeze right now.
func (e *Engine) Journal() []Entry {
	if e == nil {
		return nil
	}
	return e.rec.tail()
}

// Snapshots returns the retained flight-recorder snapshots, oldest first.
func (e *Engine) Snapshots() []Snapshot {
	if e == nil {
		return nil
	}
	return append([]Snapshot(nil), e.rec.snaps...)
}

// WriteSnapshotsJSON writes every retained snapshot as one indented,
// deterministic JSON document.
func (e *Engine) WriteSnapshotsJSON(w io.Writer) error {
	snaps := e.Snapshots()
	if snaps == nil {
		snaps = []Snapshot{}
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(snaps)
}

// Alerts returns every burn-rate alert fired so far, oldest first.
func (e *Engine) Alerts() []Alert {
	if e == nil {
		return nil
	}
	return append([]Alert(nil), e.alerts...)
}

// Incidents aggregates per-fault incident reports from the linker.
func (e *Engine) Incidents() []Incident {
	if e == nil {
		return nil
	}
	return e.link.incidents()
}

// WriteIncidentsJSON writes the incident reports as one indented,
// deterministic JSON document.
func (e *Engine) WriteIncidentsJSON(w io.Writer) error {
	inc := e.Incidents()
	if inc == nil {
		inc = []Incident{}
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(inc)
}

// Attribution reports root-cause coverage: how many jobs degraded, and how
// many of those trace to a specific injected fault.
func (e *Engine) Attribution() AttributionStats {
	if e == nil {
		return AttributionStats{}
	}
	return e.link.stats()
}

// Statuses reports the current state of every SLO, declaration order.
func (e *Engine) Statuses() []SLOStatus {
	if e == nil {
		return nil
	}
	out := make([]SLOStatus, 0, len(e.slos))
	for _, st := range e.slos {
		out = append(out, st.status())
	}
	return out
}

// Table renders the SLO statuses as an operator health table — the body
// behind aisle-sim -watch.
func (e *Engine) Table() *telemetry.Table {
	t := &telemetry.Table{
		Name:    "health",
		Caption: "streaming SLO status (burn = error-budget spend rate; alert when fast AND slow windows exceed their thresholds)",
		Columns: []string{"slo", "objective", "good", "total", "fast burn", "slow burn", "state"},
	}
	for _, s := range e.Statuses() {
		state := "ok"
		if s.Alerting {
			state = "ALERT"
		}
		fast, slow := "-", "-"
		if len(s.Windows) > 0 {
			fast = formatBurn(s.Windows[0])
		}
		if len(s.Windows) > 1 {
			slow = formatBurn(s.Windows[1])
		}
		t.AddRow(s.Name, trimFloat(s.Objective), trimFloat(s.Good),
			trimFloat(s.Total), fast, slow, state)
	}
	return t
}

// SpineProfile is the per-subsystem event-count profile of the simulation
// spine: which layer generates the event and message volume a run pays for.
type SpineProfile struct {
	SimEvents       uint64 `json:"sim_events"`
	NetSent         int64  `json:"net_sent"`
	NetDelivered    int64  `json:"net_delivered"`
	NetBytes        int64  `json:"net_bytes"`
	BusDelivered    int64  `json:"bus_delivered"`
	BusRPCCalls     int64  `json:"bus_rpc_calls"`
	BusPublished    int64  `json:"bus_published"`
	SchedDispatched int64  `json:"sched_dispatched"`
	KnowledgeMerged int64  `json:"knowledge_merged"`
	SpansHeld       int    `json:"spans_held"`
	SpansDropped    uint64 `json:"spans_dropped"`
	// Sites carries the continuous profiler's per-call-site counters when a
	// profiler is watched (WatchProfiler); absent otherwise.
	Sites []prof.SiteCount `json:"sites,omitempty"`
}

// Profile reads the spine profile from the watched registries. Counter
// names missing from every registry read as zero.
func (e *Engine) Profile() SpineProfile {
	if e == nil {
		return SpineProfile{}
	}
	p := SpineProfile{
		SimEvents:       e.eng.Processed(),
		NetSent:         e.findCounter("net.sent"),
		NetDelivered:    e.findCounter("net.delivered"),
		NetBytes:        e.findCounter("net.bytes_sent"),
		BusDelivered:    e.findCounter("bus.delivered"),
		BusRPCCalls:     e.findCounter("bus.rpc.calls"),
		BusPublished:    e.findCounter("bus.pub.published"),
		SchedDispatched: e.findCounter("sched.dispatched"),
		KnowledgeMerged: e.findCounter("knowledge.merged"),
	}
	if e.tracer != nil {
		p.SpansHeld = e.tracer.Len()
		p.SpansDropped = e.tracer.Dropped()
	}
	p.Sites = e.prof.Counts()
	return p
}

func (e *Engine) findCounter(name string) int64 {
	for _, wr := range e.regs {
		if c := wr.reg.FindCounter(name); c != nil {
			return c.Value()
		}
	}
	return 0
}
