// Package sched is the federation-wide experiment scheduler: the layer
// between campaigns and instruments that makes heavy multi-tenant traffic
// possible. The paper's vision is a pooled instrument fleet spanning
// institutions; without a scheduler, each campaign negotiates an instrument
// on its own and a busy reactor at one site queues work while an identical
// idle reactor at a peer site sits dark.
//
// The scheduler provides three things:
//
//   - Fair-share multi-tenancy: every campaign (tenant) gets a weighted
//     deficit-round-robin queue at its submission site, with priority
//     classes and aging so background work backfills idle capacity without
//     ever starving (a job's effective class rises the longer it waits).
//
//   - Cross-site routing: each dispatch scores every compatible instrument
//     visible in the federation directory by scheduler-tracked in-flight
//     load, observed instrument state (down instruments are skipped,
//     calibrating ones penalized), and WAN round-trip latency from netsim,
//     then ships the command to the cheapest one over the bus fabric.
//
//   - Work stealing: when a site frees instrument capacity and its own
//     queue is dry, it steals half the deepest peer backlog (paying one
//     WAN round trip), so no fleet capacity idles while any site queues.
//
// The scheduler is intentionally ignorant of campaigns: it moves opaque
// instrument commands. Batched dispatch (a campaign keeping k experiments
// in flight) is built on top in internal/core using Submit's asynchronous
// completion callbacks.
package sched

import (
	"cmp"
	"errors"
	"fmt"
	"maps"
	"math"
	"slices"
	"strings"

	"github.com/aisle-sim/aisle/internal/bus"
	"github.com/aisle-sim/aisle/internal/discovery"
	"github.com/aisle-sim/aisle/internal/instrument"
	"github.com/aisle-sim/aisle/internal/netsim"
	"github.com/aisle-sim/aisle/internal/prof"
	"github.com/aisle-sim/aisle/internal/rng"
	"github.com/aisle-sim/aisle/internal/sim"
	"github.com/aisle-sim/aisle/internal/telemetry"
	"github.com/aisle-sim/aisle/internal/trace"
)

// Errors surfaced to submitters.
var (
	ErrUnknownSite   = errors.New("sched: unknown origin site")
	ErrUnknownTenant = errors.New("sched: job names no tenant")
	// ErrExpired reports a job that outlived its Timeout while still
	// queued (every candidate instrument down, saturated, or unreachable
	// for the whole window).
	ErrExpired = errors.New("sched: job expired in queue")
	// ErrCanceled reports a queued job dropped because its tenant was
	// released before it dispatched.
	ErrCanceled = errors.New("sched: job canceled")
)

// Class is a tenant priority class. Higher classes dispatch first; aging
// promotes waiting jobs one class per AgingStep so lower classes backfill
// without starving.
type Class int

// Priority classes. The zero value is ClassNormal so campaigns that never
// touch the knob get ordinary service.
const (
	// ClassBatch is background work that yields to everything fresh.
	ClassBatch Class = iota - 1
	// ClassNormal is the default interactive-campaign class.
	ClassNormal
	// ClassUrgent preempts queued normal work (not running experiments).
	ClassUrgent
)

// String renders the class name.
func (c Class) String() string {
	switch c {
	case ClassBatch:
		return "batch"
	case ClassNormal:
		return "normal"
	case ClassUrgent:
		return "urgent"
	}
	return fmt.Sprintf("class(%d)", int(c))
}

// TenantConfig describes one fair-share tenant (typically a campaign).
type TenantConfig struct {
	ID string
	// Weight is the deficit-round-robin share. Default 1; clamped to
	// [0.05, 8] so every tenant makes progress in a bounded number of
	// scheduling passes.
	Weight float64
	// Class is the base priority class.
	Class Class
}

// Job is one experiment request: an instrument command plus the routing
// requirement (kind and capability floors) needed to place it.
type Job struct {
	Tenant  string
	Origin  netsim.SiteID
	Kind    string
	MinCaps map[string]float64
	Cmd     instrument.Command
	// Timeout bounds the instrument RPC (queueing + action). Default 48h.
	Timeout sim.Time
	// MaxRetries bounds automatic retry of failed dispatches: a job whose
	// RPC fails (instrument fault, link loss, timeout) is re-queued with
	// exponential backoff + jitter up to MaxRetries times before the
	// failure surfaces to the callback. 0 (the default) keeps the original
	// fail-on-first-error behaviour. Retries spend the same Timeout budget
	// as the first attempt, so a terminal outcome is still guaranteed.
	MaxRetries int
	// Trace is the causal context this job runs under (typically the
	// submitting experiment's). The zero value disables tracing for the job.
	Trace trace.Context
}

const (
	// stealThreshold is the minimum peer backlog worth stealing from.
	stealThreshold = 2
	// defaultEstimate is the assumed action duration for instruments that
	// do not advertise throughput_per_hr.
	defaultEstimate = 10 * sim.Minute
	// retryMax caps the exponential retry backoff.
	retryMax = 16 * sim.Minute
)

// Options tunes the scheduler. The zero value gets sane defaults.
type Options struct {
	// MaxInFlightPerInstrument caps jobs dispatched-but-incomplete per
	// instrument: enough to pipeline (the next command is queued on the
	// device when the current one finishes) without deep device queues
	// that defeat global routing. Default 2.
	MaxInFlightPerInstrument int
	// AgingStep is the queue wait that promotes a job one priority class
	// (starvation-free backfill). Default 30 minutes; <0 disables.
	AgingStep sim.Time
	// RepumpInterval is the background sweep that re-drives queues whose
	// wake-up events were lost to failures. Default 1 minute.
	RepumpInterval sim.Time
	// RetryBase is the first retry backoff; each further attempt doubles it
	// (plus up to 50% deterministic jitter off the scheduler's seeded
	// stream). Default 30 seconds.
	RetryBase sim.Time
	// Recover enables the in-flight recovery sweep: each RepumpInterval,
	// jobs dispatched to an instrument that has gone down or a site that
	// has partitioned away from their origin are pulled back into the queue
	// and rerouted (the eventual reply from the dead dispatch, if any, is
	// discarded). Off by default — recovery means a rescued job can execute
	// more than once on the fleet, which callers must opt into.
	Recover bool
}

func (o *Options) defaults() {
	if o.MaxInFlightPerInstrument == 0 {
		o.MaxInFlightPerInstrument = 2
	}
	if o.AgingStep == 0 {
		o.AgingStep = 30 * sim.Minute
	}
	if o.RepumpInterval == 0 {
		o.RepumpInterval = sim.Minute
	}
	if o.RetryBase == 0 {
		o.RetryBase = 30 * sim.Second
	}
}

// DecisionKind classifies one scheduler decision event.
type DecisionKind uint8

// Decision kinds, in lifecycle order.
const (
	DecisionSubmit   DecisionKind = iota // job entered an origin queue
	DecisionDispatch                     // job shipped to an instrument
	DecisionComplete                     // terminal success
	DecisionFail                         // terminal failure
	DecisionRetry                        // failed dispatch consumed retry budget
	DecisionRescue                       // in-flight job pulled back by recovery
	DecisionExpire                       // job outlived Timeout in queue
	DecisionCancel                       // tenant released while job queued
	DecisionSteal                        // job landed at a thief site
)

// String renders the decision kind.
func (k DecisionKind) String() string {
	switch k {
	case DecisionSubmit:
		return "submit"
	case DecisionDispatch:
		return "dispatch"
	case DecisionComplete:
		return "complete"
	case DecisionFail:
		return "fail"
	case DecisionRetry:
		return "retry"
	case DecisionRescue:
		return "rescue"
	case DecisionExpire:
		return "expire"
	case DecisionCancel:
		return "cancel"
	case DecisionSteal:
		return "steal"
	}
	return fmt.Sprintf("decision(%d)", int(k))
}

// Decision is one scheduler decision event, emitted synchronously to the
// Observer at every job lifecycle transition. It is a flat value — the
// health engine's flight recorder copies it into a preallocated ring, so
// emission allocates nothing.
type Decision struct {
	Kind   DecisionKind
	At     sim.Time
	Job    string // Cmd.SampleID: the submitter's stable job identity
	Tenant string
	Origin netsim.SiteID
	Host   netsim.SiteID // dispatch host; "" before the first dispatch
	Inst   string        // dispatched instrument instance; "" before dispatch
	Reason string        // failure cause / rescue reason / steal source
	// Attempt counts prior failed dispatches plus rescues for this job.
	Attempt int
}

// SiteBinding is what the scheduler needs from one federation site: the
// local directory view for routing, the local fleet for state inspection,
// and a credential supplier for dispatch under zero trust.
type SiteBinding struct {
	ID       netsim.SiteID
	Registry *discovery.Registry
	Fleet    *instrument.Fleet
	Token    func() any
}

// queuedJob is a Job waiting at a site queue. It carries a snapshot of its
// tenant's config so stealing can recreate the tenant at the thief site
// with the same weight and class, and a canceled mark so a job caught
// mid-steal when its tenant is released does not resurrect the tenant.
type queuedJob struct {
	job      Job
	cfg      TenantConfig
	cb       func(instrument.Result, error)
	enqueued sim.Time
	canceled bool

	// attempt counts failed dispatches consumed from the MaxRetries budget;
	// reroutes counts recovery-sweep rescues (unbounded — the Timeout is
	// the bound). notBefore holds the job in queue through its backoff.
	attempt   int
	reroutes  int
	notBefore sim.Time

	// Trace spans live here — already-heap state — so the traced path adds
	// no allocations beyond the queuedJob itself. qspan covers enqueue ->
	// dispatch (or expiry/cancel), the flight's dspan dispatch -> settle.
	qspan trace.Span
	qctx  trace.Context
	flight
}

// flight is a job's latest dispatch, embedded in its queuedJob so that a
// dispatch allocates nothing of its own; a job has at most one flight out.
// launch, settle and rescue are the only code that moves the scheduler's
// in-flight accounting (inflight, flying, flights) or the epoch.
type flight struct {
	// epoch invalidates an outstanding dispatch's completion callback when
	// the recovery sweep rescues the job: the callback captures the epoch at
	// launch and a stale reply (the RPC of a rescued job eventually timing
	// out or even succeeding) is dropped instead of double-completing.
	epoch uint64
	// inst/host name the dispatch's instrument; in is that instrument,
	// resolved at launch (nil when a site foreign to the scheduler hosts it).
	inst  string
	host  netsim.SiteID
	in    *instrument.Instrument
	dspan trace.Span
	dctx  trace.Context
}

// tenantQ is one tenant's FIFO plus its fair-share virtual time: each
// dispatch advances vtime by 1/weight, so the scheduler serving the
// smallest vtime first realizes weighted round robin (a weight-2 tenant
// advances half as fast and gets twice the dispatches).
type tenantQ struct {
	cfg   TenantConfig
	jobs  []*queuedJob
	vtime float64
	class int // effective class, stamped by the pump in progress
	// waitHist is the tenant's labelled queue-wait series,
	// sched.wait_s{site=...,tenant=...}, resolved once at registration so
	// the dispatch path pays no per-event name lookup.
	waitHist *telemetry.Histogram
	// retriesC is sched.retries{site=...,tenant=...}, cached for the same
	// reason: building a canonical Key allocates, and retry storms are hot.
	retriesC *telemetry.Counter
}

// siteSched is the per-site dispatcher: the fair-share queues for work
// submitted (or stolen to) this site.
type siteSched struct {
	bind    SiteBinding
	met     *telemetry.Registry
	tenants map[string]*tenantQ
	// active is the service order pumpSite walks: exactly the tenants with
	// queued jobs, sorted by fairOrder; enqueue/dequeued keep it so.
	active []*tenantQ
	// depth is the site's labelled queue-depth gauge, cached like waitHist.
	depth *telemetry.Gauge
	// queued is the sum of len(t.jobs) over tenants; enqueue/dequeued keep it.
	queued int
}

// fairOrder compares tenants by (vtime, id): furthest behind its share
// first, ids — unique within a site — breaking ties, so the order is total.
func fairOrder(a, b *tenantQ) int {
	if c := cmp.Compare(a.vtime, b.vtime); c != 0 {
		return c
	}
	return strings.Compare(a.cfg.ID, b.cfg.ID)
}

// sink restores the order after the tenant at index i advanced its vtime:
// the successors now ahead of it each move up one place.
func (ss *siteSched) sink(i int) {
	t := ss.active[i]
	for ; i+1 < len(ss.active) && fairOrder(ss.active[i+1], t) < 0; i++ {
		ss.active[i] = ss.active[i+1]
	}
	ss.active[i] = t
}

// byID snapshots the active tenants in id order, the deterministic scan
// order of expiry and stealing (which edit the active order as they go).
func (ss *siteSched) byID() []*tenantQ {
	ts := slices.Clone(ss.active)
	slices.SortFunc(ts, func(a, b *tenantQ) int { return strings.Compare(a.cfg.ID, b.cfg.ID) })
	return ts
}

// enqueue appends a job to its tenant's FIFO, entering the tenant into the
// service order if it was idle.
func (s *Scheduler) enqueue(ss *siteSched, t *tenantQ, qj *queuedJob) {
	t.jobs = append(t.jobs, qj)
	if len(t.jobs) == 1 {
		i, _ := slices.BinarySearchFunc(ss.active, t, fairOrder)
		ss.active = slices.Insert(ss.active, i, t)
	}
	ss.queued++
	s.queued++
}

// dequeued settles the count after n jobs left t's FIFO and retires the
// tenant from the service order once it is empty.
func (s *Scheduler) dequeued(ss *siteSched, t *tenantQ, n int) {
	ss.queued -= n
	s.queued -= n
	if n > 0 && len(t.jobs) == 0 {
		i := slices.Index(ss.active, t)
		ss.active = slices.Delete(ss.active, i, i+1)
	}
}

// maxWeight bounds tenant weights so no share dominates unboundedly.
const maxWeight = 8

// Scheduler is the federation-wide experiment scheduler. One instance
// spans all sites; per-site dispatchers keep submission locality while
// routing and stealing span the fleet.
type Scheduler struct {
	eng     *sim.Engine
	net     *netsim.Network
	fab     *bus.Fabric
	metrics *telemetry.Registry
	rnd     *rng.Stream
	opts    Options

	sites    map[netsim.SiteID]*siteSched
	order    []*siteSched   // every site, sorted by ID: the deterministic sweep order
	inflight map[string]int // dispatched-but-incomplete per instrument instance
	transit  []*queuedJob   // stolen jobs riding the WAN between site queues
	// flights holds the jobs in flight in launch order for the recovery
	// sweep, under Options.Recover only; at most Capacity() long.
	flights []*queuedJob

	queued int
	flying int

	pumpQueued bool
	stopTicker func()

	// pumpRef is the test seam the differential oracle (sched_ref_test.go)
	// installs the old rebuild-and-sort pump through; nil outside tests.
	pumpRef func(*siteSched)

	// blocked is the pump in progress's memo: one job per requirement route
	// already failed for. pumpSite resets it and reuses the backing array.
	blocked []*Job

	// Hot-path metric handles, resolved once in New: a by-name lookup is an
	// RWMutex and a map probe per event.
	submittedC, dispatchedC, remoteC, completedC, failuresC, expiredC *telemetry.Counter
	pumpsC, probesC                                                   *telemetry.Counter
	waitH                                                             *telemetry.Histogram
	depthG, inflightG, utilG                                          *telemetry.Gauge

	// requeueC caches the sched.requeues{reason=...} counters; the reason
	// vocabulary is tiny, so each canonical Key is built at most once.
	requeueC map[string]*telemetry.Counter

	// Observer, when non-nil, receives a Decision at every job lifecycle
	// transition (submit, dispatch, retry, rescue, terminal outcome). Set it
	// after New and before traffic flows; the nil default costs one pointer
	// test per transition. Observers must only record — mutating scheduler
	// state from the callback is not supported.
	Observer func(Decision)
}

// observe emits a Decision to the Observer, deriving the job identity and
// routing fields from the queued job's current state.
func (s *Scheduler) observe(kind DecisionKind, qj *queuedJob, reason string) {
	if s.Observer == nil {
		return
	}
	s.Observer(Decision{
		Kind:    kind,
		At:      s.eng.Now(),
		Job:     qj.job.Cmd.SampleID,
		Tenant:  qj.job.Tenant,
		Origin:  qj.job.Origin,
		Host:    qj.host,
		Inst:    qj.inst,
		Reason:  reason,
		Attempt: qj.attempt + qj.reroutes,
	})
}

// New builds a scheduler on the engine, network, and bus fabric, reporting
// into the given telemetry registry. Its metrics are registered eagerly, so
// the metric surface is visible before traffic flows. The stream feeds retry
// backoff jitter only — a run with no failures draws nothing from it.
func New(eng *sim.Engine, net *netsim.Network, fab *bus.Fabric,
	metrics *telemetry.Registry, rnd *rng.Stream, opts Options) *Scheduler {

	opts.defaults()
	if rnd == nil {
		rnd = rng.New(0)
	}
	s := &Scheduler{
		eng:      eng,
		net:      net,
		fab:      fab,
		metrics:  metrics,
		rnd:      rnd,
		opts:     opts,
		sites:    make(map[netsim.SiteID]*siteSched),
		inflight: make(map[string]int),

		submittedC:  metrics.Counter("sched.submitted"),
		dispatchedC: metrics.Counter("sched.dispatched"),
		remoteC:     metrics.Counter("sched.remote_dispatches"),
		completedC:  metrics.Counter("sched.completed"),
		failuresC:   metrics.Counter("sched.failures"),
		expiredC:    metrics.Counter("sched.expired"),
		pumpsC:      metrics.Counter("sched.pumps"),
		probesC:     metrics.Counter("sched.route_probes"),
		waitH:       metrics.Histogram("sched.wait_s"),
		depthG:      metrics.Gauge("sched.queue_depth"),
		inflightG:   metrics.Gauge("sched.inflight"),
		utilG:       metrics.Gauge("sched.utilization"),
	}
	metrics.Counter("sched.steals")
	return s
}

// AddSite registers a federation site with the scheduler.
func (s *Scheduler) AddSite(b SiteBinding) {
	ss := &siteSched{
		bind:    b,
		met:     s.metrics,
		tenants: make(map[string]*tenantQ),
		depth:   s.metrics.Gauge(telemetry.Key("sched.queue_depth", "site", string(b.ID))),
	}
	s.sites[b.ID] = ss
	s.order = append(s.order, ss)
	slices.SortFunc(s.order, func(a, b *siteSched) int { return cmp.Compare(a.bind.ID, b.bind.ID) })
}

// Start launches the background sweep that expires overdue queued jobs
// and re-drives queues whose wake-up events were lost. Idempotent; Submit
// starts it lazily, so a federation that never schedules pays for no
// ticker events.
func (s *Scheduler) Start() {
	if s.stopTicker != nil || s.opts.RepumpInterval <= 0 {
		return
	}
	s.stopTicker = s.eng.Ticker(s.opts.RepumpInterval, func(int) {
		if s.opts.Recover {
			s.recoverInFlight()
		}
		if s.queued == 0 {
			return
		}
		s.expireQueued()
		s.pumpAll()
	})
}

// Stop cancels the background sweep so the event queue can drain.
func (s *Scheduler) Stop() {
	if s.stopTicker != nil {
		s.stopTicker()
		s.stopTicker = nil
	}
}

// Tenant registers (or updates) a fair-share tenant at a site. Submitting
// under an unregistered tenant ID auto-registers it with defaults.
func (s *Scheduler) Tenant(site netsim.SiteID, cfg TenantConfig) {
	ss := s.sites[site]
	if ss == nil {
		return
	}
	ss.tenant(cfg)
}

func (ss *siteSched) tenant(cfg TenantConfig) *tenantQ {
	if cfg.Weight <= 0 {
		cfg.Weight = 1
	}
	if cfg.Weight < 0.05 {
		cfg.Weight = 0.05
	}
	if cfg.Weight > maxWeight {
		cfg.Weight = maxWeight
	}
	t, ok := ss.tenants[cfg.ID]
	if !ok {
		t = &tenantQ{cfg: cfg}
		if ss.met != nil {
			t.waitHist = ss.met.Histogram(telemetry.Key("sched.wait_s",
				"site", string(ss.bind.ID), "tenant", cfg.ID))
			t.retriesC = ss.met.Counter(telemetry.Key("sched.retries",
				"site", string(ss.bind.ID), "tenant", cfg.ID))
		}
		ss.tenants[cfg.ID] = t
	} else {
		t.cfg = cfg
	}
	return t
}

// QueueDepth reports jobs waiting across all site queues.
func (s *Scheduler) QueueDepth() int { return s.queued }

// InFlight reports jobs dispatched but not yet completed.
func (s *Scheduler) InFlight() int { return s.flying }

// Capacity reports the fleet-wide dispatch capacity: registered
// instruments times the per-instrument in-flight cap.
func (s *Scheduler) Capacity() int {
	n := 0
	for _, ss := range s.order {
		n += ss.bind.Fleet.Size()
	}
	return n * s.opts.MaxInFlightPerInstrument
}

// Submit enqueues a job at its origin site's fair-share queue; cb runs
// exactly once with the instrument result or a terminal error. Dispatch is
// asynchronous: drive the engine to make progress.
func (s *Scheduler) Submit(j Job, cb func(instrument.Result, error)) {
	ss := s.sites[j.Origin]
	if ss == nil {
		cb(instrument.Result{}, fmt.Errorf("%w: %q", ErrUnknownSite, j.Origin))
		return
	}
	if j.Tenant == "" {
		cb(instrument.Result{}, ErrUnknownTenant)
		return
	}
	if j.Timeout <= 0 {
		j.Timeout = 48 * sim.Hour
	}
	s.Start()
	t, ok := ss.tenants[j.Tenant]
	if !ok {
		t = ss.tenant(TenantConfig{ID: j.Tenant})
	}
	ss.syncVtime(t)
	qj := &queuedJob{job: j, cfg: t.cfg, cb: cb, enqueued: s.eng.Now()}
	if j.Trace.Enabled() {
		qj.qspan, qj.qctx = j.Trace.Start(qj.enqueued, string(j.Origin), trace.KindSchedQueue, j.Kind)
	}
	s.enqueue(ss, t, qj)
	s.submittedC.Inc()
	s.observe(DecisionSubmit, qj, "")
	s.gauges()
	s.schedulePump()
}

// schedulePump coalesces pump requests into one zero-delay event so
// submissions from completion callbacks never recurse into dispatch.
func (s *Scheduler) schedulePump() {
	if s.pumpQueued {
		return
	}
	s.pumpQueued = true
	s.eng.Schedule(0, func() {
		s.pumpQueued = false
		s.pumpAll()
	})
}

// pumpAll drives every site dispatcher in deterministic order.
func (s *Scheduler) pumpAll() {
	for _, ss := range s.order {
		s.pumpSite(ss)
	}
	s.gauges()
}

// pumpSite dispatches as much of the site's queue as routing allows, then
// considers stealing if the queue ran dry while local capacity idles.
//
// Service order is priority then weighted fair share: the effective classes
// (base class plus aging) are tried from highest to lowest; within a class,
// tenants go in virtual-time order (furthest behind their share first), and
// each dispatch advances the winner's vtime by 1/weight — the
// deficit-round-robin discipline realized as strides, which stays exact
// when probes fail. An unroutable head job drops its tenant for the rest of
// the pump without advancing vtime, and a lower class backfills capacity a
// blocked higher class cannot use — a blocked kind never idles the fleet,
// and the blocked tenant keeps its place in the fair order (plus aging) for
// next time.
//
// Nothing is built or sorted: each class present is one walk of the site's
// persistent fair order, classes stamped once up front (virtual time is
// frozen inside the pump, so the stamps hold), and a winner with work left
// sinks from the cursor to its new place, where the walk meets it again.
// Nor is a blocked requirement probed twice: dispatches only consume
// capacity, so once route fails for a (kind, MinCaps) every later head
// asking the same is skipped off the memo — against a saturated fleet, one
// probe per distinct requirement and no allocation.
func (s *Scheduler) pumpSite(ss *siteSched) {
	s.pumpsC.Inc()
	if s.pumpRef != nil {
		s.pumpRef(ss)
		return
	}
	clear(s.blocked) // the last pump's jobs may be long gone: let them go
	s.blocked = s.blocked[:0]
	const none = math.MinInt
	cl := none
	for _, t := range ss.active {
		t.class = s.effClass(t)
		cl = max(cl, t.class)
	}
	for cl != none {
		next := none
		for i := 0; i < len(ss.active); {
			switch t := ss.active[i]; {
			case t.class != cl:
				if t.class < cl {
					next = max(next, t.class)
				}
				i++
			case !s.tryDispatch(ss, t):
				i++ // blocked for the rest of this pump
			default:
				// An emptied winner has left the order and its successor
				// now sits at i; either way the cursor stays.
				t.vtime += 1 / t.cfg.Weight
				if len(t.jobs) > 0 {
					ss.sink(i)
				}
			}
		}
		cl = next
	}
	if len(ss.active) == 0 {
		s.maybeSteal(ss)
	}
}

// effClass is a tenant's effective priority class: its base class promoted
// one step per AgingStep its head job has waited, capped one step above
// ClassUrgent so even background work eventually outranks fresh urgent
// traffic (the starvation-free guarantee).
func (s *Scheduler) effClass(t *tenantQ) int {
	c := int(t.cfg.Class)
	if s.opts.AgingStep > 0 && len(t.jobs) > 0 {
		c += int((s.eng.Now() - t.jobs[0].enqueued) / s.opts.AgingStep)
	}
	if c > int(ClassUrgent)+1 {
		c = int(ClassUrgent) + 1
	}
	return c
}

// syncVtime pulls a tenant re-entering service up to the active minimum so
// a long-idle (or brand-new) tenant cannot flood the fleet catching up on
// share it never queued for.
func (ss *siteSched) syncVtime(t *tenantQ) {
	if len(t.jobs) > 0 {
		return
	}
	// t is idle, so it is not in the active order: the head is the floor.
	if len(ss.active) > 0 && t.vtime < ss.active[0].vtime {
		t.vtime = ss.active[0].vtime
	}
}

// expireQueued fails jobs that outlived their Timeout while still queued,
// honoring Submit's promise of a terminal outcome even when every
// candidate instrument stays down or unreachable. Tenants are scanned in
// sorted order so expiry callbacks fire deterministically, and removal
// happens before any callback runs so callbacks may safely resubmit.
func (s *Scheduler) expireQueued() {
	now := s.eng.Now()
	var expired []*queuedJob
	for _, ss := range s.order {
		for _, t := range ss.byID() {
			keep := t.jobs[:0]
			for _, qj := range t.jobs {
				if now-qj.enqueued >= qj.job.Timeout {
					expired = append(expired, qj)
					continue
				}
				keep = append(keep, qj)
			}
			n := len(t.jobs) - len(keep)
			t.jobs = keep
			s.dequeued(ss, t, n)
		}
	}
	for _, qj := range expired {
		s.expiredC.Inc()
		qj.qspan.SetStr("outcome", "expired")
		qj.qctx.Finish(&qj.qspan, now)
		s.observe(DecisionExpire, qj, "timeout")
		qj.cb(instrument.Result{}, fmt.Errorf("%w: kind %s queued %v",
			ErrExpired, qj.job.Kind, now-qj.enqueued))
	}
	if len(expired) > 0 {
		s.gauges()
	}
}

// ReleaseTenant drops a finished tenant's fair-share queues at every site
// (stealing may have spread them). Jobs still queued are failed with
// ErrCanceled — after all removals, so callbacks may safely submit — and
// in-flight dispatches are unaffected. Without release, a long-lived
// federation would accumulate one queue per campaign ever run, and a
// failed campaign's orphans would squat in the fair-share order until
// their timeouts.
func (s *Scheduler) ReleaseTenant(id string) {
	var canceled []*queuedJob
	for _, ss := range s.order {
		if t := ss.tenants[id]; t != nil {
			canceled = append(canceled, t.jobs...)
			n := len(t.jobs)
			t.jobs = nil
			s.dequeued(ss, t, n)
			delete(ss.tenants, id)
		}
	}
	// Jobs mid-steal live in neither queue; mark them so the arrival
	// closure drops them instead of resurrecting the tenant.
	for _, qj := range s.transit {
		if qj.job.Tenant == id && !qj.canceled {
			qj.canceled = true
			canceled = append(canceled, qj)
		}
	}
	for _, qj := range canceled {
		s.metrics.Counter("sched.canceled").Inc()
		qj.qspan.SetStr("outcome", "canceled")
		qj.qctx.Finish(&qj.qspan, s.eng.Now())
		s.observe(DecisionCancel, qj, "released")
		qj.cb(instrument.Result{}, fmt.Errorf("%w: tenant %s released", ErrCanceled, id))
	}
	if len(canceled) > 0 {
		s.gauges()
	}
}

// unTransit removes an arrived steal batch from the in-transit list.
func (s *Scheduler) unTransit(batch []*queuedJob) {
	arrived := make(map[*queuedJob]bool, len(batch))
	for _, qj := range batch {
		arrived[qj] = true
	}
	keep := s.transit[:0]
	for _, qj := range s.transit {
		if !arrived[qj] {
			keep = append(keep, qj)
		}
	}
	s.transit = keep
}

// tryDispatch routes and dispatches the tenant's head job, reporting
// whether it went out. A job already past its Timeout fails fast with
// ErrExpired instead of being shipped to an instrument with a dead RPC
// budget; a job still inside its retry backoff blocks its tenant for this
// pump.
func (s *Scheduler) tryDispatch(ss *siteSched, t *tenantQ) bool {
	qj := t.jobs[0]
	now := s.eng.Now()
	if qj.notBefore > now {
		return false
	}
	if now-qj.enqueued >= qj.job.Timeout {
		t.jobs = t.jobs[1:]
		s.dequeued(ss, t, 1)
		s.failExpired(qj, now)
		return true
	}
	if s.isBlocked(&qj.job) {
		return false
	}
	rec, in, ok := s.route(ss, qj.job)
	if !ok {
		s.blocked = append(s.blocked, &qj.job)
		return false
	}
	t.jobs = t.jobs[1:]
	s.dequeued(ss, t, 1)
	s.dispatch(ss, t, qj, rec, in)
	return true
}

// isBlocked reports whether route already failed in this pump for a job
// with exactly this one's kind and capability floors.
func (s *Scheduler) isBlocked(j *Job) bool {
	return slices.ContainsFunc(s.blocked, func(b *Job) bool {
		return b.Kind == j.Kind && maps.Equal(b.MinCaps, j.MinCaps)
	})
}

// failExpired delivers the terminal ErrExpired outcome for a job that
// outlived its Timeout in queue. The callback runs on a fresh event so
// resubmissions never recurse into the pump that found the expiry.
func (s *Scheduler) failExpired(qj *queuedJob, now sim.Time) {
	s.expiredC.Inc()
	qj.qspan.SetStr("outcome", "expired")
	qj.qctx.Finish(&qj.qspan, now)
	s.observe(DecisionExpire, qj, "timeout")
	queued := now - qj.enqueued
	kind := qj.job.Kind
	s.eng.Schedule(0, func() {
		qj.cb(instrument.Result{}, fmt.Errorf("%w: kind %s queued %v",
			ErrExpired, kind, queued))
	})
}

// estimate is the expected action duration on the instrument behind rec,
// derived from its advertised throughput.
func (s *Scheduler) estimate(rec *discovery.Record) sim.Time {
	if tph := rec.Capabilities["throughput_per_hr"]; tph > 0 {
		return sim.Time(float64(sim.Hour) / tph)
	}
	return defaultEstimate
}

// rtt is the round-trip WAN latency between two sites (LAN loopback for
// the same site).
func (s *Scheduler) rtt(a, b netsim.SiteID) sim.Time {
	if a == b {
		if site := s.net.Site(a); site != nil {
			return 2 * site.LANLatency
		}
		return 0
	}
	if l := s.net.LinkBetween(a, b); l != nil {
		return 2 * l.Latency
	}
	return 0
}

// instrumentFor resolves the live instrument behind a directory record
// when its owning site is bound to this scheduler (nil for foreign sites —
// routing then relies on in-flight accounting alone).
func (s *Scheduler) instrumentFor(rec *discovery.Record) *instrument.Instrument {
	host := s.sites[rec.Addr.Site]
	if host == nil {
		return nil
	}
	id := rec.Instance
	if i := strings.IndexByte(id, '/'); i >= 0 {
		id = id[i+1:]
	}
	in, _ := host.bind.Fleet.Get(id)
	return in
}

// route scores every compatible instrument in the federation and returns
// the cheapest, with the live instrument behind it when this scheduler
// hosts it: expected wait from scheduler-tracked in-flight load, a
// penalty for instruments mid-calibration, and the WAN round trip from the
// origin. Down instruments and saturated instruments are skipped; ties
// break on instance name for determinism.
//
// This runs on every dispatch attempt of every pump, so it iterates the
// directory through the registry's allocation-free BrowseFunc index
// instead of cloning the record set; the returned record shares the
// registry's capability maps and is read-only by contract.
func (s *Scheduler) route(ss *siteSched, j Job) (discovery.Record, *instrument.Instrument, bool) {
	r := s.eng.Prof.Enter(prof.SiteSchedRoute)
	defer r.End()
	s.probesC.Inc()
	var best *discovery.Record
	var bestIn *instrument.Instrument
	bestScore := sim.Time(0)
	ss.bind.Registry.BrowseFunc(j.Kind, func(rec *discovery.Record) bool {
		for cap, floor := range j.MinCaps {
			if rec.Capabilities[cap] < floor {
				return true
			}
		}
		if s.inflight[rec.Instance] >= s.opts.MaxInFlightPerInstrument {
			return true
		}
		if !s.net.Reachable(ss.bind.ID, rec.Addr.Site, "bus") {
			return true
		}
		est := s.estimate(rec)
		score := sim.Time(s.inflight[rec.Instance])*est + s.rtt(ss.bind.ID, rec.Addr.Site)
		in := s.instrumentFor(rec)
		if in != nil {
			switch in.State() {
			case instrument.StateDown:
				return true
			case instrument.StateCalibrating:
				score += 30 * sim.Minute
			}
		}
		if best == nil || score < bestScore || (score == bestScore && rec.Instance < best.Instance) {
			best, bestIn, bestScore = rec, in, score
		}
		return true
	})
	if best == nil {
		return discovery.Record{}, nil, false
	}
	return *best, bestIn, true
}

// dispatch launches the job's flight to the chosen instrument over the bus
// and wires the completion path: settling the flight, metrics, the
// submitter's callback, and a pump of the instrument's host site (which
// observed capacity free up) then the origin site.
func (s *Scheduler) dispatch(ss *siteSched, t *tenantQ, qj *queuedJob, rec discovery.Record, in *instrument.Instrument) {
	s.launch(qj, &rec, in)
	epoch := qj.epoch
	wait := s.eng.Now() - qj.enqueued
	s.eng.Prof.Sample(prof.SiteSchedRoute, wait.Std(), qj.job.Trace.TraceID())
	s.waitH.Observe(wait.Seconds())
	if t.waitHist != nil {
		t.waitHist.Observe(wait.Seconds())
	}
	origin, host := ss.bind.ID, qj.host
	s.dispatchedC.Inc()
	if host != origin {
		s.remoteC.Inc()
	}
	s.observe(DecisionDispatch, qj, "")
	s.gauges()

	if qj.job.Trace.Enabled() {
		now := s.eng.Now()
		// The queue span ends where the dispatch span begins; both are
		// siblings under the submitting experiment, so queue wait and
		// dispatch latency attribute to scheduling separately.
		qj.qspan.SetAttr("wait_s", wait.Seconds())
		qj.qspan.SetStr("instance", qj.inst)
		qj.qctx.Finish(&qj.qspan, now)
		qj.job.Trace.Point(now, string(origin), trace.KindSchedRoute, qj.inst)
		qj.dspan, qj.dctx = qj.job.Trace.Start(now, string(host), trace.KindSchedRun, qj.inst)
		if host != origin {
			qj.dspan.SetStr("origin", string(origin))
		}
		qj.job.Cmd.Trace = qj.dctx
	}

	var token any
	if ss.bind.Token != nil {
		token = ss.bind.Token()
	}
	// Timeout covers queueing plus the action: time already spent waiting
	// in the scheduler queue comes out of the RPC budget.
	remaining := max(qj.job.Timeout-wait, sim.Second)
	s.fab.Call(bus.CallOpts{
		From:    bus.Address{Site: origin, Name: "sched"},
		To:      rec.Addr,
		Method:  "run",
		Payload: qj.job.Cmd,
		Token:   token,
		Size:    512,
		Timeout: remaining,
		Trace:   qj.dctx,
	}, func(result any, err error) {
		if qj.epoch != epoch {
			// The recovery sweep rescued this job while the RPC was
			// outstanding; the job's outcome now belongs to a later
			// dispatch. Accounting was settled at rescue time.
			s.metrics.Counter("sched.stale_replies").Inc()
			return
		}
		s.settle(qj, "")
		if err != nil && qj.attempt < qj.job.MaxRetries {
			s.failuresC.Inc()
			s.retry(qj, err)
		} else if err != nil {
			s.failuresC.Inc()
			s.observe(DecisionFail, qj, err.Error())
			qj.cb(instrument.Result{}, err)
		} else if res, ok := result.(instrument.Result); ok {
			s.completedC.Inc()
			s.observe(DecisionComplete, qj, "")
			qj.cb(res, nil)
		} else {
			s.failuresC.Inc()
			s.observe(DecisionFail, qj, "unexpected reply type")
			qj.cb(instrument.Result{}, fmt.Errorf("sched: unexpected reply type %T", result))
		}
		// The host freed capacity and gets first claim on it; the origin
		// follows (it may have backlog for other instruments).
		if hs := s.sites[host]; hs != nil {
			s.pumpSite(hs)
		}
		if host != origin {
			s.pumpSite(ss)
		}
		s.gauges()
	})
}

// launch sends qj's flight to the instrument behind rec (in, when this
// scheduler hosts it) and counts it against that instrument's cap.
func (s *Scheduler) launch(qj *queuedJob, rec *discovery.Record, in *instrument.Instrument) {
	qj.inst, qj.host, qj.in = rec.Instance, rec.Addr.Site, in
	s.inflight[qj.inst]++
	s.flying++
	if s.opts.Recover {
		s.flights = append(s.flights, qj)
	}
}

// settle lands qj's flight on its RPC's outcome or a rescue, marking the
// dispatch span with outcome if there is one. The removal keeps flights in
// launch order (a swap would reorder later rescue sweeps).
func (s *Scheduler) settle(qj *queuedJob, outcome string) {
	s.inflight[qj.inst]--
	s.flying--
	if i := slices.Index(s.flights, qj); i >= 0 {
		s.flights = slices.Delete(s.flights, i, i+1)
	}
	if outcome != "" {
		qj.dspan.SetStr("outcome", outcome)
	}
	qj.dctx.Finish(&qj.dspan, s.eng.Now())
}

// rescue pulls qj's lost flight back: a new epoch makes the outstanding
// RPC's eventual reply stale, and the job returns to its origin queue to be
// rerouted on the next pump, which excludes down and unreachable hosts.
// Rescues do not consume the retry budget; the Timeout bounds rerouting.
func (s *Scheduler) rescue(qj *queuedJob, reason string) {
	qj.epoch++
	s.settle(qj, "rescued")
	qj.reroutes++
	s.observe(DecisionRescue, qj, reason)
	s.requeue(qj, reason, trace.KindSchedRequeue, 0)
}

// retry consumes one unit of the job's MaxRetries budget and re-queues it
// with exponential backoff + jitter. The backoff draw comes from the
// scheduler's seeded stream, so retry timing is deterministic — and a run
// with no failures never touches the stream.
func (s *Scheduler) retry(qj *queuedJob, cause error) {
	qj.attempt++
	var t *tenantQ
	if ss := s.sites[qj.job.Origin]; ss != nil {
		t = ss.tenants[qj.job.Tenant]
	}
	if t != nil && t.retriesC != nil {
		t.retriesC.Inc()
	} else {
		s.metrics.Counter(telemetry.Key("sched.retries",
			"site", string(qj.job.Origin), "tenant", qj.job.Tenant)).Inc()
	}
	s.observe(DecisionRetry, qj, cause.Error())
	backoff := s.opts.RetryBase << uint(qj.attempt-1)
	if backoff > retryMax || backoff <= 0 {
		backoff = retryMax
	}
	backoff = sim.Time(float64(backoff) * (1 + 0.5*s.rnd.Float64()))
	s.requeue(qj, "failure", trace.KindSchedRetry, backoff)
}

// recoverInFlight rescues, in launch order, every flight whose host
// instrument is down or whose host site is no longer reachable from the
// job's origin.
func (s *Scheduler) recoverInFlight() {
	n := len(s.flights)
	for i := 0; i < len(s.flights); {
		if reason := s.flightLost(s.flights[i]); reason != "" {
			s.rescue(s.flights[i], reason) // settling takes it out at i
		} else {
			i++
		}
	}
	if len(s.flights) < n {
		s.pumpAll()
	}
}

// flightLost names why an outstanding dispatch can no longer complete
// usefully — its host site has partitioned away from the job's origin
// ("unreachable") or its instrument is down ("site-down") — or returns ""
// while it still can.
func (s *Scheduler) flightLost(qj *queuedJob) string {
	if !s.net.Reachable(qj.job.Origin, qj.host, "bus") {
		return "unreachable"
	}
	if qj.in != nil && qj.in.State() == instrument.StateDown {
		return "site-down"
	}
	return ""
}

// requeueCounter resolves sched.requeues{reason=...} through a small
// per-reason cache so steady-state requeues never rebuild the labeled key.
func (s *Scheduler) requeueCounter(reason string) *telemetry.Counter {
	if c, ok := s.requeueC[reason]; ok {
		return c
	}
	if s.requeueC == nil {
		s.requeueC = make(map[string]*telemetry.Counter)
	}
	c := s.metrics.Counter(telemetry.Key("sched.requeues", "reason", reason))
	s.requeueC[reason] = c
	return c
}

// requeue returns a job to its origin site's tenant queue after a failed
// dispatch or a rescue. If the tenant has been released meanwhile, the job
// terminates with ErrCanceled instead of resurrecting the tenant.
func (s *Scheduler) requeue(qj *queuedJob, reason, kind string, backoff sim.Time) {
	now := s.eng.Now()
	s.requeueCounter(reason).Inc()
	ss := s.sites[qj.job.Origin]
	var t *tenantQ
	if ss != nil {
		t = ss.tenants[qj.job.Tenant]
	}
	if t == nil {
		s.metrics.Counter("sched.canceled").Inc()
		s.observe(DecisionCancel, qj, "released")
		s.eng.Schedule(0, func() {
			qj.cb(instrument.Result{}, fmt.Errorf("%w: tenant %s released",
				ErrCanceled, qj.job.Tenant))
		})
		return
	}
	qj.notBefore = now + backoff
	if qj.job.Trace.Enabled() {
		// A fresh queue-wait span, finished by the next dispatch (or
		// expiry), with the recovery kind marking why the job is back.
		qj.qspan, qj.qctx = qj.job.Trace.Start(now, string(qj.job.Origin), kind, qj.job.Kind)
		qj.qspan.SetStr("reason", reason)
		qj.qspan.SetAttr("attempt", float64(qj.attempt+qj.reroutes))
	}
	s.enqueue(ss, t, qj)
	if backoff > 0 {
		s.eng.Schedule(backoff, func() { s.schedulePump() })
	} else {
		s.schedulePump()
	}
}

// localSpare reports whether the site hosts an instrument that could
// accept another dispatch right now.
func (s *Scheduler) localSpare(ss *siteSched) bool {
	spare := false
	ss.bind.Fleet.Each(func(in *instrument.Instrument) bool {
		spare = in.State() != instrument.StateDown &&
			s.inflight[string(ss.bind.ID)+"/"+in.Descriptor().ID] < s.opts.MaxInFlightPerInstrument
		return !spare
	})
	return spare
}

// maybeSteal runs when a site's queue is dry: if the site still has spare
// instrument capacity, it takes half the deepest peer backlog (newest jobs
// first, only kinds routable from here), paying one WAN round trip before
// the work lands in its own queues.
func (s *Scheduler) maybeSteal(ss *siteSched) {
	r := s.eng.Prof.Enter(prof.SiteSchedSteal)
	defer r.End()
	if !s.localSpare(ss) {
		return
	}
	var victim *siteSched
	deepest := stealThreshold - 1
	for _, o := range s.order {
		if o == ss {
			continue
		}
		if q := o.queued; q > deepest {
			deepest, victim = q, o
		}
	}
	if victim == nil {
		return
	}
	want := (victim.queued + 1) / 2
	stolen := s.stealFrom(victim, ss, want)
	if len(stolen) == 0 {
		return
	}
	s.metrics.Counter("sched.steals").Add(int64(len(stolen)))
	s.transit = append(s.transit, stolen...)
	delay := s.rtt(victim.bind.ID, ss.bind.ID)
	stealStart := s.eng.Now()
	victimID := victim.bind.ID
	s.eng.Schedule(delay, func() {
		s.unTransit(stolen)
		for _, qj := range stolen {
			if qj.canceled {
				continue // tenant released while the batch was in flight
			}
			if qj.job.Trace.Enabled() {
				sp, cc := qj.job.Trace.Start(stealStart, string(ss.bind.ID),
					trace.KindSchedSteal, qj.job.Kind)
				sp.SetStr("from", string(victimID))
				cc.Finish(&sp, s.eng.Now())
			}
			qj.job.Origin = ss.bind.ID
			s.observe(DecisionSteal, qj, string(victimID))
			t, ok := ss.tenants[qj.job.Tenant]
			if !ok {
				t = ss.tenant(qj.cfg)
			}
			ss.syncVtime(t)
			s.enqueue(ss, t, qj)
		}
		s.pumpSite(ss)
		s.gauges()
	})
}

// stealFrom removes up to want jobs from the victim's queue tails,
// round-robin across its tenants, skipping kinds the thief cannot see.
func (s *Scheduler) stealFrom(victim, thief *siteSched, want int) []*queuedJob {
	ts := victim.byID()
	var out []*queuedJob
	for len(out) < want {
		took := false
		for _, t := range ts {
			if len(t.jobs) == 0 || len(out) >= want {
				continue
			}
			qj := t.jobs[len(t.jobs)-1]
			if !thief.bind.Registry.HasType(qj.job.Kind) {
				continue
			}
			t.jobs = t.jobs[:len(t.jobs)-1]
			s.dequeued(victim, t, 1)
			out = append(out, qj)
			took = true
		}
		if !took {
			break
		}
	}
	return out
}

// gauges refreshes the point-in-time scheduler metrics, including each
// site's labelled queue depth (pointers cached at AddSite).
func (s *Scheduler) gauges() {
	s.depthG.Set(float64(s.queued))
	s.inflightG.Set(float64(s.flying))
	if c := s.Capacity(); c > 0 {
		s.utilG.Set(float64(s.flying) / float64(c))
	}
	for _, ss := range s.order {
		ss.depth.Set(float64(ss.queued))
	}
}
