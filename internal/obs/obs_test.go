package obs

import (
	"bytes"
	"strings"
	"testing"

	"github.com/aisle-sim/aisle/internal/sched"
	"github.com/aisle-sim/aisle/internal/sim"
	"github.com/aisle-sim/aisle/internal/telemetry"
	"github.com/aisle-sim/aisle/internal/trace"
)

// newTestEngine assembles an enabled engine over one registry and tracer
// with a single SLO, returning the pieces tests drive by hand (no ticker;
// tests call Sample at the instants they choose).
func newTestEngine(t *testing.T, slo SLO, tr *trace.Tracer) (*Engine, *sim.Engine, *telemetry.Registry) {
	t.Helper()
	eng := sim.NewEngine()
	reg := telemetry.NewRegistry()
	e := New(eng, reg, tr, Options{Enabled: true})
	if e == nil {
		t.Fatal("New returned nil for an enabled config")
	}
	e.AddSLO(slo)
	return e, eng, reg
}

// newBareEngine is an enabled engine with no SLO, registry or tracer, for
// tests that drive only the journal, the snapshots or the linker.
func newBareEngine() (*Engine, *sim.Engine) {
	eng := sim.NewEngine()
	return New(eng, nil, nil, Options{Enabled: true}), eng
}

func ratioSLO() SLO {
	return SLO{
		Name:      "jobs",
		Metric:    Metric{Good: []string{"good"}, Bad: []string{"bad"}},
		Objective: 0.9,
		Windows:   []BurnWindow{{Short: 30 * sim.Second, Long: 60 * sim.Second, Burn: 2}},
	}
}

func TestDisabledEngineIsNil(t *testing.T) {
	if e := New(sim.NewEngine(), telemetry.NewRegistry(), nil, Options{}); e != nil {
		t.Fatalf("New with Enabled=false returned %v, want nil", e)
	}
}

func TestBurnRateFiresAndResolves(t *testing.T) {
	e, eng, reg := newTestEngine(t, ratioSLO(), nil)
	good, bad := reg.Counter("good"), reg.Counter("bad")

	// Healthy traffic: 10 good events per tick for 8 ticks.
	for i := 0; i < 8; i++ {
		good.Add(10)
		eng.Schedule(15*sim.Second, e.Sample)
		if err := eng.Run(); err != nil {
			t.Fatal(err)
		}
	}
	if len(e.Alerts()) != 0 {
		t.Fatalf("healthy stream raised alerts: %+v", e.Alerts())
	}

	// Outage: everything fails for 5 ticks. Bad fraction 1.0 against a 10%
	// budget is a 10x burn, over both the 2-tick and 4-tick windows.
	for i := 0; i < 5; i++ {
		bad.Add(10)
		eng.Schedule(15*sim.Second, e.Sample)
		if err := eng.Run(); err != nil {
			t.Fatal(err)
		}
	}
	alerts := e.Alerts()
	if len(alerts) != 1 {
		t.Fatalf("outage raised %d alerts, want 1: %+v", len(alerts), alerts)
	}
	if alerts[0].SLO != "jobs" || alerts[0].ResolvedAt != 0 {
		t.Fatalf("unexpected alert: %+v", alerts[0])
	}
	if !strings.Contains(alerts[0].Detail, "exceeds 2.0x") {
		t.Fatalf("alert detail %q does not name the burn threshold", alerts[0].Detail)
	}

	// Recovery: good traffic long enough to flush both windows.
	for i := 0; i < 8; i++ {
		good.Add(10)
		eng.Schedule(15*sim.Second, e.Sample)
		if err := eng.Run(); err != nil {
			t.Fatal(err)
		}
	}
	alerts = e.Alerts()
	if len(alerts) != 1 || alerts[0].ResolvedAt == 0 {
		t.Fatalf("alert did not resolve after recovery: %+v", alerts)
	}

	// The alert transition must have frozen exactly one snapshot.
	snaps := e.Snapshots()
	if len(snaps) != 1 || !strings.HasPrefix(snaps[0].Trigger, "alert:jobs") {
		t.Fatalf("snapshots = %+v, want one alert:jobs snapshot", snaps)
	}
}

func TestBurnWindowShorterThanOneSample(t *testing.T) {
	// A 1s window under a 15s sample period must evaluate over the latest
	// tick instead of rounding down to an empty interval.
	slo := ratioSLO()
	slo.Windows = []BurnWindow{{Short: sim.Second, Long: 2 * sim.Second, Burn: 2}}
	e, eng, reg := newTestEngine(t, slo, nil)
	good, bad := reg.Counter("good"), reg.Counter("bad")

	good.Add(10)
	eng.Schedule(15*sim.Second, e.Sample)
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	bad.Add(10)
	eng.Schedule(15*sim.Second, e.Sample)
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	st := e.Statuses()[0]
	if !st.Alerting {
		t.Fatalf("sub-period window did not alert on a pure-bad tick: %+v", st)
	}
	if got := st.Windows[0].ShortBurn; got < 9.999 || got > 10.001 {
		t.Fatalf("short burn = %v, want 10 (bad fraction 1.0 over a 0.1 budget)", got)
	}
}

func TestBurnClampsToHistoryAtClockStart(t *testing.T) {
	// Windows longer than the history held must evaluate over everything
	// held rather than reading stale ring slots: with the clock starting at
	// zero, the very second sample can already alert.
	slo := ratioSLO()
	slo.Windows = []BurnWindow{{Short: sim.Hour, Long: 3 * sim.Hour, Burn: 2}}
	e, eng, reg := newTestEngine(t, slo, nil)
	bad := reg.Counter("bad")

	if e.Sample(); e.Statuses()[0].Alerting {
		t.Fatal("single-sample history alerted (burn needs two samples)")
	}
	bad.Add(10)
	eng.Schedule(15*sim.Second, e.Sample)
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	if st := e.Statuses()[0]; !st.Alerting {
		t.Fatalf("hour-long window did not clamp to the 2-sample history: %+v", st)
	}
}

func TestGaugeSLOCountsTickVerdicts(t *testing.T) {
	slo := SLO{
		Name:      "depth",
		Metric:    Metric{Gauge: "queue_depth", Bound: 5},
		Objective: 0.5,
		Windows:   []BurnWindow{{Short: 30 * sim.Second, Long: 60 * sim.Second, Burn: 1.5}},
	}
	e, eng, reg := newTestEngine(t, slo, nil)
	g := reg.Gauge("queue_depth")

	g.Set(2) // within bound: healthy ticks
	for i := 0; i < 4; i++ {
		eng.Schedule(15*sim.Second, e.Sample)
		if err := eng.Run(); err != nil {
			t.Fatal(err)
		}
	}
	g.Set(50) // runaway queue: every tick is bad
	for i := 0; i < 4; i++ {
		eng.Schedule(15*sim.Second, e.Sample)
		if err := eng.Run(); err != nil {
			t.Fatal(err)
		}
	}
	if st := e.Statuses()[0]; !st.Alerting {
		t.Fatalf("bounded-gauge SLO did not alert on a sustained breach: %+v", st)
	}
}

func TestLazyMetricResolution(t *testing.T) {
	// The SLO references a histogram that does not exist yet; ticks before
	// it appears contribute nothing, and the series picks up afterwards.
	slo := SLO{
		Name:      "lag",
		Metric:    Metric{Hist: "lag_s", Threshold: 1},
		Objective: 0.9,
		Windows:   []BurnWindow{{Short: 30 * sim.Second, Long: 60 * sim.Second, Burn: 2}},
	}
	e, eng, reg := newTestEngine(t, slo, nil)
	eng.Schedule(15*sim.Second, e.Sample)
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	h := reg.Histogram("lag_s") // created after the first tick
	for i := 0; i < 4; i++ {
		h.Observe(100) // far past the threshold: all bad
		eng.Schedule(15*sim.Second, e.Sample)
		if err := eng.Run(); err != nil {
			t.Fatal(err)
		}
	}
	if st := e.Statuses()[0]; !st.Alerting {
		t.Fatalf("late-created histogram never resolved: %+v", st)
	}
}

func TestJournalRingBounded(t *testing.T) {
	e, _ := newBareEngine()
	e.rec = newRecorder(8, maxSnapshots)
	for i := 0; i < 20; i++ {
		e.ObserveDecision(sched.Decision{Kind: sched.DecisionSubmit, Job: "job", At: sim.Time(i)})
	}
	j := e.Journal()
	if len(j) != 8 {
		t.Fatalf("journal holds %d entries, want capacity 8", len(j))
	}
	if j[0].Seq != 13 || j[7].Seq != 20 {
		t.Fatalf("journal kept seqs %d..%d, want the newest 13..20", j[0].Seq, j[7].Seq)
	}
	for i := 1; i < len(j); i++ {
		if j[i].Seq != j[i-1].Seq+1 {
			t.Fatalf("journal out of order at %d: %+v", i, j)
		}
	}
}

func TestSnapshotCoalescingAndCap(t *testing.T) {
	e, eng := newBareEngine()
	e.rec = newRecorder(journalCapacity, 3)
	// A violation storm at one instant coalesces into one snapshot.
	for i := 0; i < 5; i++ {
		e.ObserveViolation("dup terminal")
	}
	if got := len(e.Snapshots()); got != 1 {
		t.Fatalf("same-instant violation storm froze %d snapshots, want 1", got)
	}
	// Distinct instants take distinct snapshots up to the cap.
	for i := 1; i <= 5; i++ {
		eng.Schedule(sim.Second, func() { e.Snapshot("manual") })
		if err := eng.Run(); err != nil {
			t.Fatal(err)
		}
	}
	snaps := e.Snapshots()
	if len(snaps) != 3 {
		t.Fatalf("retained %d snapshots, want the cap of 3", len(snaps))
	}
	if e.rec.skipped != 3 {
		t.Fatalf("skipped = %d, want 3 (two capped manuals + none coalesced)", e.rec.skipped)
	}
}

func TestLinkerAttributesOverlappingFault(t *testing.T) {
	e, _ := newBareEngine()
	e.ObserveFault(FaultWindow{Kind: "site-outage", Site: "ornl",
		Start: 10 * sim.Second, End: 60 * sim.Second})
	d := sched.Decision{Kind: sched.DecisionSubmit, Job: "j1", Tenant: "t",
		Origin: "anl", At: 20 * sim.Second}
	e.ObserveDecision(d)
	d.Kind, d.Host, d.Inst, d.At = sched.DecisionDispatch, "ornl", "ornl/flow-0", 21*sim.Second
	e.ObserveDecision(d)
	d.Kind, d.Reason, d.At, d.Attempt = sched.DecisionRetry, "instrument down", 30*sim.Second, 1
	e.ObserveDecision(d)
	d.Kind, d.Host, d.At = sched.DecisionDispatch, "anl", 31*sim.Second
	e.ObserveDecision(d)
	d.Kind, d.Reason, d.At = sched.DecisionComplete, "", 40*sim.Second
	e.ObserveDecision(d)

	att := e.Attribution()
	if att.DegradedJobs != 1 || att.AttributedJobs != 1 || att.Coverage != 1 {
		t.Fatalf("attribution = %+v, want the one degraded job attributed", att)
	}
	incs := e.Incidents()
	if len(incs) != 1 {
		t.Fatalf("incidents = %+v, want 1", incs)
	}
	inc := incs[0]
	if inc.Fault.Site != "ornl" || inc.Retries != 1 || inc.Completed != 1 ||
		len(inc.Jobs) != 1 || inc.Jobs[0].Job != "j1" || inc.Jobs[0].Outcome != "completed" {
		t.Fatalf("incident = %+v", inc)
	}
	if !strings.Contains(inc.Summary, "ornl site-outage") {
		t.Fatalf("summary %q does not name the fault", inc.Summary)
	}
}

func TestLinkerClassifiesBackgroundNoise(t *testing.T) {
	// A retry with no fault window active anywhere is intrinsic instrument
	// noise: not attributed, and excluded from the coverage denominator.
	e, _ := newBareEngine()
	e.ObserveFault(FaultWindow{Kind: "degrade", Site: "ornl",
		Start: sim.Hour, End: 2 * sim.Hour})
	d := sched.Decision{Kind: sched.DecisionSubmit, Job: "j1", Origin: "anl", At: sim.Second}
	e.ObserveDecision(d)
	d.Kind, d.Host, d.At = sched.DecisionDispatch, "anl", 2*sim.Second
	e.ObserveDecision(d)
	d.Kind, d.Reason, d.At = sched.DecisionRetry, "action failed mid-run", 10*sim.Second
	e.ObserveDecision(d)

	att := e.Attribution()
	if att.DegradedJobs != 1 || att.BackgroundJobs != 1 || att.AttributedJobs != 0 {
		t.Fatalf("attribution = %+v, want one background job", att)
	}
	if att.Coverage != 1 {
		t.Fatalf("coverage = %v, want 1 (background excluded from the denominator)", att.Coverage)
	}
	if len(e.Incidents()) != 0 {
		t.Fatalf("background noise produced incidents: %+v", e.Incidents())
	}
}

func TestLinkerTerminalFallbackToLifetime(t *testing.T) {
	// A job stranded by an outage can expire long after the window healed;
	// the terminal event falls back to the job's lifetime for attribution.
	e, _ := newBareEngine()
	e.ObserveFault(FaultWindow{Kind: "site-outage", Site: "ornl",
		Start: 10 * sim.Second, End: 30 * sim.Second})
	d := sched.Decision{Kind: sched.DecisionSubmit, Job: "j1", Origin: "ornl", At: 15 * sim.Second}
	e.ObserveDecision(d)
	// Requeued well after the heal, then expired: the attempt window alone
	// misses the fault, the lifetime window catches it.
	d.Kind, d.At = sched.DecisionDispatch, 2*sim.Hour
	d.Host = "ornl"
	e.ObserveDecision(d)
	d.Kind, d.Reason, d.At = sched.DecisionExpire, "timeout", 3*sim.Hour
	e.ObserveDecision(d)

	att := e.Attribution()
	if att.AttributedJobs != 1 {
		t.Fatalf("attribution = %+v, want the expiry attributed via lifetime fallback", att)
	}
	incs := e.Incidents()
	if len(incs) != 1 || incs[0].Expired != 1 {
		t.Fatalf("incidents = %+v, want one with the expiry counted", incs)
	}
}

func TestLinkerAttributesQueueStarvationAcrossSites(t *testing.T) {
	// A job that never dispatched starved in queue: the capability it
	// waited on may live at another site entirely, so the site filter is
	// waived and the overlapping outage — wherever it is — gets the blame.
	e, _ := newBareEngine()
	e.ObserveFault(FaultWindow{Kind: "site-outage", Site: "ornl",
		Start: 10 * sim.Second, End: sim.Hour})
	d := sched.Decision{Kind: sched.DecisionSubmit, Job: "j1", Origin: "anl", At: 20 * sim.Second}
	e.ObserveDecision(d)
	d.Kind, d.Reason, d.At = sched.DecisionExpire, "timeout", 30*sim.Minute
	e.ObserveDecision(d)

	att := e.Attribution()
	if att.AttributedJobs != 1 {
		t.Fatalf("attribution = %+v, want the queue starvation attributed cross-site", att)
	}
	incs := e.Incidents()
	if len(incs) != 1 || incs[0].Fault.Site != "ornl" || incs[0].Expired != 1 {
		t.Fatalf("incidents = %+v", incs)
	}
}

func TestSnapshotJSONByteStable(t *testing.T) {
	build := func() *Engine {
		e, _ := newBareEngine()
		e.ObserveFault(FaultWindow{Kind: "partition", Site: "anl",
			Start: sim.Second, End: sim.Minute})
		for i := 0; i < 3; i++ {
			e.ObserveDecision(sched.Decision{Kind: sched.DecisionSubmit,
				Job: "job-000" + string(rune('0'+i)), Origin: "anl", At: sim.Time(i) * sim.Second})
		}
		e.ObserveViolation("x delivered on a down link")
		e.Snapshot("manual")
		return e
	}
	var a, b bytes.Buffer
	if err := build().WriteSnapshotsJSON(&a); err != nil {
		t.Fatal(err)
	}
	if err := build().WriteIncidentsJSON(&b); err != nil {
		t.Fatal(err)
	}
	var a2, b2 bytes.Buffer
	if err := build().WriteSnapshotsJSON(&a2); err != nil {
		t.Fatal(err)
	}
	if err := build().WriteIncidentsJSON(&b2); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), a2.Bytes()) {
		t.Fatal("snapshot JSON differs across identical engines")
	}
	if !bytes.Equal(b.Bytes(), b2.Bytes()) {
		t.Fatal("incident JSON differs across identical engines")
	}
	if a.Len() == 0 || a.String() == "[]\n" {
		t.Fatalf("snapshot JSON unexpectedly empty: %q", a.String())
	}
}

func TestNilEnginePathIsZeroAlloc(t *testing.T) {
	var e *Engine // nil: health off
	d := sched.Decision{Kind: sched.DecisionDispatch, Job: "j", At: sim.Second}
	w := FaultWindow{Kind: "degrade", Site: "ornl"}
	allocs := testing.AllocsPerRun(1000, func() {
		e.Sample()
		e.ObserveDecision(d)
		e.ObserveFault(w)
		e.ObserveViolation("v")
		e.Snapshot("t")
		e.Start()
		e.Stop()
		if e.Alerts() != nil || e.Snapshots() != nil || e.Incidents() != nil {
			t.Fatal("nil engine returned data")
		}
	})
	if allocs != 0 {
		t.Fatalf("disabled health path allocated %v allocs/op, want 0", allocs)
	}
}

func TestDefaultSLOsCoverTheFederationSignals(t *testing.T) {
	slos := DefaultSLOs([]string{"ornl", "anl"})
	names := make(map[string]bool, len(slos))
	for _, s := range slos {
		names[s.Name] = true
	}
	for _, want := range []string{"job-completion", "sched-wait", "knowledge-sync",
		"queue-depth@ornl", "queue-depth@anl"} {
		if !names[want] {
			t.Fatalf("DefaultSLOs missing %q: %v", want, names)
		}
	}
	if len(DefaultWindows()) != 2 {
		t.Fatalf("DefaultWindows = %+v, want the fast+slow pair", DefaultWindows())
	}
}

// TestTraceDropGaugesSurfaceInSnapshot closes the gap where the tracer's
// per-site span-drop counters lived only on the Tracer: every Sample
// publishes them on the engine's registry as trace.dropped{site=...}
// gauges, so they ride Registry.Snapshot like any other labeled metric.
func TestTraceDropGaugesSurfaceInSnapshot(t *testing.T) {
	tr := trace.New(trace.Options{Enabled: true, SiteCapacity: 2})
	e, eng, reg := newTestEngine(t, ratioSLO(), tr)

	// Overflow the ornl ring: 5 spans into a capacity-2 ring drops 3.
	ctx := tr.Root(1)
	for i := 0; i < 5; i++ {
		s, c := ctx.Start(eng.Now(), "ornl", "job", "run")
		c.Finish(&s, eng.Now()+sim.Second)
	}
	if got := tr.DroppedBySite()["ornl"]; got != 3 {
		t.Fatalf("precondition: DroppedBySite()[ornl] = %d, want 3", got)
	}

	key := telemetry.Key("trace.dropped", "site", "ornl")
	if g := reg.FindGauge(key); g != nil {
		t.Fatal("drop gauge exported before any Sample")
	}
	e.Sample()
	g := reg.FindGauge(key)
	if g == nil {
		t.Fatalf("Sample did not export %s", key)
	}
	if got := g.Value(); got != 3 {
		t.Fatalf("%s = %v, want 3", key, got)
	}
	// The gauge must appear in the snapshot, not just on direct lookup.
	if v, ok := reg.Snapshot().Gauges[key]; !ok || v != 3 {
		t.Fatalf("Registry.Snapshot gauge %s = %v (present %v), want 3", key, v, ok)
	}
	// Drops keep flowing: two more spans, two more drops, next Sample
	// moves the gauge.
	for i := 0; i < 2; i++ {
		s, c := ctx.Start(eng.Now(), "ornl", "job", "run")
		c.Finish(&s, eng.Now()+sim.Second)
	}
	e.Sample()
	if got := reg.FindGauge(key).Value(); got != 5 {
		t.Fatalf("after more drops %s = %v, want 5", key, got)
	}
}
