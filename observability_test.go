// Observability acceptance tests: a fixed-seed federation run must produce
// a byte-identical Chrome trace (golden below, refresh with -update), the
// spans must causally link submit -> dispatch -> delivery -> run -> insight,
// and the critical-path extractor must attribute at least 95% of each
// campaign's virtual makespan to an instrumented layer. The scheduler's
// route probes per dispatch stay bounded on a saturated federation.
package aisle

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"github.com/aisle-sim/aisle/internal/experiments"
)

var update = flag.Bool("update", false, "rewrite golden files")

// runTracedCampaign drives one fully-sampled scheduler-batched campaign
// across a 2-site shared-knowledge federation and returns the network with
// its tracer and metrics populated.
func runTracedCampaign(t testing.TB) (*Network, *CampaignReport) {
	t.Helper()
	n := New(Config{
		Seed:            7,
		Sites:           []SiteID{"ornl", "anl"},
		Link:            DefaultLink(),
		SharedKnowledge: true,
		Trace:           TraceOptions{Enabled: true},
	})
	t.Cleanup(n.Stop)
	n.Site("ornl").AddInstrument(NewFluidicReactor(n.Eng, n.Rnd, "flow-1", "ornl", Perovskite{}))
	n.Site("anl").AddInstrument(NewFluidicReactor(n.Eng, n.Rnd, "flow-2", "anl", Perovskite{}))
	if err := n.RunFor(3 * Minute); err != nil {
		t.Fatal(err)
	}
	var rep *CampaignReport
	n.RunCampaign(CampaignConfig{
		Name:         "golden",
		Site:         "ornl",
		Model:        Perovskite{},
		Budget:       8,
		Mode:         OrchAgentVerified,
		SynthKind:    KindFlowReactor,
		Parallelism:  2,
		UseKnowledge: true,
	}, func(r *CampaignReport) { rep = r })
	for rep == nil {
		if err := n.RunFor(Hour); err != nil {
			t.Fatal(err)
		}
	}
	if rep.Err != nil {
		t.Fatal(rep.Err)
	}
	return n, rep
}

// TestTraceGoldenDeterministic replays the fixed-seed campaign twice and
// requires byte-identical Chrome trace JSON, then pins it against the
// checked-in golden so any change to span emission is a conscious one.
func TestTraceGoldenDeterministic(t *testing.T) {
	var bufs [2]bytes.Buffer
	for i := range bufs {
		n, _ := runTracedCampaign(t)
		if err := n.Tracer.WriteChromeTrace(&bufs[i]); err != nil {
			t.Fatal(err)
		}
	}
	if !bytes.Equal(bufs[0].Bytes(), bufs[1].Bytes()) {
		t.Fatal("two fixed-seed runs produced different traces")
	}
	golden := filepath.Join("testdata", "trace_golden.json")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, bufs[0].Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (regenerate with go test -run TraceGolden -update)", err)
	}
	if !bytes.Equal(bufs[0].Bytes(), want) {
		t.Fatalf("trace diverged from %s (refresh with -update if intended); got %d bytes, want %d",
			golden, bufs[0].Len(), len(want))
	}
}

// TestTraceCausalChain walks the span tree and requires the full causal
// story of an experiment: campaign -> experiment -> {queue, dispatch} ->
// {WAN delivery, instrument run}, with knowledge sync recorded against the
// producing experiment.
func TestTraceCausalChain(t *testing.T) {
	n, rep := runTracedCampaign(t)
	spans := n.Tracer.Spans()
	if len(spans) == 0 {
		t.Fatal("no spans recorded")
	}
	if n.Tracer.Dropped() != 0 {
		t.Fatalf("ring overflow dropped %d spans; raise SiteCapacity", n.Tracer.Dropped())
	}

	byID := make(map[uint64]*TraceSpan, len(spans))
	byKind := make(map[string][]*TraceSpan)
	for i := range spans {
		s := &spans[i]
		byID[s.SpanID] = s
		byKind[s.Kind] = append(byKind[s.Kind], s)
	}

	roots := byKind["campaign"]
	if len(roots) != 1 || roots[0].ParentID != 0 {
		t.Fatalf("want exactly one root campaign span, got %d", len(roots))
	}
	root := roots[0]

	exps := byKind["core.experiment"]
	if len(exps) != rep.Executed {
		t.Fatalf("want %d experiment spans (one per executed experiment), got %d",
			rep.Executed, len(exps))
	}
	for _, e := range exps {
		if e.ParentID != root.SpanID {
			t.Fatalf("experiment span %d not parented on the campaign root", e.SpanID)
		}
	}

	// Each causal hop must appear, parented on the previous one.
	requireChild := func(kind string, parentKinds ...string) {
		t.Helper()
		if len(byKind[kind]) == 0 {
			t.Fatalf("no %s spans recorded", kind)
		}
		ok := 0
		for _, s := range byKind[kind] {
			p := byID[s.ParentID]
			if p == nil {
				continue
			}
			for _, pk := range parentKinds {
				if p.Kind == pk {
					ok++
					break
				}
			}
		}
		if ok == 0 {
			t.Fatalf("no %s span is parented on any of %v", kind, parentKinds)
		}
	}
	requireChild("sched.queue", "core.experiment")
	requireChild("sched.dispatch", "core.experiment")
	requireChild("net.deliver", "sched.dispatch")
	requireChild("instrument.run", "sched.dispatch")
	requireChild("knowledge.sync", "core.experiment")
	requireChild("core.decide", "core.experiment")

	// Virtual-time sanity: children start no earlier than their parents.
	for i := range spans {
		s := &spans[i]
		if p := byID[s.ParentID]; p != nil && s.Start < p.Start {
			t.Fatalf("%s span %d starts before its parent %s", s.Kind, s.SpanID, p.Kind)
		}
	}

	// The scheduler's labeled metrics rode along: per-tenant wait histograms
	// keyed by canonical site/tenant labels.
	snap := n.Metrics.Snapshot()
	found := false
	for name := range snap.Histograms {
		if strings.HasPrefix(name, "sched.wait_s{") && strings.Contains(name, "tenant=golden") {
			found = true
			break
		}
	}
	if !found {
		t.Fatalf("no sched.wait_s{...tenant=golden...} histogram in snapshot: %v",
			keys(snap.Histograms))
	}
}

func keys[V any](m map[string]V) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	return out
}

// TestCriticalPathCoverage requires the extractor to attribute at least 95%
// of the campaign's end-to-end virtual time to instrumented layers.
func TestCriticalPathCoverage(t *testing.T) {
	n, _ := runTracedCampaign(t)
	reports := CriticalPaths(n.Tracer.Spans())
	if len(reports) != 1 {
		t.Fatalf("want 1 critical-path report, got %d", len(reports))
	}
	pr := reports[0]
	if pr.Coverage < 0.95 {
		t.Fatalf("critical path covers only %.1f%% of campaign time (want >= 95%%):\n%s",
			100*pr.Coverage, pr.Render())
	}
	if pr.Total <= 0 {
		t.Fatal("non-positive campaign total time")
	}
	t.Logf("coverage %.2f%%, dominant layer %s\n%s", 100*pr.Coverage, pr.Dominant, pr.Render())
}

func runSaturationSnapshot(t *testing.T, parallelism int) (experiments.SaturationResult, []byte) {
	t.Helper()
	res, err := experiments.RunSaturation(experiments.SaturationSpec{
		Seed:        42,
		Campaigns:   40,
		Budget:      6,
		Parallelism: parallelism,
	})
	if err != nil {
		t.Fatalf("parallelism %d: %v", parallelism, err)
	}
	var buf bytes.Buffer
	if err := res.Metrics.WriteJSON(&buf); err != nil {
		t.Fatalf("snapshot: %v", err)
	}
	return res, buf.Bytes()
}

// TestRouteProbesPerDispatchBounded holds the scheduler's waste ratio on a
// saturated federation (4 sites, 40 campaigns, 4 experiments each in
// flight): a pump probes once per distinct blocked requirement, not once per
// queued tenant, so probes stay a small multiple of dispatches however many
// tenants queue: 3.5 here, where the probe-every-head pump made 24.6.
func TestRouteProbesPerDispatchBounded(t *testing.T) {
	res, _ := runSaturationSnapshot(t, 4)
	probes := res.Metrics.Counter("sched.route_probes").Value()
	dispatched := res.Metrics.Counter("sched.dispatched").Value()
	if dispatched == 0 || res.Metrics.Counter("sched.pumps").Value() == 0 {
		t.Fatalf("nothing went through the scheduler: %d dispatched", dispatched)
	}
	if ratio := float64(probes) / float64(dispatched); ratio > 8 {
		t.Errorf("sched.route_probes / sched.dispatched = %d / %d = %.1f, want <= 8", probes, dispatched, ratio)
	}
}
