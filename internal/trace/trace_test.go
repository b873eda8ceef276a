package trace

import (
	"bytes"
	"reflect"
	"strings"
	"testing"

	"github.com/aisle-sim/aisle/internal/sim"
)

func TestDisabledPathIsZeroAlloc(t *testing.T) {
	var tr *Tracer // nil: tracing off
	allocs := testing.AllocsPerRun(1000, func() {
		ctx := tr.Root(ID("campaign-x"))
		sp, cc := ctx.Start(0, "ornl", KindSchedQueue, "job")
		sp.SetAttr("wait_s", 1.5)
		sp.SetStr("instance", "ornl/flow-0")
		cc.Finish(&sp, 10*sim.Second)
		cc.Point(5*sim.Second, "ornl", KindSchedRoute, "route")
	})
	if allocs != 0 {
		t.Fatalf("disabled tracing path allocated %v allocs/op, want 0", allocs)
	}
}

func itoa(i int) string {
	if i == 0 {
		return "0"
	}
	var b [8]byte
	n := len(b)
	for i > 0 {
		n--
		b[n] = byte('0' + i%10)
		i /= 10
	}
	return string(b[n:])
}

func TestRingOverwritesOldest(t *testing.T) {
	tr := New(Options{Enabled: true, SiteCapacity: 4})
	ctx := tr.Root(ID("ring"))
	for i := 0; i < 10; i++ {
		sp, cc := ctx.Start(sim.Time(i), "s", KindExperiment, "e"+itoa(i))
		cc.Finish(&sp, sim.Time(i+1))
	}
	spans := tr.Spans()
	if len(spans) != 4 {
		t.Fatalf("ring held %d spans, want 4", len(spans))
	}
	if got := tr.Dropped(); got != 6 {
		t.Fatalf("dropped = %d, want 6", got)
	}
	// Oldest-first order with the oldest survivors.
	for i, sp := range spans {
		if want := "e" + itoa(6+i); sp.Name != want {
			t.Fatalf("span %d = %s, want %s", i, sp.Name, want)
		}
	}
}

// buildTree records a small causal tree:
//
//	root [0,100s] > queue [0,30s], dispatch [30s,90s] > run [40s,80s]
func buildTree(tr *Tracer) {
	ctx := tr.Root(ID("tree"))
	root, rctx := ctx.Start(0, "ornl", KindCampaign, "camp")
	q, qctx := rctx.Start(0, "ornl", KindSchedQueue, "q")
	qctx.Finish(&q, 30*sim.Second)
	d, dctx := rctx.Start(30*sim.Second, "anl", KindSchedRun, "d")
	r, rrctx := dctx.Start(40*sim.Second, "anl", KindInstrument, "r")
	rrctx.Finish(&r, 80*sim.Second)
	dctx.Finish(&d, 90*sim.Second)
	rctx.Finish(&root, 100*sim.Second)
}

func TestCriticalPathSelfTimes(t *testing.T) {
	tr := New(Options{Enabled: true})
	buildTree(tr)
	reps := CriticalPaths(tr.Spans())
	if len(reps) != 1 {
		t.Fatalf("got %d reports, want 1", len(reps))
	}
	rep := reps[0]
	if rep.Total != 100*sim.Second {
		t.Fatalf("total = %v", rep.Total)
	}
	// Root self: [90s,100s] uncovered -> 10s untraced.
	if rep.Untraced != 10*sim.Second {
		t.Fatalf("untraced = %v, want 10s", rep.Untraced)
	}
	want := map[string]sim.Time{
		KindSchedQueue: 30 * sim.Second, // fully self
		KindSchedRun:   20 * sim.Second, // 60s minus nested 40s run
		KindInstrument: 40 * sim.Second,
	}
	for _, ks := range rep.ByKind {
		if want[ks.Kind] != ks.Self {
			t.Fatalf("kind %s self = %v, want %v", ks.Kind, ks.Self, want[ks.Kind])
		}
		delete(want, ks.Kind)
	}
	if len(want) != 0 {
		t.Fatalf("missing kinds in report: %v", want)
	}
	if rep.Dominant != KindInstrument {
		t.Fatalf("dominant = %s", rep.Dominant)
	}
	if rep.Coverage < 0.899 || rep.Coverage > 0.901 {
		t.Fatalf("coverage = %v, want 0.90", rep.Coverage)
	}
	if out := rep.Render(); !strings.Contains(out, KindInstrument) {
		t.Fatalf("render missing dominant kind:\n%s", out)
	}
}

func TestChromeExportDeterministic(t *testing.T) {
	render := func() string {
		tr := New(Options{Enabled: true})
		buildTree(tr)
		var buf bytes.Buffer
		if err := tr.WriteChromeTrace(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.String()
	}
	a, b := render(), render()
	if a != b {
		t.Fatalf("export is not deterministic:\n%s\nvs\n%s", a, b)
	}
	for _, frag := range []string{`"ph": "X"`, `"traceEvents"`, "process_name", "site ornl", `"cat": "instrument.run"`} {
		if !strings.Contains(a, frag) {
			t.Fatalf("export missing %q:\n%s", frag, a)
		}
	}
}

func TestSpanAttrOverflowDropped(t *testing.T) {
	tr := New(Options{Enabled: true})
	ctx := tr.Root(ID("attrs"))
	sp, cc := ctx.Start(0, "s", KindExperiment, "e")
	for i := 0; i < maxAttrs+3; i++ {
		sp.SetAttr("k"+itoa(i), float64(i))
	}
	cc.Finish(&sp, sim.Second)
	got := tr.Spans()[0]
	if len(got.Attrs()) != maxAttrs {
		t.Fatalf("attrs = %d, want %d", len(got.Attrs()), maxAttrs)
	}
}

// EachDropped visits exactly DroppedBySite's entries, in site order, without
// building a map.
func TestEachDroppedMatchesDroppedBySite(t *testing.T) {
	tr := New(Options{Enabled: true, SiteCapacity: 2})
	ctx := tr.Root(1)
	for site, spans := range map[string]int{"slac": 5, "anl": 2, "ornl": 3, "pnnl": 9} {
		for i := 0; i < spans; i++ {
			s, c := ctx.Start(0, site, "job", "run")
			c.Finish(&s, 1)
		}
	}
	var order []string
	got := map[string]uint64{}
	tr.EachDropped(func(site string, n uint64) {
		order = append(order, site)
		got[site] = n
	})
	if want := []string{"ornl", "pnnl", "slac"}; !reflect.DeepEqual(order, want) { // anl dropped nothing
		t.Fatalf("EachDropped visited %v, want %v", order, want)
	}
	if want := tr.DroppedBySite(); !reflect.DeepEqual(got, want) || got["pnnl"] != 7 {
		t.Fatalf("EachDropped saw %v, DroppedBySite %v", got, want)
	}
	var total uint64
	if avg := testing.AllocsPerRun(100, func() {
		tr.EachDropped(func(_ string, n uint64) { total += n })
	}); avg != 0 {
		t.Fatalf("EachDropped allocates %v times per call, want 0", avg)
	}
	var none *Tracer
	none.EachDropped(func(string, uint64) { t.Fatal("nil tracer visited a site") })
}
