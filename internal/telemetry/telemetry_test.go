package telemetry

import (
	"encoding/json"
	"math"
	"sort"
	"strings"
	"testing"
	"testing/quick"
)

func TestCounter(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("requests")
	c.Inc()
	c.Add(4)
	if c.Value() != 5 {
		t.Fatalf("counter = %d, want 5", c.Value())
	}
	if r.Counter("requests") != c {
		t.Fatal("registry did not return same counter")
	}
}

func TestCounterNegativePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("negative Add did not panic")
		}
	}()
	(&Counter{}).Add(-1)
}

func TestGauge(t *testing.T) {
	g := &Gauge{}
	g.Set(3.5)
	g.Add(-1.5)
	if g.Value() != 2.0 {
		t.Fatalf("gauge = %v, want 2", g.Value())
	}
}

func TestHistogramBasics(t *testing.T) {
	h := &Histogram{}
	for _, v := range []float64{1, 2, 3, 4, 5} {
		h.Observe(v)
	}
	if h.Count() != 5 {
		t.Fatalf("count = %d", h.Count())
	}
	if h.Mean() != 3 {
		t.Fatalf("mean = %v", h.Mean())
	}
	if h.Min() != 1 || h.Max() != 5 {
		t.Fatalf("min/max = %v/%v", h.Min(), h.Max())
	}
}

func TestHistogramQuantiles(t *testing.T) {
	h := &Histogram{}
	for i := 1; i <= 1000; i++ {
		h.Observe(float64(i) / 1000.0) // 0.001..1.0
	}
	p50 := h.Quantile(0.5)
	if p50 < 0.4 || p50 > 0.7 {
		t.Fatalf("p50 = %v, want ~0.5 (bucketed)", p50)
	}
	p99 := h.Quantile(0.99)
	if p99 < 0.9 || p99 > 1.0 {
		t.Fatalf("p99 = %v", p99)
	}
	if h.Quantile(0) != h.Min() {
		t.Fatal("q0 should be min")
	}
	if h.Quantile(1) != h.Max() {
		t.Fatal("q1 should be max")
	}
}

// Values past the top bucket's floor, +Inf included, land in the top
// bucket; zero and negatives in the bottom one.
func TestBucketForEdges(t *testing.T) {
	last := len((&Histogram{}).buckets) - 1
	for _, c := range []struct {
		v    float64
		want int
	}{{math.Inf(1), last}, {math.MaxFloat64, last}, {1, 90}, {0, 0}} {
		if got := bucketFor(c.v); got != c.want {
			t.Errorf("bucketFor(%v) = %d, want %d", c.v, got, c.want)
		}
	}
	h := &Histogram{}
	h.Observe(1)
	h.Observe(math.Inf(1))
	if p99 := h.Quantile(0.99); p99 < 1e12 {
		t.Fatalf("p99 of {1, +Inf} = %v, want the top bucket", p99)
	}
}

func TestHistogramQuantileConservative(t *testing.T) {
	// Quantile estimates must never under-report the order statistic they
	// bucket: estimate >= the ceil(q*n)-th smallest observation's bucket
	// floor, i.e. never below the true order statistic by more than one
	// bucket's rounding.
	f := func(raw []uint16) bool {
		if len(raw) == 0 {
			return true
		}
		h := &Histogram{}
		vals := make([]float64, len(raw))
		for i, v := range raw {
			x := float64(v)/100 + 0.001
			h.Observe(x)
			vals[i] = x
		}
		sort.Float64s(vals)
		k := int(math.Ceil(0.5 * float64(len(vals))))
		orderStat := vals[k-1]
		est := h.Quantile(0.5)
		return est >= orderStat-1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestHistogramEmptyQuantile(t *testing.T) {
	h := &Histogram{}
	if h.Quantile(0.5) != 0 || h.Mean() != 0 {
		t.Fatal("empty histogram should report zeros")
	}
}

func TestTableRender(t *testing.T) {
	tb := &Table{
		Name:    "E7",
		Caption: "protocol comparison",
		Columns: []string{"protocol", "p50 (ms)", "loss"},
	}
	tb.AddRow("rpc", 12.5, "0%")
	tb.AddRow("queue", 40.0, "0%")
	tb.AddNote("loss handled by %s", "retries")
	out := tb.Render()
	for _, want := range []string{"E7", "protocol comparison", "rpc", "queue", "12.5", "note: loss handled by retries"} {
		if !strings.Contains(out, want) {
			t.Fatalf("render missing %q:\n%s", want, out)
		}
	}
	// name + header + separator + 2 rows + 1 note
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 6 {
		t.Fatalf("unexpected line count %d:\n%s", len(lines), out)
	}
}

func TestSummarize(t *testing.T) {
	s := Summarize([]float64{2, 4, 4, 4, 5, 5, 7, 9})
	if s.N != 8 {
		t.Fatalf("N = %d", s.N)
	}
	if s.Mean != 5 {
		t.Fatalf("mean = %v", s.Mean)
	}
	if math.Abs(s.Std-2.138) > 0.01 {
		t.Fatalf("std = %v, want ~2.138 (sample)", s.Std)
	}
	if s.Min != 2 || s.Max != 9 {
		t.Fatalf("min/max = %v/%v", s.Min, s.Max)
	}
	if math.Abs(s.Median-4.5) > 1e-9 {
		t.Fatalf("median = %v", s.Median)
	}
}

func TestSummarizeEmpty(t *testing.T) {
	s := Summarize(nil)
	if s.N != 0 || s.Mean != 0 {
		t.Fatal("empty summary should be zero")
	}
}

func TestSummarizeGeoMean(t *testing.T) {
	s := Summarize([]float64{1, 10, 100})
	if math.Abs(s.GeoMean-10) > 1e-9 {
		t.Fatalf("geomean = %v, want 10", s.GeoMean)
	}
}

func TestFormatFloat(t *testing.T) {
	cases := map[float64]string{
		3:       "3",
		3.14159: "3.142",
		12345.6: "12345.6",
		0.00123: "0.00123",
	}
	for in, want := range cases {
		if got := FormatFloat(in); got != want {
			t.Errorf("FormatFloat(%v) = %q, want %q", in, got, want)
		}
	}
}

func TestKeyCanonicalizesLabels(t *testing.T) {
	a := Key("sched.wait_s", "tenant", "alice", "site", "ornl")
	b := Key("sched.wait_s", "site", "ornl", "tenant", "alice")
	if a != b {
		t.Fatalf("label order changed the key: %q vs %q", a, b)
	}
	if want := "sched.wait_s{site=ornl,tenant=alice}"; a != want {
		t.Fatalf("key = %q, want %q", a, want)
	}
	if got := Key("plain"); got != "plain" {
		t.Fatalf("no-label key = %q", got)
	}
	if got := Key("odd", "dangling"); got != "odd" {
		t.Fatalf("odd kv key = %q", got)
	}
}

func TestSnapshotJSONDeterministic(t *testing.T) {
	build := func() string {
		r := NewRegistry()
		r.Counter(Key("jobs.dispatched", "site", "ornl")).Add(7)
		r.Counter(Key("jobs.dispatched", "site", "anl")).Add(3)
		r.Gauge("queue.depth").Set(4)
		h := r.Histogram(Key("sched.wait_s", "tenant", "t0"))
		h.Observe(0.5)
		h.Observe(1.5)
		var b strings.Builder
		if err := r.WriteJSON(&b); err != nil {
			t.Fatal(err)
		}
		return b.String()
	}
	a, b := build(), build()
	if a != b {
		t.Fatalf("snapshot JSON not deterministic:\n%s\nvs\n%s", a, b)
	}
	for _, frag := range []string{
		`"jobs.dispatched{site=anl}": 3`,
		`"jobs.dispatched{site=ornl}": 7`,
		`"queue.depth": 4`,
		`"sched.wait_s{tenant=t0}"`,
		`"count": 2`,
		`"mean": 1`,
	} {
		if !strings.Contains(a, frag) {
			t.Fatalf("snapshot missing %q:\n%s", frag, a)
		}
	}
}

func TestSnapshotEmptyHistogram(t *testing.T) {
	r := NewRegistry()
	r.Histogram("never.observed")
	snap := r.Snapshot()
	hs, ok := snap.Histograms["never.observed"]
	if !ok {
		t.Fatal("empty histogram missing from snapshot")
	}
	if hs.Count != 0 || hs.Mean != 0 || hs.P50 != 0 || hs.P90 != 0 || hs.P99 != 0 {
		t.Fatalf("empty histogram snapshot not all-zero: %+v", hs)
	}
	var b strings.Builder
	if err := r.WriteJSON(&b); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), `"never.observed"`) {
		t.Fatalf("empty histogram absent from JSON:\n%s", b.String())
	}
}

func TestSnapshotQuantilesBracketObservations(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("lat")
	for i := 1; i <= 100; i++ {
		h.Observe(float64(i) / 100)
	}
	hs := r.Snapshot().Histograms["lat"]
	if hs.P50 < 0.4 || hs.P50 > 0.7 {
		t.Fatalf("p50 = %v", hs.P50)
	}
	if hs.P99 < 0.9 || hs.P99 > 1.0 {
		t.Fatalf("p99 = %v", hs.P99)
	}
	if hs.P50 > hs.P90 || hs.P90 > hs.P99 {
		t.Fatalf("quantiles not monotone: %+v", hs)
	}
}

// Property: histogram mean equals arithmetic mean of observations.
func TestPropertyHistogramMean(t *testing.T) {
	f := func(raw []uint8) bool {
		if len(raw) == 0 {
			return true
		}
		h := &Histogram{}
		var sum float64
		for _, v := range raw {
			x := float64(v) + 1
			h.Observe(x)
			sum += x
		}
		want := sum / float64(len(raw))
		return math.Abs(h.Mean()-want) < 1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestKeyEdgeCases(t *testing.T) {
	// Duplicate label names both survive into the canonical form (callers
	// own dedup); the relative order of equal keys is whatever the sort
	// yields, but it must be deterministic call to call.
	dup := Key("m", "site", "b", "site", "a")
	if dup != "m{site=b,site=a}" && dup != "m{site=a,site=b}" {
		t.Fatalf("duplicate-label key = %q", dup)
	}
	if again := Key("m", "site", "b", "site", "a"); again != dup {
		t.Fatalf("duplicate-label key not deterministic: %q vs %q", dup, again)
	}
	// Empty label values and names stay verbatim rather than collapsing —
	// distinct raw inputs must never alias to one series.
	if got := Key("m", "site", ""); got != "m{site=}" {
		t.Fatalf("empty-value key = %q", got)
	}
	if got := Key("m", "", "v"); got != "m{=v}" {
		t.Fatalf("empty-name key = %q", got)
	}
	// Reserved characters ({}=,) in values pass through unescaped; the
	// canonical ordering still keys on the label name.
	a := Key("m", "b", "x=y", "a", "p,q")
	if a != "m{a=p,q,b=x=y}" {
		t.Fatalf("reserved-char key = %q", a)
	}
	if Key("m", "a", "p,q", "b", "x=y") != a {
		t.Fatalf("reserved chars broke order-independence")
	}
	// A trailing odd key is dropped wholesale, not half-applied.
	if got := Key("m", "site", "ornl", "dangling"); got != "m{site=ornl}" {
		t.Fatalf("odd trailing kv key = %q", got)
	}
}

func TestSnapshotRoundTripsThroughJSON(t *testing.T) {
	r := NewRegistry()
	r.Counter(Key("jobs", "site", "ornl")).Add(11)
	r.Gauge("depth").Set(2.5)
	h := r.Histogram("wait_s")
	for _, v := range []float64{0.1, 0.5, 1, 5, 30, 120} {
		h.Observe(v)
	}

	var b strings.Builder
	if err := r.WriteJSON(&b); err != nil {
		t.Fatal(err)
	}
	var parsed Snapshot
	if err := json.Unmarshal([]byte(b.String()), &parsed); err != nil {
		t.Fatalf("snapshot JSON does not parse back: %v", err)
	}
	if got := parsed.Counters[Key("jobs", "site", "ornl")]; got != 11 {
		t.Fatalf("counter round-trip = %d, want 11", got)
	}
	if got := parsed.Gauges["depth"]; got != 2.5 {
		t.Fatalf("gauge round-trip = %v, want 2.5", got)
	}
	hs, ok := parsed.Histograms["wait_s"]
	if !ok {
		t.Fatalf("histogram missing from parsed snapshot: %s", b.String())
	}
	live := r.FindHistogram("wait_s")
	if hs.Count != live.Count() || hs.Sum != h.Sum() {
		t.Fatalf("histogram summary round-trip = %+v", hs)
	}
	// The exported buckets carry the full distribution: counts add up.
	var total int64
	for i, bk := range hs.Buckets {
		if bk.Count <= 0 {
			t.Fatalf("bucket %d has non-positive count: %+v", i, bk)
		}
		if i > 0 && bk.UpperBound <= hs.Buckets[i-1].UpperBound {
			t.Fatalf("bucket bounds not ascending: %+v", hs.Buckets)
		}
		total += bk.Count
	}
	if total != hs.Count {
		t.Fatalf("bucket counts sum to %d, want %d", total, hs.Count)
	}
}

func TestFindDoesNotCreate(t *testing.T) {
	r := NewRegistry()
	if r.FindCounter("c") != nil || r.FindGauge("g") != nil || r.FindHistogram("h") != nil {
		t.Fatal("Find* returned a metric on an empty registry")
	}
	c := r.Counter("c")
	if r.FindCounter("c") != c {
		t.Fatal("FindCounter did not return the registered counter")
	}
	if snap := r.Snapshot(); len(snap.Counters) != 1 || snap.Gauges != nil || snap.Histograms != nil {
		t.Fatalf("Find* created metrics: %+v", snap)
	}
}
