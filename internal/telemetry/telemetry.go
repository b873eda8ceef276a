// Package telemetry collects the measurements AISLE experiments report:
// counters, gauges, log-bucketed latency histograms, and labelled series.
// A Registry is attached to each simulation; experiment harnesses render
// registries into Tables, the row/column structures that regenerate the
// paper's milestone claims (README §"Tests, benchmarks, experiments").
//
// A registry and its metrics belong to one simulation and are written by
// its goroutine alone: counters, gauges and histograms are plain fields
// with no locks or atomics. A live view reads them between engine steps.
//
// Metrics can carry labels. A labelled series is addressed by its
// canonical key — name{k1=v1,k2=v2} with keys sorted — built once with Key
// and then used like any other metric name, so hot paths cache the
// *Counter/*Histogram pointer and pay nothing per record. Snapshot renders
// a registry (labels included) into a stable, JSON-encodable view.
package telemetry

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"sort"
	"strings"

	"github.com/aisle-sim/aisle/internal/prof"
)

// Counter is a monotonically increasing count.
type Counter struct{ n int64 }

// Inc adds one.
func (c *Counter) Inc() { c.n++ }

// Add adds delta, which must be non-negative.
func (c *Counter) Add(delta int64) {
	if delta < 0 {
		panic("telemetry: negative counter delta")
	}
	c.n += delta
}

// Value reports the current count.
func (c *Counter) Value() int64 { return c.n }

// Gauge is a value that can move in both directions.
type Gauge struct{ v float64 }

// Set replaces the gauge value.
func (g *Gauge) Set(v float64) { g.v = v }

// Add shifts the gauge by delta.
func (g *Gauge) Add(delta float64) { g.v += delta }

// Value reports the current value.
func (g *Gauge) Value() float64 { return g.v }

// Histogram accumulates observations with exact mean tracking plus
// log-spaced buckets for quantile estimation. Buckets span [1e-9, ~1e12)
// with 10 buckets per decade, adequate for latencies in seconds or counts.
type Histogram struct {
	count   int64
	sum     float64
	min     float64
	max     float64
	buckets [histBuckets]int64
	// prof wraps each observation in a telemetry.record region when the
	// owning registry has a spine profiler attached; nil costs one test.
	prof *prof.Profiler
}

const (
	histMinExp        = -9.0 // 1e-9
	histBucketsPerDec = 10
	histBuckets       = 220 // 22 decades
)

func bucketFor(v float64) int {
	if v <= 0 {
		return 0
	}
	// Clamp before converting: an out-of-range float (+Inf's logarithm)
	// converts to an implementation-defined int.
	x := (math.Log10(v) - histMinExp) * histBucketsPerDec
	last := histBuckets - 1
	if !(x >= 0) { // also NaN
		return 0
	}
	if x >= float64(last) {
		return last
	}
	return int(x)
}

// bucketUppers holds each bucket's upper bound, computed once: the SLO
// engine's CountAtOrBelow walks them on every health sample.
var bucketUppers = func() (u [histBuckets]float64) {
	for i := range u {
		u[i] = math.Pow(10, histMinExp+float64(i+1)/histBucketsPerDec)
	}
	return u
}()

func bucketUpper(i int) float64 { return bucketUppers[i] }

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	r := h.prof.Enter(prof.SiteTelemetryRecord)
	if h.count == 0 || v < h.min {
		h.min = v
	}
	if h.count == 0 || v > h.max {
		h.max = v
	}
	h.count++
	h.sum += v
	h.buckets[bucketFor(v)]++
	r.End()
}

// Count reports the number of observations.
func (h *Histogram) Count() int64 {
	return h.count
}

// Sum reports the sum of observations.
func (h *Histogram) Sum() float64 {
	return h.sum
}

// Mean reports the arithmetic mean, or 0 with no observations.
func (h *Histogram) Mean() float64 {
	if h.count == 0 {
		return 0
	}
	return h.sum / float64(h.count)
}

// Min reports the smallest observation, or 0 with none.
func (h *Histogram) Min() float64 {
	return h.min
}

// Max reports the largest observation, or 0 with none.
func (h *Histogram) Max() float64 {
	return h.max
}

// CountAtOrBelow reports how many observations certainly fell at or below
// v: the total count of buckets whose upper bound does not exceed v. The
// estimate is conservative — observations sharing v's own bucket are
// excluded, so an SLO counting "good" events with it never over-reports
// health by more than one bucket's width (~26% at 10 buckets/decade).
func (h *Histogram) CountAtOrBelow(v float64) int64 {
	var n int64
	for i, b := range h.buckets {
		if bucketUpper(i) > v {
			break
		}
		n += b
	}
	return n
}

// Quantile estimates the q-quantile (0<=q<=1) from the log buckets. The
// estimate is the upper bound of the bucket containing the quantile, so it
// is conservative (never under-reports a latency).
func (h *Histogram) Quantile(q float64) float64 {
	if h.count == 0 {
		return 0
	}
	if q <= 0 {
		return h.min
	}
	if q >= 1 {
		return h.max
	}
	target := int64(math.Ceil(q * float64(h.count)))
	var cum int64
	for i, b := range h.buckets {
		cum += b
		if cum >= target {
			u := bucketUpper(i)
			if u > h.max {
				u = h.max
			}
			if u < h.min {
				u = h.min
			}
			return u
		}
	}
	return h.max
}

// Key builds the canonical name of a labelled series: name{k1=v1,k2=v2}
// with label keys sorted, so the same label set always addresses the same
// metric regardless of argument order. kv is alternating key, value pairs;
// an odd trailing key is ignored. With no labels Key returns name unchanged.
//
// Key allocates; hot paths should call it once and cache the returned
// *Counter/*Gauge/*Histogram pointer.
func Key(name string, kv ...string) string {
	if len(kv) < 2 {
		return name
	}
	n := len(kv) / 2
	type pair struct{ k, v string }
	pairs := make([]pair, n)
	for i := 0; i < n; i++ {
		pairs[i] = pair{kv[2*i], kv[2*i+1]}
	}
	sort.Slice(pairs, func(i, j int) bool { return pairs[i].k < pairs[j].k })
	var b strings.Builder
	b.WriteString(name)
	b.WriteByte('{')
	for i, p := range pairs {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(p.k)
		b.WriteByte('=')
		b.WriteString(p.v)
	}
	b.WriteByte('}')
	return b.String()
}

// Registry is a namespace of named metrics. The zero value is ready to use.
// Hot paths should cache the returned metric pointer rather than
// re-resolving names per event.
type Registry struct {
	counters map[string]*Counter
	gauges   map[string]*Gauge
	hists    map[string]*Histogram
	prof     *prof.Profiler
}

// SetProfiler attaches the spine profiler to the registry: every histogram
// (existing and future) records its observations under the
// telemetry.record call-site.
func (r *Registry) SetProfiler(p *prof.Profiler) {
	r.prof = p
	for _, h := range r.hists {
		h.prof = p
	}
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry { return &Registry{} }

// Counter returns the named counter, creating it on first use.
func (r *Registry) Counter(name string) *Counter {
	c, ok := r.counters[name]
	if !ok {
		if r.counters == nil {
			r.counters = make(map[string]*Counter)
		}
		c = &Counter{}
		r.counters[name] = c
	}
	return c
}

// Gauge returns the named gauge, creating it on first use.
func (r *Registry) Gauge(name string) *Gauge {
	g, ok := r.gauges[name]
	if !ok {
		if r.gauges == nil {
			r.gauges = make(map[string]*Gauge)
		}
		g = &Gauge{}
		r.gauges[name] = g
	}
	return g
}

// Histogram returns the named histogram, creating it on first use.
func (r *Registry) Histogram(name string) *Histogram {
	h, ok := r.hists[name]
	if !ok {
		if r.hists == nil {
			r.hists = make(map[string]*Histogram)
		}
		h = &Histogram{prof: r.prof}
		r.hists[name] = h
	}
	return h
}

// FindCounter returns the named counter without creating it, or nil. The
// SLO engine polls with Find* so watching a metric a subsystem has not
// emitted yet never materializes a phantom series.
func (r *Registry) FindCounter(name string) *Counter {
	return r.counters[name]
}

// FindGauge returns the named gauge without creating it, or nil.
func (r *Registry) FindGauge(name string) *Gauge {
	return r.gauges[name]
}

// FindHistogram returns the named histogram without creating it, or nil.
func (r *Registry) FindHistogram(name string) *Histogram {
	return r.hists[name]
}

// HistogramBucket is one occupied log bucket: the count of observations in
// (previous bound, UpperBound].
type HistogramBucket struct {
	UpperBound float64 `json:"le"`
	Count      int64   `json:"count"`
}

// HistogramSnapshot is the point-in-time summary of one histogram. Buckets
// carries the occupied log buckets with their boundaries, so external tools
// (and the SLO engine) can reconstruct the distribution rather than being
// limited to the derived quantiles.
type HistogramSnapshot struct {
	Count   int64             `json:"count"`
	Sum     float64           `json:"sum"`
	Min     float64           `json:"min"`
	Max     float64           `json:"max"`
	Mean    float64           `json:"mean"`
	P50     float64           `json:"p50"`
	P90     float64           `json:"p90"`
	P99     float64           `json:"p99"`
	Buckets []HistogramBucket `json:"buckets,omitempty"`
}

// Snapshot is a consistent-per-metric view of a registry, including
// labelled series under their canonical keys. It JSON-encodes with sorted
// keys, so two identical registries serialize byte-identically.
type Snapshot struct {
	Counters   map[string]int64             `json:"counters,omitempty"`
	Gauges     map[string]float64           `json:"gauges,omitempty"`
	Histograms map[string]HistogramSnapshot `json:"histograms,omitempty"`
}

// Snapshot captures every metric's current value.
func (r *Registry) Snapshot() Snapshot {
	var snap Snapshot
	if len(r.counters) > 0 {
		snap.Counters = make(map[string]int64, len(r.counters))
		for name, c := range r.counters {
			snap.Counters[name] = c.Value()
		}
	}
	if len(r.gauges) > 0 {
		snap.Gauges = make(map[string]float64, len(r.gauges))
		for name, g := range r.gauges {
			snap.Gauges[name] = g.Value()
		}
	}
	if len(r.hists) > 0 {
		snap.Histograms = make(map[string]HistogramSnapshot, len(r.hists))
		for name, h := range r.hists {
			hs := HistogramSnapshot{
				Count: h.count,
				Sum:   h.sum,
				Min:   h.min,
				Max:   h.max,
				Mean:  h.Mean(),
				P50:   h.Quantile(0.50),
				P90:   h.Quantile(0.90),
				P99:   h.Quantile(0.99),
			}
			for j, b := range h.buckets {
				if b > 0 {
					hs.Buckets = append(hs.Buckets, HistogramBucket{
						UpperBound: bucketUpper(j), Count: b})
				}
			}
			snap.Histograms[name] = hs
		}
	}
	return snap
}

// WriteJSON writes the registry's Snapshot to w as indented JSON. Output is
// deterministic: encoding/json sorts map keys.
func (r *Registry) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r.Snapshot())
}

// Table is a rendered experiment result: a named grid of rows that mirrors
// one milestone claim from the paper.
type Table struct {
	Name    string
	Caption string
	Columns []string
	Rows    [][]string
	Notes   []string
}

// AddRow appends a row, formatting each cell with %v.
func (t *Table) AddRow(cells ...any) {
	row := make([]string, len(cells))
	for i, c := range cells {
		switch v := c.(type) {
		case float64:
			row[i] = FormatFloat(v)
		case string:
			row[i] = v
		default:
			row[i] = fmt.Sprintf("%v", v)
		}
	}
	t.Rows = append(t.Rows, row)
}

// AddNote records a free-text footnote rendered under the table.
func (t *Table) AddNote(format string, args ...any) {
	t.Notes = append(t.Notes, fmt.Sprintf(format, args...))
}

// FormatFloat renders floats compactly: large values with thousands
// precision trimmed, small values with enough significant digits.
func FormatFloat(v float64) string {
	switch {
	case v == math.Trunc(v) && math.Abs(v) < 1e15:
		return fmt.Sprintf("%.0f", v)
	case math.Abs(v) >= 1000:
		return fmt.Sprintf("%.1f", v)
	case math.Abs(v) >= 1:
		return fmt.Sprintf("%.3f", v)
	default:
		return fmt.Sprintf("%.4g", v)
	}
}

// Render draws the table as aligned plain text suitable for terminals and
// the code blocks of README §"Tests, benchmarks, experiments".
func (t *Table) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s", t.Name)
	if t.Caption != "" {
		fmt.Fprintf(&b, " — %s", t.Caption)
	}
	b.WriteByte('\n')

	widths := make([]int, len(t.Columns))
	for i, c := range t.Columns {
		widths[i] = len(c)
	}
	for _, row := range t.Rows {
		for i, cell := range row {
			if i < len(widths) && len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	writeRow := func(cells []string) {
		for i, cell := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], cell)
		}
		b.WriteByte('\n')
	}
	writeRow(t.Columns)
	for i, w := range widths {
		if i > 0 {
			b.WriteString("  ")
		}
		b.WriteString(strings.Repeat("-", w))
	}
	b.WriteByte('\n')
	for _, row := range t.Rows {
		writeRow(row)
	}
	for _, n := range t.Notes {
		fmt.Fprintf(&b, "note: %s\n", n)
	}
	return b.String()
}

// Stats summarises a float slice; convenience for experiment reporting.
type Stats struct {
	N              int
	Mean, Std      float64
	Min, Max       float64
	Median         float64
	P90, P95, P99  float64
	Sum            float64
	geometricValid bool
	GeoMean        float64
}

// Summarize computes Stats over xs. Empty input yields the zero Stats.
func Summarize(xs []float64) Stats {
	if len(xs) == 0 {
		return Stats{}
	}
	s := Stats{N: len(xs), Min: xs[0], Max: xs[0], geometricValid: true}
	logSum := 0.0
	for _, x := range xs {
		s.Sum += x
		if x < s.Min {
			s.Min = x
		}
		if x > s.Max {
			s.Max = x
		}
		if x > 0 {
			logSum += math.Log(x)
		} else {
			s.geometricValid = false
		}
	}
	s.Mean = s.Sum / float64(s.N)
	var ss float64
	for _, x := range xs {
		d := x - s.Mean
		ss += d * d
	}
	if s.N > 1 {
		s.Std = math.Sqrt(ss / float64(s.N-1))
	}
	if s.geometricValid {
		s.GeoMean = math.Exp(logSum / float64(s.N))
	}
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	q := func(p float64) float64 {
		if len(sorted) == 1 {
			return sorted[0]
		}
		pos := p * float64(len(sorted)-1)
		lo := int(pos)
		hi := lo + 1
		if hi >= len(sorted) {
			return sorted[len(sorted)-1]
		}
		frac := pos - float64(lo)
		return sorted[lo]*(1-frac) + sorted[hi]*frac
	}
	s.Median = q(0.5)
	s.P90 = q(0.90)
	s.P95 = q(0.95)
	s.P99 = q(0.99)
	return s
}
