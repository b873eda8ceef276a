package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"math"
	"os"
	"regexp"
	"strings"
	"testing"

	"github.com/aisle-sim/aisle/internal/core"
)

// benchmarkJSON is the contract file at the root of the repository.
type benchmarkJSON struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []declared `json:"end_to_end"`
	PerLayer []declared `json:"per_layer"`
}

type declared struct {
	Name   string   `json:"name"`
	Unit   string   `json:"unit"`
	Better string   `json:"better"`
	Bound  *float64 `json:"bound,omitempty"`
}

func readBenchmarkJSON(t *testing.T) benchmarkJSON {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkJSON
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&b); err != nil {
		t.Fatal(err)
	}
	return b
}

// TestBenchmarkJSONMatchesTables holds BENCHMARK.json to the program's own
// metric and workload tables, and to the limits of the contract.
func TestBenchmarkJSONMatchesTables(t *testing.T) {
	b := readBenchmarkJSON(t)
	if b.RunSeconds != defaultSeconds {
		t.Errorf("run_seconds = %d, program default %d", b.RunSeconds, defaultSeconds)
	}
	if len(b.Paths) != 1 || b.Paths[0] != "benchmark" {
		t.Errorf("paths = %v", b.Paths)
	}
	ws := workloads()
	if len(b.Workloads) != len(ws) {
		t.Fatalf("%d workloads declared, program has %d", len(b.Workloads), len(ws))
	}
	for i, w := range ws {
		if b.Workloads[i].Name != w.name || b.Workloads[i].Why != w.why {
			t.Errorf("workload %d: declared %q / %q, program %q / %q", i, b.Workloads[i].Name, b.Workloads[i].Why, w.name, w.why)
		}
		if len(w.why) > 200 || strings.Contains(w.why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters", w.name)
		}
	}
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	check := func(kind string, got []declared, want []metricDef, max int, bounded bool) {
		if len(got) != len(want) || len(got) > max {
			t.Fatalf("%s: %d declared, program emits %d, limit %d", kind, len(got), len(want), max)
		}
		for i, d := range want {
			g := got[i]
			if g.Name != d.name || g.Unit != d.unit || g.Better != d.better {
				t.Errorf("%s %d: declared %+v, program %s %s %s", kind, i, g, d.name, d.unit, d.better)
			}
			if !name.MatchString(g.Name) || !unit.MatchString(g.Unit) {
				t.Errorf("%s %s: name or unit %q outside the contract's alphabet", kind, g.Name, g.Unit)
			}
			if bounded != (g.Bound != nil) {
				t.Errorf("%s %s: bound present = %v, want %v", kind, g.Name, g.Bound != nil, bounded)
			}
			if g.Bound != nil && (*g.Bound != d.bound || *g.Bound <= 0 || *g.Bound > 0.25) {
				t.Errorf("%s %s: bound %v, program %v, contract (0, 0.25]", kind, g.Name, *g.Bound, d.bound)
			}
		}
	}
	check("end_to_end", b.EndToEnd, gatedDefs(), 16, true)
	check("per_layer", b.PerLayer, perLayerDefs(), 128, false)
	seen := map[string]bool{}
	for _, d := range append(b.EndToEnd, b.PerLayer...) {
		if seen[d.Name] {
			t.Errorf("metric %s declared twice", d.Name)
		}
		seen[d.Name] = true
	}
}

// TestTinyWorkloads runs both passes of all four workloads at smoke-test
// size and checks that every declared name is emitted exactly once with a
// finite value.
func TestTinyWorkloads(t *testing.T) {
	b := readBenchmarkJSON(t)
	out := t.TempDir()
	for _, w := range workloads() {
		for _, pass := range []struct {
			traced bool
			want   []declared
		}{{false, b.EndToEnd}, {true, b.PerLayer}} {
			var report bytes.Buffer
			res, err := runPass(w, passConfig{scale: scaleTiny, seed: 42, traced: pass.traced, outDir: out}, &report)
			if err != nil {
				t.Fatalf("%s traced=%v: %v", w.name, pass.traced, err)
			}
			if !res.Correct || res.Attempted < 1 {
				t.Errorf("%s traced=%v: correct=%v attempted=%d", w.name, pass.traced, res.Correct, res.Attempted)
			}
			if len(res.Metrics) != len(pass.want) {
				t.Errorf("%s traced=%v: %d metrics emitted, %d declared", w.name, pass.traced, len(res.Metrics), len(pass.want))
			}
			for _, d := range pass.want {
				m, ok := res.Metrics[d.Name]
				if !ok {
					t.Errorf("%s: declared metric %s not emitted", w.name, d.Name)
					continue
				}
				if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) || m.Unit != d.Unit {
					t.Errorf("%s: %s = %v %s, want a finite value in %s", w.name, d.Name, m.Value, m.Unit, d.Unit)
				}
				if n := strings.Count(report.String(), "\n   "+d.Name+" "); n != 1 {
					t.Errorf("%s: %s printed %d times", w.name, d.Name, n)
				}
			}
			if _, err := json.Marshal(res); err != nil {
				t.Errorf("%s: result does not encode: %v", w.name, err)
			}
		}
		if _, err := os.Stat(out + "/" + w.name + ".trace.json"); err != nil {
			t.Errorf("%s: span file: %v", w.name, err)
		}
	}
}

// TestChecksFire forces the failures the correctness checks exist for.
func TestChecksFire(t *testing.T) {
	ok := &core.CampaignReport{Name: "a", Executed: 3}
	if err := checkCampaigns([]*core.CampaignReport{ok}, 3); err != nil {
		t.Errorf("clean report rejected: %v", err)
	}
	boom := errors.New("instrument on fire")
	err := checkCampaigns([]*core.CampaignReport{ok, {Name: "b", Executed: 3, Err: boom}}, 3)
	if !errors.Is(err, boom) {
		t.Errorf("campaign error not reported: %v", err)
	}
	if err := checkCampaigns([]*core.CampaignReport{{Name: "c", Executed: 2}}, 3); err == nil {
		t.Error("short campaign not reported")
	}

	// A seed mismatch is what nondeterminism looks like from outside.
	w := findWorkload("chaos_stream")
	a, err := w.prepare(scaleTiny, 1).run(iterOpts{})
	if err != nil {
		t.Fatal(err)
	}
	again, err := w.prepare(scaleTiny, 1).run(iterOpts{})
	if err != nil {
		t.Fatal(err)
	}
	other, err := w.prepare(scaleTiny, 2).run(iterOpts{})
	if err != nil {
		t.Fatal(err)
	}
	if err := checkDeterministic(a, again); err != nil {
		t.Errorf("same seed: %v", err)
	}
	if err := checkDeterministic(a, other); err == nil || !strings.Contains(err.Error(), "nondeterministic") {
		t.Errorf("seed mismatch not reported: %v", err)
	}
}

func TestTailPercentile(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{{5, 50}, {64, 75}, {800, 95}, {4000, 99}, {563095, 99.99}} {
		if got := tailPercentile(c.n); got != c.want {
			t.Errorf("tailPercentile(%d) = %v, want %v", c.n, got, c.want)
		}
	}
	xs := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	if p := percentile(xs, 50); p != 5 {
		t.Errorf("p50 = %v", p)
	}
	if p := percentile(xs, 99); p != 10 {
		t.Errorf("p99 = %v", p)
	}
}

func TestCompareSets(t *testing.T) {
	set := func(run, makespan float64) resultSet {
		return resultSet{"w": {"run_s": {Value: run, Unit: "s"}, "virt_makespan_s": {Value: makespan, Unit: "s"}}}
	}
	var sink bytes.Buffer
	if !compareSets(&sink, []string{"w"}, set(1, 100), set(1.2, 100)) {
		t.Error("20% apart on a 25% bound must agree")
	}
	if compareSets(&sink, []string{"w"}, set(1, 100), set(1.3, 100)) {
		t.Error("30% apart on a 25% bound must disagree")
	}
	if compareSets(&sink, []string{"w"}, set(1, 100), set(1, 100.000001)) {
		t.Error("an exact metric that moved must disagree")
	}
}
