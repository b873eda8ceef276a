package experiments

import (
	"math"
	"strconv"
	"strings"
	"testing"
)

// quickOpts is the CI-scale configuration used by all experiment tests.
var quickOpts = Options{Seed: 42, Quick: true}

func TestRegistryComplete(t *testing.T) {
	want := []string{"E1", "E10", "E11", "E12", "E13", "E13a", "E14", "E15",
		"E16", "E2", "E2a", "E3", "E3a", "E4", "E5", "E6", "E7", "E8", "E9", "E9a"}
	got := IDs()
	if len(got) != len(want) {
		t.Fatalf("registered %d experiments, want %d: %v", len(got), len(want), got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("IDs() = %v", got)
		}
	}
	for _, id := range got {
		if Describe(id) == "" {
			t.Fatalf("%s has no description", id)
		}
	}
}

func TestUnknownExperiment(t *testing.T) {
	if _, err := Run("E99", quickOpts); err == nil {
		t.Fatal("unknown experiment did not error")
	}
}

// runOne asserts basic table shape for an experiment.
func runOne(t *testing.T, id string) []*telemetryTable {
	t.Helper()
	tables, err := Run(id, quickOpts)
	if err != nil {
		t.Fatal(err)
	}
	if len(tables) == 0 {
		t.Fatalf("%s produced no tables", id)
	}
	out := make([]*telemetryTable, len(tables))
	for i, tb := range tables {
		if tb.Name == "" || len(tb.Columns) == 0 || len(tb.Rows) == 0 {
			t.Fatalf("%s table %d malformed: %+v", id, i, tb)
		}
		for _, row := range tb.Rows {
			if len(row) > len(tb.Columns) {
				t.Fatalf("%s row wider than header: %v", id, row)
			}
		}
		out[i] = tb
	}
	return out
}

// telemetryTable aliases the table type for test readability.
type telemetryTable = tableT

// percent parses "93.8%" cells.
func percent(t *testing.T, cell string) float64 {
	t.Helper()
	v, err := strconv.ParseFloat(strings.TrimSuffix(cell, "%"), 64)
	if err != nil {
		t.Fatalf("cell %q is not a percentage", cell)
	}
	return v
}

func TestE1SpeedupShape(t *testing.T) {
	tb := runOne(t, "E1")[0]
	// manual row, agent rows: makespan column 1 must shrink.
	manual, _ := strconv.ParseFloat(tb.Rows[0][1], 64)
	agent, _ := strconv.ParseFloat(tb.Rows[2][1], 64)
	if agent >= manual {
		t.Fatalf("agent makespan %v not below manual %v", agent, manual)
	}
	if manual/agent < 3 {
		t.Fatalf("speedup %v below the paper's 3x claim", manual/agent)
	}
}

func TestE2CorrectnessShape(t *testing.T) {
	tb := runOne(t, "E2")[0]
	none := percent(t, tb.Rows[0][1])
	full := percent(t, tb.Rows[2][1])
	if full <= none {
		t.Fatalf("verification did not improve correctness: %v <= %v", full, none)
	}
	if full < 95 {
		t.Fatalf("verified correctness %v below the paper's 95%% claim", full)
	}
}

func TestE3ReductionShape(t *testing.T) {
	tb := runOne(t, "E3")[0]
	// Quick mode runs only 2 replicas, so the reduction estimate is noisy;
	// the CI shape check asserts direction and a loose floor. The full run
	// (README §"Tests, benchmarks, experiments") shows ~46% against the paper's >30% target.
	red := percent(t, strings.TrimSuffix(tb.Rows[2][1], "%")+"%")
	if red < 10 {
		t.Fatalf("experiment reduction %v%% too small (paper: >30%% at full scale)", red)
	}
	iso, _ := strconv.ParseFloat(tb.Rows[0][1], 64)
	fed, _ := strconv.ParseFloat(tb.Rows[1][1], 64)
	if fed >= iso {
		t.Fatalf("federated (%v) must execute fewer experiments than isolated (%v)", fed, iso)
	}
	approval := percent(t, tb.Rows[1][4])
	if approval < 90 {
		t.Fatalf("trace approval %v%% below the paper's 90%% claim", approval)
	}
}

func TestE4EfficiencyShape(t *testing.T) {
	tb := runOne(t, "E4")[0]
	ratio := strings.TrimSuffix(tb.Rows[2][1], "x")
	v, err := strconv.ParseFloat(ratio, 64)
	if err != nil {
		t.Fatalf("ratio cell %q", tb.Rows[2][1])
	}
	if v < 100 {
		t.Fatalf("fluidic/batch ratio %v below the paper's 100x claim", v)
	}
}

func TestE5AccelerationShape(t *testing.T) {
	tb := runOne(t, "E5")[0]
	iso, _ := strconv.ParseFloat(tb.Rows[0][1], 64)
	con, _ := strconv.ParseFloat(tb.Rows[1][1], 64)
	if con >= iso {
		t.Fatalf("interconnected (%v days) not faster than isolated (%v days)", con, iso)
	}
	if iso/con < 10 {
		t.Fatalf("acceleration %vx too small for the decades-to-months framing", iso/con)
	}
}

func TestE6SubSecondShape(t *testing.T) {
	tb := runOne(t, "E6")[0]
	for _, row := range tb.Rows {
		p99, err := strconv.ParseFloat(row[2], 64)
		if err != nil {
			t.Fatalf("p99 cell %q", row[2])
		}
		if p99 >= 1000 {
			t.Fatalf("%s p99 %vms violates sub-second claim", row[0], p99)
		}
	}
}

func TestE12BOBeatsBaselines(t *testing.T) {
	tb := runOne(t, "E12")[0]
	// Rows come in triples (grid, random, bo) per budget; check the last
	// budget's triple.
	n := len(tb.Rows)
	grid, _ := strconv.ParseFloat(tb.Rows[n-3][2], 64)
	random, _ := strconv.ParseFloat(tb.Rows[n-2][2], 64)
	bo, _ := strconv.ParseFloat(tb.Rows[n-1][2], 64)
	if bo <= random || bo <= grid {
		t.Fatalf("BO (%v) must dominate random (%v) and grid (%v)", bo, random, grid)
	}
}

func TestE13FaultToleranceShape(t *testing.T) {
	tb := runOne(t, "E13")[0]
	naive := percent(t, tb.Rows[0][3])
	tolerant := percent(t, tb.Rows[1][3])
	if tolerant <= naive {
		t.Fatalf("fault tolerance did not help: %v <= %v", tolerant, naive)
	}
	if tolerant < 90 {
		t.Fatalf("tolerant completion %v%% too low", tolerant)
	}
}

func TestE15SchedSaturationShape(t *testing.T) {
	tb := runOne(t, "E15")[0]
	// Rows are parallelism 1, 4, 8; column 1 is campaigns/hr.
	p1, _ := strconv.ParseFloat(tb.Rows[0][1], 64)
	p8, _ := strconv.ParseFloat(tb.Rows[len(tb.Rows)-1][1], 64)
	if p1 <= 0 || p8 <= 0 {
		t.Fatalf("non-positive throughput: p1=%v p8=%v", p1, p8)
	}
	if p8/p1 < 2 {
		t.Fatalf("batched dispatch speedup %.2fx below the 2x acceptance bar (p1=%v p8=%v)",
			p8/p1, p1, p8)
	}
}

// cell parses a numeric table cell, with or without a trailing "%".
func cell(t *testing.T, s string) float64 {
	t.Helper()
	v, err := strconv.ParseFloat(strings.TrimSuffix(s, "%"), 64)
	if err != nil {
		t.Fatalf("cell %q is not a number", s)
	}
	return v
}

func TestE2aVerificationDepthShape(t *testing.T) {
	tb := runOne(t, "E2a")[0]
	// Columns: defect rate, no verify, bounds, bounds+twin.
	prevNone := 101.0
	for _, row := range tb.Rows {
		none, bounds, twin := cell(t, row[1]), cell(t, row[2]), cell(t, row[3])
		if !(twin >= bounds && bounds >= none) {
			t.Fatalf("defect rate %s: bounds+twin %v >= bounds %v >= no-verify %v does not hold", row[0], twin, bounds, none)
		}
		if none >= prevNone {
			t.Fatalf("defect rate %s: no-verify %v did not fall from %v", row[0], none, prevNone)
		}
		prevNone = none
	}
}

func TestE7ProtocolShape(t *testing.T) {
	tb := runOne(t, "E7")[0]
	// Rows come in (rpc, queue, pub/sub) triples per size and loss level.
	if len(tb.Rows)%3 != 0 {
		t.Fatalf("%d rows, want (rpc, queue, pub/sub) triples", len(tb.Rows))
	}
	for _, row := range tb.Rows {
		if d := cell(t, row[5]); d != 100 {
			t.Fatalf("%s %s at %s loss delivered %v%%, want 100%%", row[0], row[1], row[2], d)
		}
	}
	for i := 0; i < len(tb.Rows); i += 3 {
		rpc, queue, pub := tb.Rows[i], tb.Rows[i+1], tb.Rows[i+2]
		if !strings.HasPrefix(rpc[0], "rpc") || !strings.HasPrefix(queue[0], "queue") || !strings.HasPrefix(pub[0], "pub/sub") {
			t.Fatalf("rows %d-%d are not an (rpc, queue, pub/sub) triple: %v %v %v", i, i+2, rpc[0], queue[0], pub[0])
		}
		if cell(t, pub[2]) == 0 {
			continue
		}
		if p := cell(t, pub[4]); p >= cell(t, rpc[4]) || p >= cell(t, queue[4]) {
			t.Fatalf("%s at %s loss: pub/sub p99 %v not below rpc %s and queue %s", pub[1], pub[2], p, rpc[4], queue[4])
		}
	}
}

func TestE11DiscoveryShape(t *testing.T) {
	tb := runOne(t, "E11")[0]
	// Columns: topology, burst convergence (s), heal convergence (s),
	// negotiation success.
	for _, row := range tb.Rows {
		for _, c := range row[1:3] {
			if v := cell(t, c); !(v > 0) || math.IsInf(v, 0) {
				t.Fatalf("%s: convergence time %q is not positive and finite", row[0], c)
			}
		}
		if ok := cell(t, row[3]); ok != 100 {
			t.Fatalf("%s: negotiation success %v%%, want 100%%", row[0], ok)
		}
	}
}

func TestE13aRetryBudgetShape(t *testing.T) {
	tb := runOne(t, "E13a")[0]
	// Columns: retries, completion rate, makespan (h).
	prev := -1.0
	for _, row := range tb.Rows {
		retries, done := cell(t, row[0]), cell(t, row[1])
		if done < prev {
			t.Fatalf("%v retries: completion %v%% fell from %v%%", retries, done, prev)
		}
		if retries >= 2 && done != 100 {
			t.Fatalf("%v retries: completion %v%%, want 100%%", retries, done)
		}
		prev = done
	}
}

func TestRemainingExperimentsProduceTables(t *testing.T) {
	for _, id := range []string{"E3a", "E8", "E9", "E9a", "E10", "E14"} {
		runOne(t, id)
	}
}

func TestParMapOrderAndCompleteness(t *testing.T) {
	out := parMap(100, func(i int) int { return i * i })
	for i, v := range out {
		if v != i*i {
			t.Fatalf("parMap[%d] = %d", i, v)
		}
	}
}

func TestMeanOf(t *testing.T) {
	xs := []float64{1, 2, 3}
	if m := meanOf(xs, func(v float64) float64 { return v }); m != 2 {
		t.Fatalf("meanOf = %v", m)
	}
	if meanOf(nil, func(v float64) float64 { return v }) != 0 {
		t.Fatal("empty meanOf should be 0")
	}
}
