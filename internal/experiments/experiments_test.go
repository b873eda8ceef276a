package experiments

import (
	"strconv"
	"strings"
	"testing"
)

// quickOpts is the CI-scale configuration used by all experiment tests.
var quickOpts = Options{Seed: 42, Quick: true, Replicas: 2}

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

func TestRemainingExperimentsProduceTables(t *testing.T) {
	for _, id := range []string{"E2a", "E3a", "E7", "E8", "E9", "E9a", "E10", "E11", "E13a", "E14"} {
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

func TestMeanOfAndCollect(t *testing.T) {
	xs := []float64{1, 2, 3}
	if m := meanOf(xs, func(v float64) float64 { return v }); m != 2 {
		t.Fatalf("meanOf = %v", m)
	}
	c := collect(xs, func(v float64) float64 { return v * 2 })
	if c[2] != 6 {
		t.Fatalf("collect = %v", c)
	}
	if meanOf(nil, func(v float64) float64 { return v }) != 0 {
		t.Fatal("empty meanOf should be 0")
	}
}
