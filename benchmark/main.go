// Command benchmark is the repository's benchmark: four workloads over the
// AISLE federation, an end-to-end ledger measured with every tracer off, and
// a per-layer budget from a separate traced pass. See README.md.
//
//	go run -C benchmark . -workload all            # every metric, human-readable
//	go run -C benchmark . -agree                   # two sets of runs agree within bounds
//	go run -C benchmark . --workload msg_storm --seed 7 --seconds 20 --trace 0
//
// The last form is the driver's: one pass of one workload, whose last line
// of standard output is one JSON object.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"runtime"
	"strconv"
	"syscall"

	"github.com/aisle-sim/aisle/internal/rng"
)

// defaultSeconds is run_seconds in BENCHMARK.json: the least one pass
// measures. One round over the variants takes 10 to 18 s on the 2-core
// sandbox the sizes were chosen on, so a pass usually makes one round.
const defaultSeconds = 10

// variants is how many seed-derived input variants one untraced pass
// measures and averages over.
const variants = 5

// setupRepeats is how many set-up-only repetitions follow each timed
// iteration: set-up takes 0.1 to 10 ms, too short to be steady over a handful
// of samples. At that scale host noise is not a small one-sided addition, so
// setup_s is the median over all of a pass's set-ups, not the minimum.
const setupRepeats = 20

// metricValue is one emitted number.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the JSON object a pass prints as its last line.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func main() {
	workloadFlag := flag.String("workload", "all", "workload name, or all")
	seed := flag.Uint64("seed", 42, "workload seed: feeds the input generators and core.Config.Seed")
	seconds := flag.Float64("seconds", defaultSeconds, "host seconds one pass spends on timed iterations")
	traceFlag := flag.Int("trace", -1, "0: end-to-end pass, tracers off; 1: traced per-layer pass; unset: both, each in a child process")
	scaleFlag := flag.String("scale", "full", "full or tiny (smoke test sizes)")
	agree := flag.Bool("agree", false, "run the full set twice and compare the two with the benchmark's own bounds")
	record := flag.String("record", "", "write the results of a -workload all run to this JSON file")
	outDir := flag.String("out", "out", "directory for the traced pass's span files")
	flag.Parse()

	procs := runtime.NumCPU()
	if procs > 4 {
		procs = 4
	}
	runtime.GOMAXPROCS(procs)

	sc := scaleFull
	switch *scaleFlag {
	case "full":
	case "tiny":
		sc = scaleTiny
	default:
		fatal(fmt.Errorf("unknown -scale %q", *scaleFlag))
	}

	if *traceFlag == 0 || *traceFlag == 1 {
		w := findWorkload(*workloadFlag)
		if w == nil {
			fatal(fmt.Errorf("unknown workload %q", *workloadFlag))
		}
		res, err := runPass(w, passConfig{scale: sc, seed: *seed, seconds: *seconds, traced: *traceFlag == 1, outDir: *outDir}, os.Stdout)
		if err != nil {
			fatal(fmt.Errorf("%s: %w", w.name, err))
		}
		line, err := json.Marshal(res)
		if err != nil {
			fatal(err)
		}
		fmt.Println(string(line))
		return
	}

	var names []string
	for _, w := range workloads() {
		if *workloadFlag == "all" || *workloadFlag == w.name {
			names = append(names, w.name)
		}
	}
	if len(names) == 0 {
		fatal(fmt.Errorf("unknown workload %q", *workloadFlag))
	}
	first, err := runChildren(names, *scaleFlag, *seed, *seconds, *outDir, *agree)
	if err != nil {
		fatal(err)
	}
	if *record != "" {
		if err := writeRecord(*record, first[0], sc, *seed, *seconds); err != nil {
			fatal(err)
		}
	}
	if *agree {
		if !compareSets(os.Stdout, names, first[0], first[1]) {
			fmt.Println("DISAGREE: two sets of runs of the same code differ by more than the benchmark's bounds")
			os.Exit(1)
		}
		fmt.Println("AGREE: two sets of runs of the same code are within the benchmark's bounds")
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "benchmark:", err)
	os.Exit(1)
}

// resultSet is every metric of every workload from one set of runs.
type resultSet map[string]map[string]metricValue

// runChildren runs both passes of each workload, each in a fresh child
// process of this binary so peak_rss_mb is the workload's own. With twice it
// makes two sets, the second run of each pass right after the first: the
// host drifts by tens of percent over the minutes a whole set takes, and
// -agree is about the code, not the host.
func runChildren(names []string, scaleName string, seed uint64, seconds float64, outDir string, twice bool) ([]resultSet, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	sets := []resultSet{{}}
	if twice {
		sets = append(sets, resultSet{})
	}
	for _, name := range names {
		for trace := 0; trace <= 1; trace++ {
			for _, set := range sets {
				res, err := runChild(self, "-workload", name, "-seed", strconv.FormatUint(seed, 10),
					"-seconds", strconv.FormatFloat(seconds, 'g', -1, 64), "-trace", strconv.Itoa(trace),
					"-scale", scaleName, "-out", outDir)
				if err != nil {
					return nil, fmt.Errorf("%s --trace %d: %w", name, trace, err)
				}
				if set[name] == nil {
					set[name] = map[string]metricValue{}
				}
				for k, v := range res.Metrics {
					set[name][k] = v
				}
			}
		}
	}
	return sets, nil
}

// runChild runs one pass in a child process, passes its report through and
// parses its last line, the result.
func runChild(self string, args ...string) (*result, error) {
	cmd := exec.Command(self, args...)
	cmd.Stderr = os.Stderr
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	var last string
	sc := bufio.NewScanner(stdout)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		if last != "" {
			fmt.Println(last)
		}
		last = sc.Text()
	}
	if err := cmd.Wait(); err != nil {
		return nil, err
	}
	var res result
	if err := json.Unmarshal([]byte(last), &res); err != nil {
		return nil, fmt.Errorf("last line is not a result: %w", err)
	}
	if !res.Correct {
		return nil, fmt.Errorf("outputs not correct")
	}
	return &res, nil
}

// effort is how much a pass measures beyond the workload's own size. The
// smoke test measures the least that still takes every path.
type effort struct {
	variants     int   // input variants the untraced pass takes its median over
	setupRepeats int   // set-up-only repetitions after each timed iteration
	probeShrink  int   // divisor of the probes' repeat counts
	minSamples   int64 // CPU samples below which the budget is refused
}

func (sc scale) effort() effort {
	if sc == scaleTiny {
		return effort{variants: 1, setupRepeats: 0, probeShrink: 20, minSamples: 0}
	}
	return effort{variants: variants, setupRepeats: setupRepeats, probeShrink: 1, minSamples: 100}
}

// passConfig is what one pass of one workload is told.
type passConfig struct {
	scale   scale
	seed    uint64
	seconds float64
	traced  bool
	outDir  string
}

// runPass runs one pass of one workload in this process and reports every
// metric of the pass by name with its unit.
func runPass(w *workload, pc passConfig, out io.Writer) (*result, error) {
	fmt.Fprintf(out, "== %s  seed=%d  trace=%v  %s loop\n", w.name, pc.seed, pc.traced, w.loop)
	fmt.Fprintf(out, "   host: %s %s/%s nproc=%d GOMAXPROCS=%d\n", runtime.Version(), runtime.GOOS, runtime.GOARCH,
		runtime.NumCPU(), runtime.GOMAXPROCS(0))

	pass, defs := ledgerPass, gatedDefs()
	if pc.traced {
		pass, defs = tracedPass, perLayerDefs()
	}
	res := &result{Correct: true, Metrics: map[string]metricValue{}}
	values, err := pass(w, pc, res, out)
	if err != nil {
		return nil, err
	}
	for _, d := range defs {
		v, ok := values[d.name]
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, fmt.Errorf("metric %s is not finite", d.name)
		}
		res.Metrics[d.name] = metricValue{Value: v, Unit: d.unit}
		note := ""
		if !ok {
			// Does not apply on this workload (best_value_mean, an unused
			// layer's probe); the driver wants every name, so it reads 0.
			note = "  (n/a)"
		}
		fmt.Fprintf(out, "   %-32s %16.6g %-9s %s%s\n", d.name, v, d.unit, d.better, note)
	}
	return res, nil
}

// variantSeeds derives the seeds of a run's input variants: the seed itself,
// then draws from a stream forked off it.
func variantSeeds(seed uint64, n int) []uint64 {
	seeds := []uint64{seed}
	for r := rng.New(seed).Fork("bench-variants"); len(seeds) < n; {
		seeds = append(seeds, r.Uint64())
	}
	return seeds
}

// checkDeterministic holds two iterations of one seed to identical simulated
// statistics.
func checkDeterministic(a, b *iteration) error {
	same := a.attempted == b.attempted && a.failed == b.failed && a.makespanS == b.makespanS &&
		len(a.lat) == len(b.lat) && a.counters["sim.events"] == b.counters["sim.events"] &&
		(a.bestMean == b.bestMean || (math.IsNaN(a.bestMean) && math.IsNaN(b.bestMean)))
	for i := 0; same && i < len(a.lat); i++ {
		same = a.lat[i] == b.lat[i]
	}
	if !same {
		return fmt.Errorf("nondeterministic: two iterations of one seed differ (makespan %v vs %v, failed %d vs %d, events %.0f vs %.0f)",
			a.makespanS, b.makespanS, a.failed, b.failed, a.counters["sim.events"], b.counters["sim.events"])
	}
	return nil
}

// ledgerPass is the untraced pass: the gated end-to-end metrics.
//
// How expensive an iteration is depends on the seed far more than on the
// host (fleet_wide: 1.9 to 3.1 s across ten seeds at an identical
// sched.route call count, and twice that on the one seed in six that parks
// a job until its 48 h timeout).
// So a run measures `variants` input variants derived from its seed and
// reports their median. Within a variant every iteration does bit-identical
// work, so host noise is additive and one-sided and the minimum over rounds
// is its time; a pass makes one round per ten seconds of pc.seconds.
func ledgerPass(w *workload, pc passConfig, res *result, out io.Writer) (map[string]float64, error) {
	eff := pc.scale.effort()
	n := eff.variants
	pres := make([]prepared, n)
	for v, seed := range variantSeeds(pc.seed, n) {
		pres[v] = w.prepare(pc.scale, seed)
		fmt.Fprintf(out, "   variant %d: seed=%d inputs: %s\n", v, seed, pres[v].digest)
	}
	fmt.Fprintf(out, "   params: %s\n", pres[0].params)

	// One untimed warm-up iteration grows the heap; it is also variant 0's
	// determinism reference when the budget allows only one round.
	warm, err := pres[0].run(iterOpts{})
	if err != nil {
		return nil, err
	}
	first := make([]*iteration, n)
	runs := make([][]float64, n)
	var setups []float64
	// The round count is fixed by the flag, not by the clock, so that every
	// run of a given --seconds takes the minimum over the same number of
	// samples: one round (10 to 18 s here) per ten seconds asked for.
	rounds := int(math.Ceil(pc.seconds / 10))
	if rounds < 1 {
		rounds = 1
	}
	for round := 0; round < rounds; round++ {
		for v := range pres {
			it, err := pres[v].run(iterOpts{})
			if err != nil {
				return nil, err
			}
			if first[v] == nil {
				first[v] = it
			}
			if err := checkDeterministic(first[v], it); err != nil {
				return nil, err
			}
			runs[v] = append(runs[v], it.runS)
			setups = append(setups, it.setupS)
			for i := 0; i < eff.setupRepeats; i++ {
				it, err := pres[v].run(iterOpts{setupOnly: true})
				if err != nil {
					return nil, err
				}
				setups = append(setups, it.setupS)
			}
		}
	}
	if err := checkDeterministic(warm, first[0]); err != nil {
		return nil, err
	}

	// The statistic over variants is the median: about one seed in seven
	// lands on a trajectory that costs twice the time and four times the
	// allocations of the rest, and a mean would hand that tail to every run.
	var runS, ops, allocs, kb []float64
	for v, it := range first {
		s := summarize(runs[v])
		n := float64(it.attempted)
		fmt.Fprintf(out, "   variant %d: run_s min=%.4f (n=%d)  allocs_per_op=%.2f  alloc_kb_per_op=%.3f  failed %d of %d\n",
			v, s.min, s.n, float64(it.mallocs)/n, float64(it.allocBytes)/1024/n, it.failed, it.attempted)
		runS = append(runS, s.min)
		ops = append(ops, float64(it.attempted-it.failed)/s.min)
		allocs = append(allocs, float64(it.mallocs)/n)
		kb = append(kb, float64(it.allocBytes)/1024/n)
		res.Attempted += it.attempted
		res.Failed += it.failed
	}
	setup := summarize(setups)
	fmt.Fprintf(out, "   setup_s: n=%d min=%.5f q1=%.5f median=%.5f q3=%.5f\n", setup.n, setup.min, setup.q1, setup.median, setup.q3)
	return map[string]float64{
		"setup_s":         setup.median,
		"run_s":           summarize(runS).median,
		"ops_per_s":       summarize(ops).median,
		"allocs_per_op":   summarize(allocs).median,
		"alloc_kb_per_op": summarize(kb).median,
		"peak_rss_mb":     peakRSSMiB(),
	}, nil
}

// virtual computes the ungated part of the ledger: the simulated statistics.
func virtual(w *workload, it *iteration, out io.Writer) map[string]float64 {
	tail := tailPercentile(len(it.lat))
	fmt.Fprintf(out, "   virt_lat: unit=%s samples=%d tail=p%g  generator lateness=%gs\n", w.latUnit, len(it.lat), tail, it.lateS)
	v := map[string]float64{
		"failed_share":      float64(it.failed) / float64(it.attempted),
		"virt_makespan_s":   it.makespanS,
		"virt_lat_p50_s":    percentile(it.lat, 50),
		"virt_lat_tail_s":   percentile(it.lat, tail),
		"virt_lat_tail_pct": tail,
		"virt_lat_samples":  float64(len(it.lat)),
		"gen_lateness_s":    it.lateS,
	}
	if w.hasBest {
		v["best_value_mean"] = it.bestMean
	}
	return v
}

// tracedPass produces the per-layer numbers for the run's first variant (the
// seed itself): exact counters and simulated statistics from an untraced
// iteration, CPU shares from one iteration under runtime/pprof with spans
// on, region counts from one iteration with the spine profiler on, and the
// layer probes.
func tracedPass(w *workload, pc passConfig, res *result, out io.Writer) (map[string]float64, error) {
	pre := w.prepare(pc.scale, pc.seed)
	run := pre.run
	fmt.Fprintf(out, "   params: %s\n   inputs: %s\n", pre.params, pre.digest)
	// Warm-up, then two untraced iterations: the baseline of the overhead ratio.
	ref, err := run(iterOpts{})
	if err != nil {
		return nil, err
	}
	var fastest *iteration
	for i := 0; i < 2; i++ {
		it, err := run(iterOpts{})
		if err != nil {
			return nil, err
		}
		if err := checkDeterministic(ref, it); err != nil {
			return nil, err
		}
		if fastest == nil || it.runS < fastest.runS {
			fastest = it
		}
	}
	res.Attempted, res.Failed = ref.attempted, ref.failed

	values := virtual(w, ref, out)
	ops := float64(ref.attempted)
	for k, v := range ref.counters {
		values[k] = v
	}
	values["sim.events_per_op"] = ref.counters["sim.events"] / ops
	values["runtime.gc_cycles"] = float64(fastest.gcCycles)
	values["runtime.gc_pause_ms"] = float64(fastest.gcPauseNs) / 1e6
	wall := fastest.setupS + fastest.runS
	values["host.cpu_s"] = fastest.cpuS
	values["host.cpu_per_wall"] = fastest.cpuS / wall
	values["sim.events_per_s"] = ref.counters["sim.events"] / wall

	spans := newSpanLog()
	var traced *iteration
	shares, samples, err := profiled(func() error {
		var err error
		traced, err = run(iterOpts{spans: spans, iter: 1})
		return err
	})
	if err != nil {
		return nil, err
	}
	if err := checkDeterministic(ref, traced); err != nil {
		return nil, err
	}
	sum := 0.0
	for _, l := range cpuLayers {
		values[l+".cpu_share"] = shares[l]
		sum += shares[l]
	}
	values["other.cpu_share"] = shares[bucketOther]
	values["runtime.gc_cpu_share"] = shares[bucketGC]
	values["runtime.other_cpu_share"] = shares[bucketRuntimeOther]
	sum += shares[bucketOther] + shares[bucketGC] + shares[bucketRuntimeOther]
	fmt.Fprintf(out, "   cpu budget: %d samples (%d Hz requested), shares sum to %.4f\n", samples, cpuProfileHz, sum)
	if samples > 0 && math.Abs(sum-1) > 0.01 {
		return nil, fmt.Errorf("cpu shares sum to %.4f over %d samples, want 1", sum, samples)
	}
	if samples < pc.scale.effort().minSamples {
		return nil, fmt.Errorf("cpu profile has only %d samples: too thin to budget %d layers", samples, len(cpuLayers))
	}
	values["core.new_ms"] = traced.phases[phaseNew]
	values["core.warmup_ms"] = traced.phases[phaseWarmup]
	values["core.submit_ms"] = traced.phases[phaseSubmit]
	values["core.drain_ms"] = traced.phases[phaseDrain]
	values["host.trace_overhead_ratio"] = traced.runS / fastest.runS

	regions := ref.regions
	if regions == nil {
		it, err := run(iterOpts{prof: true})
		if err != nil {
			return nil, err
		}
		if err := checkDeterministic(ref, it); err != nil {
			return nil, err
		}
		regions = it.regions
	}
	for k, v := range regionMetrics(regions, ref.counters["sched.dispatched"]) {
		values[k] = v
	}

	pre.probe.shrink = pc.scale.effort().probeShrink
	for k, v := range probes(pre.probe, pc.seed, spans) {
		values[k] = v
	}
	path, err := spans.write(pc.outDir, w.name)
	if err != nil {
		return nil, err
	}
	fmt.Fprintf(out, "   spans: %d written to %s\n", len(spans.spans), path)
	return values, nil
}

func peakRSSMiB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}

// ---- -agree and -record ----

// compareSets prints a per-workload table of the two result sets and
// reports whether they agree: exact metrics bit-equal, the others within
// their bound.
func compareSets(out io.Writer, names []string, a, b resultSet) bool {
	defs := append(gatedDefs(), perLayerDefs()...)
	ok := true
	for _, name := range names {
		fmt.Fprintf(out, "\n== agree: %s\n   %-32s %16s %16s %9s  %s\n", name, "metric", "first", "second", "diff", "verdict")
		for _, d := range defs {
			x, y := a[name][d.name].Value, b[name][d.name].Value
			verdict := "info"
			switch {
			case d.exact:
				verdict = "exact"
				if x != y {
					verdict, ok = "DIFFERS (want bit-equal)", false
				}
			case d.bound > 0:
				verdict = fmt.Sprintf("within %.0f%%", d.bound*100)
				if math.Abs(x-y) > d.bound*math.Min(math.Abs(x), math.Abs(y)) {
					verdict, ok = fmt.Sprintf("DIFFERS (bound %.0f%%)", d.bound*100), false
				}
			}
			diff := 0.0
			if x != 0 {
				diff = (y - x) / math.Abs(x) * 100
			}
			fmt.Fprintf(out, "   %-32s %16.6g %16.6g %+8.2f%%  %s\n", d.name, x, y, diff, verdict)
		}
	}
	return ok
}

// writeRecord stores one result set with the host facts it was measured on.
func writeRecord(path string, set resultSet, sc scale, seed uint64, seconds float64) error {
	type recorded struct {
		Why     string                 `json:"why"`
		Loop    string                 `json:"loop"`
		Params  string                 `json:"params"`
		Inputs  string                 `json:"inputs"`
		Metrics map[string]metricValue `json:"metrics"`
	}
	doc := struct {
		Host      map[string]any      `json:"host"`
		Seed      uint64              `json:"seed"`
		Seconds   float64             `json:"seconds"`
		Workloads map[string]recorded `json:"workloads"`
	}{
		Host: map[string]any{"go": runtime.Version(), "os": runtime.GOOS, "arch": runtime.GOARCH,
			"nproc": runtime.NumCPU(), "gomaxprocs": runtime.GOMAXPROCS(0)},
		Seed: seed, Seconds: seconds, Workloads: map[string]recorded{},
	}
	for name, metrics := range set {
		w := findWorkload(name)
		pre := w.prepare(sc, seed)
		doc.Workloads[name] = recorded{Why: w.why, Loop: w.loop, Params: pre.params, Inputs: pre.digest, Metrics: metrics}
	}
	data, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
