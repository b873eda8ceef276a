// Command aisle-sim runs a configurable AISLE federation scenario from a
// JSON file and reports the campaign outcome.
//
// Usage:
//
//	aisle-sim -config scenario.json
//	aisle-sim -example              # print a template scenario and exit
//	aisle-sim -trace trace.json     # also record a Chrome/Perfetto trace
//	aisle-sim -watch                # health engine + periodic SLO table
//	aisle-sim -profile profile.json # continuous spine profiler
//	aisle-sim -exp E15 [-quick]     # one E-series claim table (or -exp all)
//
// The scenario schema (see -example) declares sites, per-site instruments,
// and one campaign. With -trace the run records every span (sampling 1.0)
// and writes a chrome://tracing-loadable JSON file plus a critical-path
// breakdown on stderr; -metrics writes the labeled telemetry snapshot.
// With -watch the run assembles the federation health engine and renders
// its SLO burn-rate table to stderr every six virtual hours — alongside
// the live spine counters, and the profiler's per-call-site region counts
// when -profile is also on — plus any alerts that fired, when the run
// completes. With -profile the run attributes virtual time per hot
// call-site and writes the deterministic profile JSON at the given path
// and flamegraph-ready folded stacks (virtual-time weights) next to it.
//
// With -exp the command runs no scenario: it regenerates the E-series
// tables that reproduce the paper's milestone claims, at seed 42, one
// experiment by ID or every one in ID order for "all"; -quick shrinks the
// workloads. An unknown ID lists the experiments.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"os"
	"strings"
	"time"

	"github.com/aisle-sim/aisle"
	"github.com/aisle-sim/aisle/internal/experiments"
	"github.com/aisle-sim/aisle/internal/prof"
	"github.com/aisle-sim/aisle/internal/twin"
)

// Scenario is the JSON configuration schema.
type Scenario struct {
	Seed            uint64   `json:"seed"`
	Sites           []string `json:"sites"`
	ZeroTrust       bool     `json:"zero_trust"`
	SharedKnowledge bool     `json:"shared_knowledge"`
	Instruments     []struct {
		Site string `json:"site"`
		Kind string `json:"kind"` // fluidic | batch | spectrometer | xrd | hpc
		ID   string `json:"id"`
	} `json:"instruments"`
	Campaign struct {
		Site         string  `json:"site"`
		Model        string  `json:"model"` // perovskite | quantum-dot | alloy | reaction
		Budget       int     `json:"budget"`
		Target       float64 `json:"target"`
		Mode         string  `json:"mode"` // manual | agent | verified
		SynthKind    string  `json:"synth_kind"`
		UseKnowledge bool    `json:"use_knowledge"`
	} `json:"campaign"`
}

const exampleScenario = `{
  "seed": 1,
  "sites": ["ornl", "anl"],
  "zero_trust": true,
  "shared_knowledge": true,
  "instruments": [
    {"site": "ornl", "kind": "fluidic", "id": "flow-1"},
    {"site": "anl", "kind": "spectrometer", "id": "spec-1"}
  ],
  "campaign": {
    "site": "ornl",
    "model": "perovskite",
    "budget": 30,
    "target": 0,
    "mode": "verified",
    "synth_kind": "_flow._aisle",
    "use_knowledge": true
  }
}`

func main() {
	configPath := flag.String("config", "", "scenario JSON path")
	example := flag.Bool("example", false, "print a template scenario and exit")
	tracePath := flag.String("trace", "", "write a Chrome trace_event JSON file of the run")
	metricsPath := flag.String("metrics", "", "write a labeled telemetry snapshot JSON file")
	watch := flag.Bool("watch", false, "enable the health engine and print a periodic SLO table")
	profilePath := flag.String("profile", "", "enable the spine profiler and write its deterministic profile JSON file")
	exp := flag.String("exp", "", "print an E-series experiment's claim tables by ID, or every experiment's with all")
	quick := flag.Bool("quick", false, "with -exp, shrink the workloads")
	flag.Parse()

	if *example {
		fmt.Println(exampleScenario)
		return
	}
	if *exp != "" {
		runExperiments(*exp, *quick)
		return
	}

	var raw []byte
	var err error
	if *configPath == "" {
		raw = []byte(exampleScenario)
		fmt.Fprintln(os.Stderr, "aisle-sim: no -config given, running the template scenario")
	} else {
		raw, err = os.ReadFile(*configPath)
		if err != nil {
			log.Fatal(err)
		}
	}
	var sc Scenario
	if err := json.Unmarshal(raw, &sc); err != nil {
		log.Fatalf("aisle-sim: bad scenario: %v", err)
	}

	sites := make([]aisle.SiteID, len(sc.Sites))
	for i, s := range sc.Sites {
		sites[i] = aisle.SiteID(s)
	}
	n := aisle.New(aisle.Config{
		Seed:            sc.Seed,
		Sites:           sites,
		Link:            aisle.DefaultLink(),
		ZeroTrust:       sc.ZeroTrust,
		SharedKnowledge: sc.SharedKnowledge,
		Trace:           aisle.TraceOptions{Enabled: *tracePath != ""},
		Health:          aisle.HealthOptions{Enabled: *watch},
		Prof:            aisle.ProfOptions{Enabled: *profilePath != ""},
	})
	defer n.Stop()

	models := twin.Registry()
	model, ok := models[sc.Campaign.Model]
	if !ok {
		log.Fatalf("aisle-sim: unknown model %q", sc.Campaign.Model)
	}

	for _, inst := range sc.Instruments {
		site := n.Site(aisle.SiteID(inst.Site))
		if site == nil {
			log.Fatalf("aisle-sim: instrument at unknown site %q", inst.Site)
		}
		switch inst.Kind {
		case "fluidic":
			site.AddInstrument(aisle.NewFluidicReactor(n.Eng, n.Rnd, inst.ID, inst.Site, model))
		case "batch":
			site.AddInstrument(aisle.NewBatchReactor(n.Eng, n.Rnd, inst.ID, inst.Site, model))
		case "spectrometer":
			site.AddInstrument(aisle.NewSpectrometer(n.Eng, n.Rnd, inst.ID, inst.Site))
		case "xrd":
			site.AddInstrument(aisle.NewXRD(n.Eng, n.Rnd, inst.ID, inst.Site))
		case "hpc":
			site.AddInstrument(aisle.NewHPC(n.Eng, n.Rnd, inst.ID, inst.Site, 64))
		default:
			log.Fatalf("aisle-sim: unknown instrument kind %q", inst.Kind)
		}
	}
	if err := n.RunFor(3 * aisle.Minute); err != nil {
		log.Fatal(err)
	}

	mode := aisle.OrchAgentVerified
	switch sc.Campaign.Mode {
	case "manual":
		mode = aisle.OrchManual
	case "agent":
		mode = aisle.OrchAgent
	}

	var rep *aisle.CampaignReport
	n.RunCampaign(aisle.CampaignConfig{
		Name:         "scenario",
		Site:         aisle.SiteID(sc.Campaign.Site),
		Model:        model,
		Budget:       sc.Campaign.Budget,
		Target:       sc.Campaign.Target,
		Mode:         mode,
		SynthKind:    sc.Campaign.SynthKind,
		UseKnowledge: sc.Campaign.UseKnowledge,
	}, func(r *aisle.CampaignReport) { rep = r })
	for rep == nil {
		if err := n.RunFor(6 * aisle.Hour); err != nil {
			log.Fatal(err)
		}
		if *watch {
			fmt.Fprintf(os.Stderr, "aisle-sim: health at t=%s\n%s%s",
				n.Eng.Now(), n.Health.Table().Render(), spineLines(n))
		}
	}
	if rep.Err != nil {
		log.Fatal(rep.Err)
	}
	if *watch {
		fmt.Fprintf(os.Stderr, "aisle-sim: final health at t=%s\n%s%s",
			n.Eng.Now(), n.Health.Table().Render(), spineLines(n))
		for _, a := range n.Health.Alerts() {
			fmt.Fprintf(os.Stderr, "aisle-sim: alert %s at t=%s: %s\n", a.SLO, a.At, a.Detail)
		}
	}

	if *tracePath != "" {
		if err := n.Tracer.WriteChromeTraceFile(*tracePath); err != nil {
			log.Fatalf("aisle-sim: writing trace: %v", err)
		}
		fmt.Fprintf(os.Stderr, "aisle-sim: wrote %d spans to %s (dropped %d)\n",
			n.Tracer.Len(), *tracePath, n.Tracer.Dropped())
		for _, pr := range aisle.CriticalPaths(n.Tracer.Spans()) {
			fmt.Fprintln(os.Stderr, pr.Render())
		}
	}
	if *profilePath != "" {
		writeProfile(n, *profilePath)
	}
	if *metricsPath != "" {
		f, err := os.Create(*metricsPath)
		if err != nil {
			log.Fatalf("aisle-sim: writing metrics: %v", err)
		}
		if err := n.Metrics.WriteJSON(f); err != nil {
			log.Fatalf("aisle-sim: writing metrics: %v", err)
		}
		if err := f.Close(); err != nil {
			log.Fatalf("aisle-sim: writing metrics: %v", err)
		}
		fmt.Fprintf(os.Stderr, "aisle-sim: wrote metrics snapshot to %s\n", *metricsPath)
	}

	printReport(rep)
}

// runExperiments prints the tables of experiment id, or of every
// experiment for "all", each followed by its wall time.
func runExperiments(id string, quick bool) {
	ids := []string{id}
	if id == "all" {
		ids = experiments.IDs()
	}
	for _, id := range ids {
		start := time.Now()
		tables, err := experiments.Run(id, experiments.Options{Seed: 42, Quick: quick})
		if err != nil {
			fmt.Fprintf(os.Stderr, "aisle-sim: %v; the experiments are:\n", err)
			for _, id := range experiments.IDs() {
				fmt.Fprintf(os.Stderr, "  %-5s %s\n", id, experiments.Describe(id))
			}
			os.Exit(2)
		}
		for _, t := range tables {
			fmt.Println(t.Render())
		}
		fmt.Printf("[%s completed in %.1fs wall]\n\n", id, time.Since(start).Seconds())
	}
}

// printReport emits the campaign outcome JSON on stdout.
func printReport(rep *aisle.CampaignReport) {
	out, _ := json.MarshalIndent(map[string]any{
		"executed":        rep.Executed,
		"reused":          rep.Reused,
		"failures":        rep.Failures,
		"best_value":      rep.BestValue,
		"best_point":      rep.BestPoint,
		"makespan":        rep.Makespan().String(),
		"decision_time":   rep.DecisionTime.String(),
		"instrument_time": rep.InstrumentTime.String(),
		"correctness":     rep.Correctness(),
		"trace_approval":  rep.ApprovalRate(),
	}, "", "  ")
	fmt.Println(string(out))
}

// spineLines renders the live spine counters for the -watch loop: the
// health engine's subsystem totals, plus the profiler's per-call-site
// region and sample counts when -profile wired one in.
func spineLines(n *aisle.Network) string {
	var b strings.Builder
	p := n.Health.Profile()
	fmt.Fprintf(&b, "spine: sim=%d net=%d/%d bus=%d sched=%d merged=%d spans=%d(-%d)\n",
		p.SimEvents, p.NetSent, p.NetDelivered, p.BusDelivered,
		p.SchedDispatched, p.KnowledgeMerged, p.SpansHeld, p.SpansDropped)
	// The scheduler's waste ratios, from its own exact counters: how many
	// site pumps and route probes each dispatch cost.
	count := func(name string) float64 { return float64(n.Metrics.Counter(name).Value()) }
	pumps, probes, d := count("sched.pumps"), count("sched.route_probes"), count("sched.dispatched")
	fmt.Fprintf(&b, "sched: pumps=%.0f probes=%.0f dispatched=%.0f", pumps, probes, d)
	if d > 0 {
		fmt.Fprintf(&b, " per dispatch: pumps=%.1f probes=%.1f", pumps/d, probes/d)
	}
	b.WriteByte('\n')
	for _, s := range p.Sites {
		fmt.Fprintf(&b, "  prof %-16s count=%-8d samples=%-7d virtual=%s\n",
			s.Site, s.Count, s.Samples, time.Duration(s.VirtualNs))
	}
	return b.String()
}

// writeProfile dumps the profiler's deterministic snapshot and folded
// stacks (virtual-time weights, so both artifacts reproduce bit-exactly
// at a fixed seed).
func writeProfile(n *aisle.Network, path string) {
	f, err := os.Create(path)
	if err != nil {
		log.Fatalf("aisle-sim: writing profile: %v", err)
	}
	if err := n.Prof.WriteJSON(f); err != nil {
		log.Fatalf("aisle-sim: writing profile: %v", err)
	}
	if err := f.Close(); err != nil {
		log.Fatalf("aisle-sim: writing profile: %v", err)
	}
	foldedPath := strings.TrimSuffix(path, ".json") + ".folded"
	ff, err := os.Create(foldedPath)
	if err != nil {
		log.Fatalf("aisle-sim: writing folded stacks: %v", err)
	}
	if err := n.Prof.WriteFolded(ff, prof.WeightVirtual); err != nil {
		log.Fatalf("aisle-sim: writing folded stacks: %v", err)
	}
	if err := ff.Close(); err != nil {
		log.Fatalf("aisle-sim: writing folded stacks: %v", err)
	}
	fmt.Fprintf(os.Stderr, "aisle-sim: wrote profile to %s and folded stacks to %s\n", path, foldedPath)
}
