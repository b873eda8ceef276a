// Traced-campaign: follow one discovery campaign from submit to insight.
// The federation runs with causal tracing fully sampled; every hop an
// experiment takes — scheduler enqueue, routing, WAN delivery, instrument
// execution, knowledge sync back across the federation — lands as a span
// in virtual time. The program writes a chrome://tracing / Perfetto
// loadable trace, prints the critical-path breakdown showing which layer
// the campaign's makespan was spent in, and dumps the labeled telemetry
// snapshot (per-site, per-tenant scheduler metrics).
package main

import (
	"fmt"
	"log"
	"os"

	"github.com/aisle-sim/aisle"
)

func main() {
	n := aisle.New(aisle.Config{
		Seed:            7,
		Sites:           []aisle.SiteID{"ornl", "anl"},
		Link:            aisle.DefaultLink(),
		SharedKnowledge: true,
		// Tracing on: every span lands in a bounded per-site ring
		// (TraceOptions.SiteCapacity), the oldest overwritten and counted.
		Trace: aisle.TraceOptions{Enabled: true},
	})
	defer n.Stop()

	n.Site("ornl").AddInstrument(aisle.NewFluidicReactor(n.Eng, n.Rnd, "flow-1", "ornl", aisle.Perovskite{}))
	n.Site("anl").AddInstrument(aisle.NewFluidicReactor(n.Eng, n.Rnd, "flow-2", "anl", aisle.Perovskite{}))
	if err := n.RunFor(3 * aisle.Minute); err != nil {
		log.Fatal(err)
	}

	var rep *aisle.CampaignReport
	n.RunCampaign(aisle.CampaignConfig{
		Name: "traced", Site: "ornl", Model: aisle.Perovskite{},
		Budget: 12, Mode: aisle.OrchAgentVerified,
		SynthKind:    aisle.KindFlowReactor,
		Parallelism:  2,
		UseKnowledge: true,
	}, func(r *aisle.CampaignReport) { rep = r })
	for rep == nil {
		if err := n.RunFor(aisle.Hour); err != nil {
			log.Fatal(err)
		}
	}
	if rep.Err != nil {
		log.Fatal(rep.Err)
	}

	fmt.Printf("campaign %q: executed=%d best=%.3f makespan=%v\n\n",
		rep.Name, rep.Executed, rep.BestValue, rep.Makespan())

	// Where did the time go? Per-layer self-time along the campaign's span
	// tree — instrument runs, WAN hops, queue waits, decisions.
	for _, pr := range aisle.CriticalPaths(n.Tracer.Spans()) {
		fmt.Println(pr.Render())
	}

	const out = "traced-campaign.trace.json"
	if err := n.Tracer.WriteChromeTraceFile(out); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nwrote %d spans to %s (load in chrome://tracing or ui.perfetto.dev)\n",
		n.Tracer.Len(), out)

	fmt.Println("\nlabeled telemetry snapshot:")
	if err := n.Metrics.WriteJSON(os.Stdout); err != nil {
		log.Fatal(err)
	}
}
