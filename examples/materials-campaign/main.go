// Materials-campaign: the cross-institutional workflow from the paper's
// introduction — synthesize at one lab, characterize at a user facility,
// simulate on an HPC system — expressed as an AISLE fault-tolerant
// workflow DAG spanning three sites, whose published dataset is anchored
// to a provenance entity.
package main

import (
	"fmt"
	"log"

	"github.com/aisle-sim/aisle"
	"github.com/aisle-sim/aisle/internal/fabric"
	"github.com/aisle-sim/aisle/internal/instrument"
	"github.com/aisle-sim/aisle/internal/param"
	"github.com/aisle-sim/aisle/internal/workflow"
)

func main() {
	n := aisle.New(aisle.Config{
		Seed:  7,
		Sites: []aisle.SiteID{"synth-lab", "user-facility", "hpc-center"},
		Link:  aisle.DefaultLink(),
	})
	defer n.Stop()

	// Instruments live where their institutions do.
	n.Site("synth-lab").AddInstrument(
		aisle.NewBatchReactor(n.Eng, n.Rnd, "robot-1", "synth-lab", aisle.Alloy{}))
	n.Site("user-facility").AddInstrument(
		aisle.NewXRD(n.Eng, n.Rnd, "xrd-1", "user-facility"))
	n.Site("hpc-center").AddInstrument(
		aisle.NewHPC(n.Eng, n.Rnd, "cluster-1", "hpc-center", 128))

	if err := n.RunFor(3 * aisle.Minute); err != nil {
		log.Fatal(err)
	}

	// The composition under study.
	composition := param.Point{"frac_a": 0.55, "frac_b": 0.30, "anneal_C": 480, "anneal_min": 120}
	home := n.Site("synth-lab")

	spec := workflow.NewSpec("alloy-pipeline")
	spec.MustAdd(workflow.Task{
		ID: "synthesize", Retries: 2, Backoff: 10 * aisle.Minute,
		Run: func(ctx workflow.Ctx, done func(any, error)) {
			rec, ok := home.FindInstrument(aisle.KindSynthesis, nil, "")
			if !ok {
				done(nil, fmt.Errorf("no synthesis robot"))
				return
			}
			home.RunInstrument(rec, aisle.InstrumentCommand{
				Action: "synthesize", Params: composition, SampleID: "alloy-001",
			}, 12*aisle.Hour, func(res aisle.InstrumentResult, err error) {
				if err != nil {
					done(nil, err)
					return
				}
				done(res.Values["hardness"], nil)
			})
		},
	})
	spec.MustAdd(workflow.Task{
		ID: "characterize", Needs: []string{"synthesize"}, Retries: 2, Backoff: 10 * aisle.Minute,
		Run: func(ctx workflow.Ctx, done func(any, error)) {
			rec, ok := home.FindInstrument(aisle.KindXRD, nil, "resolution")
			if !ok {
				done(nil, fmt.Errorf("no diffractometer visible in the federation"))
				return
			}
			home.RunInstrument(rec, aisle.InstrumentCommand{
				Action: "scan",
				Params: param.Point{"scan_resolution": 0.5, "exposure_s": 120},
			}, 12*aisle.Hour, func(res aisle.InstrumentResult, err error) {
				done(res.Values, err)
			})
		},
	})
	spec.MustAdd(workflow.Task{
		ID: "simulate", Needs: []string{"synthesize"}, Retries: 1,
		Run: func(ctx workflow.Ctx, done func(any, error)) {
			rec, ok := home.FindInstrument(aisle.KindHPC, nil, "nodes")
			if !ok {
				done(nil, fmt.Errorf("no HPC allocation"))
				return
			}
			home.RunInstrument(rec, aisle.InstrumentCommand{
				Action: "simulate", Params: param.Point{"nodes": 64, "sim_fidelity": 2},
			}, 24*aisle.Hour, func(res aisle.InstrumentResult, err error) {
				done(res.Values, err)
			})
		},
	})
	spec.MustAdd(workflow.Task{
		ID: "publish", Needs: []string{"characterize", "simulate"},
		Run: func(ctx workflow.Ctx, done func(any, error)) {
			// Publish the dataset into the federated mesh with provenance.
			node := n.Mesh.Node("synth-lab")
			ref := node.Put([]byte("alloy-001 results bundle"))
			ds := node.Publish(fabric.Dataset{
				ID:       "alloy-001",
				Title:    "Ternary alloy hardness study alloy-001",
				Domain:   "materials",
				Keywords: []string{"alloy", "hardness", "annealing"},
				License:  "CC-BY-4.0",
				Objects:  []fabric.Ref{ref},
				ProvRef:  string(n.Mesh.Prov.AddEntity("dataset:alloy-001")),
			})
			done(ds.ID, nil)
		},
	})

	var rep *workflow.Report
	n.Workflows.Run(spec, nil, func(r *workflow.Report) { rep = r })
	for rep == nil {
		if err := n.RunFor(6 * aisle.Hour); err != nil {
			log.Fatal(err)
		}
	}

	fmt.Printf("pipeline:    %s\n", rep.Name)
	fmt.Printf("tasks:       %d done, %d failed, %d retries\n", rep.Completed, rep.Failed, rep.Retries)
	fmt.Printf("makespan:    %v\n", rep.Makespan())
	fmt.Printf("hardness:    %.2f GPa\n", rep.Results["synthesize"])
	if hits := n.Mesh.Search("alloy hardness"); len(hits) > 0 {
		fmt.Printf("discovery:   %q findable federation-wide (score %.0f)\n",
			hits[0].Dataset.Title, hits[0].Score)
	}
	fair := n.Mesh.ScoreFAIR(mustDataset(n, "synth-lab", "alloy-001"))
	fmt.Printf("FAIR:        %s\n", fair)
	_ = instrument.KindXRD // document the service-kind vocabulary in use
}

func mustDataset(n *aisle.Network, site aisle.SiteID, id string) *fabric.Dataset {
	d, err := n.Mesh.Node(site).Dataset(id)
	if err != nil {
		log.Fatal(err)
	}
	return d
}
