// Benchmarks regenerating every experiment in the suite (README §"Tests, benchmarks, experiments"):
// one benchmark per table/figure-equivalent claim. Each iteration runs the
// experiment end to end in Quick mode — go test -bench reports wall time
// per full regeneration, and -benchmem the allocation footprint of the
// simulation stack.
package aisle

import (
	"testing"

	"github.com/aisle-sim/aisle/internal/experiments"
)

func benchExperiment(b *testing.B, id string) {
	b.Helper()
	for i := 0; i < b.N; i++ {
		tables, err := experiments.Run(id, experiments.Options{
			Seed: uint64(42 + i), Quick: true, Replicas: 2,
		})
		if err != nil {
			b.Fatal(err)
		}
		if len(tables) == 0 || len(tables[0].Rows) == 0 {
			b.Fatalf("%s produced no rows", id)
		}
	}
}

// BenchmarkE1Orchestration regenerates M8's manual-vs-agent speedup table.
func BenchmarkE1Orchestration(b *testing.B) { benchExperiment(b, "E1") }

// BenchmarkE2Verification regenerates M8's correctness-with-verification table.
func BenchmarkE2Verification(b *testing.B) { benchExperiment(b, "E2") }

// BenchmarkE2aVerifyDepth regenerates the verification-depth ablation.
func BenchmarkE2aVerifyDepth(b *testing.B) { benchExperiment(b, "E2a") }

// BenchmarkE3Knowledge regenerates M9's federated-knowledge reduction table.
func BenchmarkE3Knowledge(b *testing.B) { benchExperiment(b, "E3") }

// BenchmarkE3aFederationSize regenerates the federation-size ablation.
func BenchmarkE3aFederationSize(b *testing.B) { benchExperiment(b, "E3a") }

// BenchmarkE4Fluidic regenerates the fluidic-vs-batch efficiency table.
func BenchmarkE4Fluidic(b *testing.B) { benchExperiment(b, "E4") }

// BenchmarkE5Acceleration regenerates the isolated-vs-interconnected table.
func BenchmarkE5Acceleration(b *testing.B) { benchExperiment(b, "E5") }

// BenchmarkE6ZeroTrust regenerates M11's zero-trust latency/failover table.
func BenchmarkE6ZeroTrust(b *testing.B) { benchExperiment(b, "E6") }

// BenchmarkE7Protocols regenerates the M10 protocol-comparison table.
func BenchmarkE7Protocols(b *testing.B) { benchExperiment(b, "E7") }

// BenchmarkE8Metadata regenerates M5's annotation-accuracy table.
func BenchmarkE8Metadata(b *testing.B) { benchExperiment(b, "E8") }

// BenchmarkE9DataMesh regenerates M6's mesh discovery + FAIR table.
func BenchmarkE9DataMesh(b *testing.B) { benchExperiment(b, "E9") }

// BenchmarkE9aProxy regenerates the proxy-vs-value ablation.
func BenchmarkE9aProxy(b *testing.B) { benchExperiment(b, "E9a") }

// BenchmarkE10Streams regenerates M7's stream quality-assessment table.
func BenchmarkE10Streams(b *testing.B) { benchExperiment(b, "E10") }

// BenchmarkE11Discovery regenerates M12's self-discovery convergence table.
func BenchmarkE11Discovery(b *testing.B) { benchExperiment(b, "E11") }

// BenchmarkE12SearchSpace regenerates the Smart Dope 1e13-space table.
func BenchmarkE12SearchSpace(b *testing.B) { benchExperiment(b, "E12") }

// BenchmarkE13FaultTolerance regenerates the M2/M3 fault-tolerance table.
func BenchmarkE13FaultTolerance(b *testing.B) { benchExperiment(b, "E13") }

// BenchmarkE13aRetryBudget regenerates the retry-budget ablation.
func BenchmarkE13aRetryBudget(b *testing.B) { benchExperiment(b, "E13a") }

// BenchmarkE14Education regenerates the M13/M14 curriculum-outcomes table.
func BenchmarkE14Education(b *testing.B) { benchExperiment(b, "E14") }

// BenchmarkE15SchedSaturation regenerates the scheduler-saturation table.
func BenchmarkE15SchedSaturation(b *testing.B) { benchExperiment(b, "E15") }

// benchConcurrentCampaigns drives 200 concurrent campaigns across a 4-site
// federation through the scheduler at the given per-campaign parallelism,
// reporting wall time per full saturation run and virtual campaign
// throughput. This is the heavy-multi-tenant-traffic scenario from the
// roadmap's north star; the workload itself lives in
// experiments.RunSaturation, so these benchmarks time exactly the runs
// whose makespan and allocations contract_test.go pins.
func benchConcurrentCampaigns(b *testing.B, parallelism int, tr TraceOptions) {
	b.Helper()
	const nCamps = 200
	var camphSum float64
	for i := 0; i < b.N; i++ {
		res, err := experiments.RunSaturation(experiments.SaturationSpec{
			Seed:        uint64(42 + i),
			Campaigns:   nCamps,
			Budget:      6,
			Parallelism: parallelism,
			Trace:       tr,
		})
		if err != nil {
			b.Fatal(err)
		}
		camphSum += float64(nCamps) / ((res.Finish - res.Start).Seconds() / 3600)
	}
	b.ReportMetric(camphSum/float64(b.N), "vcampaigns/hr")
}

// BenchmarkSchedCampaignsP1 is the one-at-a-time baseline: 200 concurrent
// campaigns, each with one experiment in flight through the scheduler.
func BenchmarkSchedCampaignsP1(b *testing.B) { benchConcurrentCampaigns(b, 1, TraceOptions{}) }

// BenchmarkSchedCampaignsP4 keeps 4 experiments per campaign in flight.
// Tracing stays on its zero-value disabled path; TestContractMacroAllocations
// holds the same run's heap objects under a ceiling.
func BenchmarkSchedCampaignsP4(b *testing.B) { benchConcurrentCampaigns(b, 4, TraceOptions{}) }

// BenchmarkSchedCampaignsP4Traced is the same workload fully sampled: the
// delta against BenchmarkSchedCampaignsP4 is the whole cost of causal
// tracing (TestContractMakespanAndProfile holds the traced run to the
// untraced makespan).
func BenchmarkSchedCampaignsP4Traced(b *testing.B) {
	benchConcurrentCampaigns(b, 4, TraceOptions{Enabled: true})
}

// BenchmarkSchedCampaignsP16 keeps 16 experiments per campaign in flight
// (far past fleet capacity, exercising the fair-share queues under
// saturation).
func BenchmarkSchedCampaignsP16(b *testing.B) { benchConcurrentCampaigns(b, 16, TraceOptions{}) }
