package core

import (
	"errors"
	"fmt"
	"testing"

	"github.com/aisle-sim/aisle/internal/bus"
	"github.com/aisle-sim/aisle/internal/discovery"
	"github.com/aisle-sim/aisle/internal/instrument"
	"github.com/aisle-sim/aisle/internal/netsim"
	"github.com/aisle-sim/aisle/internal/obs"
	"github.com/aisle-sim/aisle/internal/sim"
	"github.com/aisle-sim/aisle/internal/telemetry"
	"github.com/aisle-sim/aisle/internal/twin"
)

var threeSites = []netsim.SiteID{"ornl", "anl", "slac"}

// waitDiscovery advances the simulation through a few gossip rounds so
// instrument records propagate federation-wide.
func waitDiscovery(t *testing.T, n *Network) {
	t.Helper()
	if err := n.RunFor(3 * sim.Minute); err != nil {
		t.Fatal(err)
	}
}

// runUntilReport advances the simulation in six-hour chunks until the
// campaign reports or the horizon passes, keeping background tickers from
// dominating the event budget.
func runUntilReport(t *testing.T, n *Network, rep **CampaignReport, horizon sim.Time) {
	t.Helper()
	deadline := n.Eng.Now() + horizon
	for *rep == nil && n.Eng.Now() < deadline {
		if err := n.RunFor(6 * sim.Hour); err != nil {
			t.Fatal(err)
		}
	}
}

// buildTestbed assembles a 3-site federation with a fluidic reactor and
// spectrometer at each site.
func buildTestbed(t *testing.T, seed uint64, zeroTrust, sharedKnowledge bool) *Network {
	t.Helper()
	n := New(Config{
		Seed:            seed,
		Sites:           threeSites,
		Link:            DefaultLink(),
		ZeroTrust:       zeroTrust,
		SharedKnowledge: sharedKnowledge,
	})
	for _, id := range threeSites {
		s := n.Site(id)
		s.AddInstrument(instrument.NewFluidicReactor(n.Eng, n.Rnd, "flow-"+string(id), string(id), twin.Perovskite{}))
		s.AddInstrument(instrument.NewSpectrometer(n.Eng, n.Rnd, "spec-"+string(id), string(id)))
	}
	return n
}

func TestNetworkAssembly(t *testing.T) {
	n := buildTestbed(t, 1, true, true)
	defer n.Stop()
	if len(n.Sites()) != 3 {
		t.Fatalf("sites = %v", n.Sites())
	}
	s := n.Site("ornl")
	if s.Broker == nil || s.Registry == nil || s.IdP == nil || s.DataNode == nil ||
		s.Knowledge == nil || s.Fleet == nil {
		t.Fatal("site stack incomplete")
	}
	if got := s.Fleet.IDs(); len(got) != 2 {
		t.Fatalf("fleet = %v", got)
	}
	if tok := s.ServiceToken(); tok == nil {
		t.Fatal("zero-trust site missing service token")
	}
}

// TestHealthSeesEverySpineSubsystem: the spine subsystems count into one
// registry, so an SLO over any of their counters reads live values — here
// discovery gossip rounds against bus RPC failures, neither of which the
// scheduler or core emits.
func TestHealthSeesEverySpineSubsystem(t *testing.T) {
	n := New(Config{Seed: 4, Sites: threeSites, Link: DefaultLink(),
		Health: obs.Options{Enabled: true}})
	defer n.Stop()
	for i, reg := range []*telemetry.Registry{n.Net.Metrics(), n.Fabric.Metrics(),
		n.Directory.Metrics(), n.Knowledge.Metrics(), n.Mesh.Metrics()} {
		if reg != n.Metrics {
			t.Fatalf("registry %d of Net, Fabric, Directory, Knowledge, Mesh is not n.Metrics", i)
		}
	}
	n.Health.AddSLO(obs.SLO{Name: "gossip", Metric: obs.Metric{
		Good: []string{"discovery.gossip_rounds"}, Bad: []string{"bus.rpc.failures"}}})
	if err := n.RunFor(5 * sim.Minute); err != nil {
		t.Fatal(err)
	}
	var st *obs.SLOStatus
	statuses := n.Health.Statuses()
	for i := range statuses {
		if statuses[i].Name == "gossip" {
			st = &statuses[i]
		}
	}
	if st == nil || st.Total <= 0 {
		t.Fatalf("gossip SLO status = %+v, want a positive total", st)
	}
}

func TestDiscoveryPropagatesInstruments(t *testing.T) {
	n := buildTestbed(t, 2, false, false)
	defer n.Stop()
	waitDiscovery(t, n)
	// slac's registry should see ornl's reactor after gossip.
	recs := n.Site("slac").Registry.Browse(instrument.KindFlowReactor)
	if len(recs) != 3 {
		t.Fatalf("slac sees %d flow reactors, want 3", len(recs))
	}
}

func TestRunInstrumentCrossSite(t *testing.T) {
	n := buildTestbed(t, 3, true, false)
	defer n.Stop()
	waitDiscovery(t, n)
	s := n.Site("ornl")
	rec, ok := s.Registry.Resolve("anl/flow-anl")
	if !ok {
		t.Fatal("remote instrument not discovered")
	}
	var got instrument.Result
	var gotErr error
	done := false
	s.RunInstrument(rec, instrument.Command{
		Action: "synthesize",
		Params: map[string]float64{"temperature": 150, "halide_ratio": 0.5, "residence_s": 60, "ligand_mM": 15},
	}, time48h(), func(res instrument.Result, err error) {
		got, gotErr, done = res, err, true
	})
	if err := n.RunFor(sim.Hour); err != nil {
		t.Fatal(err)
	}
	if !done {
		t.Fatal("cross-site instrument call never completed")
	}
	if gotErr != nil {
		t.Fatal(gotErr)
	}
	if got.Values["plqy"] <= 0 {
		t.Fatalf("no measurement: %+v", got.Values)
	}
}

func time48h() sim.Time { return 48 * sim.Hour }

func TestCampaignAgentVerifiedCompletes(t *testing.T) {
	n := buildTestbed(t, 4, true, true)
	defer n.Stop()
	waitDiscovery(t, n)
	var rep *CampaignReport
	n.RunCampaign(CampaignConfig{
		Name: "c1", Site: "ornl", Model: twin.Perovskite{},
		Budget: 20, Mode: OrchAgentVerified,
		SynthKind: instrument.KindFlowReactor, UseKnowledge: true,
	}, func(r *CampaignReport) { rep = r })
	runUntilReport(t, n, &rep, 30*sim.Day)
	if rep == nil {
		t.Fatal("campaign never finished")
	}
	if rep.Err != nil {
		t.Fatal(rep.Err)
	}
	if rep.Executed != 20 {
		t.Fatalf("executed = %d", rep.Executed)
	}
	if rep.BestValue <= 0.1 {
		t.Fatalf("best = %v, optimizer made no progress", rep.BestValue)
	}
	if rep.Correctness() < 0.9 {
		t.Fatalf("verified correctness = %v", rep.Correctness())
	}
	if rep.Traces != 20 {
		t.Fatalf("traces = %d", rep.Traces)
	}
}

func TestCampaignManualSlowerThanAgent(t *testing.T) {
	runOne := func(mode Orchestration, seed uint64) *CampaignReport {
		n := buildTestbed(t, seed, false, false)
		defer n.Stop()
		waitDiscovery(t, n)
		var rep *CampaignReport
		n.RunCampaign(CampaignConfig{
			Name: "speed", Site: "ornl", Model: twin.Perovskite{},
			Budget: 12, Mode: mode, SynthKind: instrument.KindFlowReactor,
		}, func(r *CampaignReport) { rep = r })
		runUntilReport(t, n, &rep, 90*sim.Day)
		if rep == nil || rep.Err != nil {
			t.Fatalf("campaign failed: %+v", rep)
		}
		return rep
	}
	manual := runOne(OrchManual, 5)
	agent := runOne(OrchAgentVerified, 5)
	ratio := float64(manual.Makespan()) / float64(agent.Makespan())
	if ratio < 3 {
		t.Fatalf("manual/agent makespan ratio = %.2f, want >= 3 (M8)", ratio)
	}
}

func TestCampaignKnowledgeReuseAcrossSites(t *testing.T) {
	n := buildTestbed(t, 6, false, true)
	defer n.Stop()
	waitDiscovery(t, n)
	// First campaign at ornl gathers knowledge.
	var rep1 *CampaignReport
	n.RunCampaign(CampaignConfig{
		Name: "donor", Site: "ornl", Model: twin.Perovskite{},
		Budget: 15, Mode: OrchAgentVerified,
		SynthKind: instrument.KindFlowReactor, UseKnowledge: true,
	}, func(r *CampaignReport) { rep1 = r })
	runUntilReport(t, n, &rep1, 30*sim.Day)
	if rep1 == nil || rep1.Err != nil {
		t.Fatalf("donor failed: %+v", rep1)
	}
	// anl's base should have received observations.
	pts, _ := n.Site("anl").Knowledge.Observations("perovskite")
	if len(pts) == 0 {
		t.Fatal("knowledge did not propagate to anl")
	}
	// Second campaign at anl starts warm.
	var rep2 *CampaignReport
	n.RunCampaign(CampaignConfig{
		Name: "warm", Site: "anl", Model: twin.Perovskite{},
		Budget: 10, Mode: OrchAgentVerified,
		SynthKind: instrument.KindFlowReactor, UseKnowledge: true,
	}, func(r *CampaignReport) { rep2 = r })
	runUntilReport(t, n, &rep2, 60*sim.Day)
	if rep2 == nil || rep2.Err != nil {
		t.Fatalf("warm campaign failed: %+v", rep2)
	}
	if rep2.BestValue < rep1.BestValue*0.8 {
		t.Fatalf("warm campaign best %v should approach donor best %v", rep2.BestValue, rep1.BestValue)
	}
}

func TestCampaignTargetStopsEarly(t *testing.T) {
	n := buildTestbed(t, 7, false, false)
	defer n.Stop()
	waitDiscovery(t, n)
	var rep *CampaignReport
	n.RunCampaign(CampaignConfig{
		Name: "target", Site: "ornl", Model: twin.Perovskite{},
		Budget: 200, Target: 0.3, Mode: OrchAgentVerified,
		SynthKind: instrument.KindFlowReactor,
	}, func(r *CampaignReport) { rep = r })
	runUntilReport(t, n, &rep, 120*sim.Day)
	if rep == nil {
		t.Fatal("campaign never finished")
	}
	if rep.BestValue < 0.3 {
		t.Fatalf("stopped below target: %v", rep.BestValue)
	}
	if rep.Executed >= 200 {
		t.Fatal("campaign did not stop early despite reaching target")
	}
}

// checkNoInstrumentError runs a campaign whose synthesis kind no site
// offers and requires it to report ErrNoInstrument.
func checkNoInstrumentError(t *testing.T, seed uint64, par int) {
	t.Helper()
	n := buildTestbed(t, seed, false, false)
	defer n.Stop()
	waitDiscovery(t, n)
	var rep *CampaignReport
	n.RunCampaign(CampaignConfig{
		Name: "ghost", Site: "ornl", Model: twin.Perovskite{},
		Budget: 5, Mode: OrchAgentVerified, SynthKind: "_ghost._aisle",
		Parallelism: par,
	}, func(r *CampaignReport) { rep = r })
	if err := n.RunFor(sim.Day); err != nil {
		t.Fatal(err)
	}
	if rep == nil {
		t.Fatalf("P%d: campaign never reported", par)
	}
	if !errors.Is(rep.Err, ErrNoInstrument) {
		t.Fatalf("P%d: err = %v, want ErrNoInstrument", par, rep.Err)
	}
}

func TestCampaignNoInstrumentErrorSerial(t *testing.T) {
	checkNoInstrumentError(t, 30, 0)
	checkNoInstrumentError(t, 30, 1)
}

func TestCampaignNoInstrumentErrorParallel(t *testing.T) {
	checkNoInstrumentError(t, 31, 4)
}

// TestSerialCampaignsSpreadAcrossFleet runs one-at-a-time campaigns on a
// fleet with spare capacity. Every experiment goes through the scheduler,
// so the campaigns spread over every reactor instead of all negotiating
// the same best-throughput instrument.
func TestSerialCampaignsSpreadAcrossFleet(t *testing.T) {
	sites := []netsim.SiteID{"s0", "s1", "s2", "s3"}
	n := New(Config{Seed: 35, Sites: sites, Link: DefaultLink()})
	defer n.Stop()
	var reactors []*instrument.Instrument
	for _, id := range sites {
		for k := 0; k < 2; k++ {
			in := instrument.NewFluidicReactor(n.Eng, n.Rnd, fmt.Sprintf("flow-%s-%d", id, k), string(id), twin.Perovskite{})
			n.Site(id).AddInstrument(in)
			reactors = append(reactors, in)
		}
	}
	waitDiscovery(t, n)
	const campaigns = 8
	done, executed := 0, 0
	for c := 0; c < campaigns; c++ {
		n.RunCampaign(CampaignConfig{
			Name: fmt.Sprintf("serial-%d", c), Site: sites[c%len(sites)], Model: twin.Perovskite{},
			Budget: 4, Mode: OrchAgentVerified, SynthKind: instrument.KindFlowReactor,
			Parallelism: 1,
		}, func(r *CampaignReport) {
			if r.Err != nil {
				t.Errorf("%s: %v", r.Name, r.Err)
			}
			done++
			executed += r.Executed
		})
	}
	for deadline := n.Eng.Now() + 30*sim.Day; done < campaigns && n.Eng.Now() < deadline; {
		if err := n.RunFor(6 * sim.Hour); err != nil {
			t.Fatal(err)
		}
	}
	if done != campaigns {
		t.Fatalf("%d of %d campaigns finished", done, campaigns)
	}
	for _, in := range reactors {
		if in.Completed() == 0 {
			t.Errorf("%s ran no experiment", in.Descriptor().ID)
		}
	}
	if got := n.Metrics.Counter("sched.dispatched").Value(); got != int64(executed) {
		t.Errorf("sched.dispatched = %d, want %d (every executed experiment)", got, executed)
	}
}

func TestFindInstrumentFiltering(t *testing.T) {
	n := buildTestbed(t, 32, false, false)
	defer n.Stop()
	s := n.Site("ornl")
	// Two records of one kind with different capability levels exercise
	// both the floor filter and the preference maximization.
	for name, speed := range map[string]float64{"slow": 5, "fast": 50} {
		s.Registry.Register(discovery.Record{
			Instance:     "ornl/" + name,
			Type:         "_probe._aisle",
			Addr:         bus.Address{Site: "ornl", Name: "instr/" + name},
			Capabilities: map[string]float64{"speed": speed},
		})
	}

	if _, ok := s.FindInstrument("_probe._aisle", map[string]float64{"speed": 100}, ""); ok {
		t.Fatal("capability floor above every instrument must not match")
	}
	rec, ok := s.FindInstrument("_probe._aisle", map[string]float64{"speed": 10}, "")
	if !ok || rec.Instance != "ornl/fast" {
		t.Fatalf("floor 10 matched %v (%v), want ornl/fast", rec.Instance, ok)
	}
	rec, ok = s.FindInstrument("_probe._aisle", nil, "speed")
	if !ok || rec.Instance != "ornl/fast" {
		t.Fatalf("prefer=speed picked %v, want ornl/fast", rec.Instance)
	}
	if _, ok := s.FindInstrument("_nothere._aisle", nil, ""); ok {
		t.Fatal("unknown kind must not match")
	}
}

func TestCampaignParallelCompletesBudget(t *testing.T) {
	n := buildTestbed(t, 33, true, true)
	defer n.Stop()
	waitDiscovery(t, n)
	var rep *CampaignReport
	n.RunCampaign(CampaignConfig{
		Name: "par", Site: "ornl", Model: twin.Perovskite{},
		Budget: 20, Mode: OrchAgentVerified,
		SynthKind: instrument.KindFlowReactor, UseKnowledge: true,
		Parallelism: 4,
	}, func(r *CampaignReport) { rep = r })
	runUntilReport(t, n, &rep, 30*sim.Day)
	if rep == nil {
		t.Fatal("parallel campaign never finished")
	}
	if rep.Err != nil {
		t.Fatal(rep.Err)
	}
	if rep.Executed != 20 {
		t.Fatalf("executed = %d, want exactly the budget", rep.Executed)
	}
	if rep.BestValue <= 0.1 {
		t.Fatalf("best = %v, optimizer made no progress", rep.BestValue)
	}
	if n.Sched.InFlight() != 0 || n.Sched.QueueDepth() != 0 {
		t.Fatalf("scheduler not drained: %d in flight, %d queued",
			n.Sched.InFlight(), n.Sched.QueueDepth())
	}
}

func TestCampaignParallelFasterThanSerial(t *testing.T) {
	runOne := func(par int) *CampaignReport {
		n := buildTestbed(t, 34, false, false)
		defer n.Stop()
		waitDiscovery(t, n)
		var rep *CampaignReport
		n.RunCampaign(CampaignConfig{
			Name: "pipeline", Site: "ornl", Model: twin.Perovskite{},
			Budget: 12, Mode: OrchAgentVerified,
			SynthKind: instrument.KindFlowReactor, Parallelism: par,
		}, func(r *CampaignReport) { rep = r })
		runUntilReport(t, n, &rep, 30*sim.Day)
		if rep == nil || rep.Err != nil {
			t.Fatalf("campaign (par=%d) failed: %+v", par, rep)
		}
		return rep
	}
	serial := runOne(1)
	batched := runOne(8)
	ratio := float64(serial.Makespan()) / float64(batched.Makespan())
	if ratio < 2 {
		t.Fatalf("parallel speedup = %.2fx (serial %v vs batched %v), want >= 2x",
			ratio, serial.Makespan(), batched.Makespan())
	}
}

func TestCampaignUnknownKind(t *testing.T) {
	n := buildTestbed(t, 8, false, false)
	defer n.Stop()
	var rep *CampaignReport
	n.RunCampaign(CampaignConfig{
		Name: "bad", Site: "ornl", Model: twin.Perovskite{},
		Budget: 5, Mode: OrchAgentVerified, SynthKind: "_ghost._aisle",
	}, func(r *CampaignReport) { rep = r })
	if err := n.RunFor(sim.Day); err != nil {
		t.Fatal(err)
	}
	if rep == nil || rep.Err == nil {
		t.Fatal("campaign with no instruments should fail")
	}
}

func TestCampaignWithCharacterization(t *testing.T) {
	n := buildTestbed(t, 9, false, false)
	defer n.Stop()
	waitDiscovery(t, n)
	var plain, withChar *CampaignReport
	n.RunCampaign(CampaignConfig{
		Name: "plain", Site: "ornl", Model: twin.Perovskite{},
		Budget: 8, Mode: OrchAgentVerified, SynthKind: instrument.KindFlowReactor,
	}, func(r *CampaignReport) { plain = r })
	runUntilReport(t, n, &plain, 10*sim.Day)
	n.RunCampaign(CampaignConfig{
		Name: "char", Site: "ornl", Model: twin.Perovskite{},
		Budget: 8, Mode: OrchAgentVerified, SynthKind: instrument.KindFlowReactor,
		CharacterizeKind: instrument.KindSpectrometer,
	}, func(r *CampaignReport) { withChar = r })
	runUntilReport(t, n, &withChar, 20*sim.Day)
	if plain == nil || withChar == nil {
		t.Fatal("campaigns incomplete")
	}
	if withChar.InstrumentTime <= plain.InstrumentTime {
		t.Fatal("characterization should add instrument time")
	}
}

// Sample IDs keep the "%s-%04d" form the traces and golden exports carry,
// past the four-digit padding too.
func TestSampleIDMatchesSprintf(t *testing.T) {
	c := &campaign{cfg: CampaignConfig{Name: "bench-007"}}
	for _, seq := range []int{0, 7, 42, 999, 1000, 9999, 10000, 123456} {
		if got, want := c.sampleID(seq), fmt.Sprintf("%s-%04d", c.cfg.Name, seq); got != want {
			t.Errorf("sampleID(%d) = %q, want %q", seq, got, want)
		}
	}
}
