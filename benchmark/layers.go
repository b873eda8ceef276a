package main

import (
	"bytes"
	"fmt"
	"runtime"
	"runtime/pprof"
	"strings"
	"time"

	"github.com/aisle-sim/aisle/internal/bus"
	"github.com/aisle-sim/aisle/internal/core"
	"github.com/aisle-sim/aisle/internal/discovery"
	"github.com/aisle-sim/aisle/internal/instrument"
	"github.com/aisle-sim/aisle/internal/netsim"
	"github.com/aisle-sim/aisle/internal/optimize"
	"github.com/aisle-sim/aisle/internal/prof"
	"github.com/aisle-sim/aisle/internal/rng"
	"github.com/aisle-sim/aisle/internal/sched"
	"github.com/aisle-sim/aisle/internal/security"
	"github.com/aisle-sim/aisle/internal/sim"
	"github.com/aisle-sim/aisle/internal/telemetry"
	"github.com/aisle-sim/aisle/internal/twin"
)

// counters is one registry's counters, read once.
type counters map[string]int64

func countersOf(reg *telemetry.Registry) counters { return reg.Snapshot().Counters }

// sum adds a counter over its labelled series: name and name{...}.
func (c counters) sum(name string) float64 {
	var sum int64
	for k, v := range c {
		if k == name || strings.HasPrefix(k, name+"{") {
			sum += v
		}
	}
	return float64(sum)
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// readCounters reads the exact per-layer counters from the federation's
// public accessors after an iteration. sim.events_per_op is filled in by the
// caller, which knows the op count.
func readCounters(n *core.Network, injections, violations int) map[string]float64 {
	net, fab, dir := countersOf(n.Net.Metrics()), countersOf(n.Fabric.Metrics()), countersOf(n.Directory.Metrics())
	sec, know, fed := countersOf(n.Fed.Metrics()), countersOf(n.Knowledge.Metrics()), countersOf(n.Metrics)
	c := map[string]float64{
		"sim.events":                float64(n.Eng.Processed()),
		"netsim.sent":               net.sum("net.sent"),
		"netsim.delivered_share":    ratio(net.sum("net.delivered"), net.sum("net.sent")),
		"netsim.lost":               net.sum("net.lost"),
		"netsim.dropped":            net.sum("net.inflight_drops") + net.sum("net.link_down_drops") + net.sum("net.firewalled"),
		"bus.rpc_calls":             fab.sum("bus.rpc.calls"),
		"bus.rpc_retries":           fab.sum("bus.rpc.retries"),
		"bus.rpc_failures":          fab.sum("bus.rpc.failures"),
		"bus.pub_sent":              fab.sum("bus.pub.sent"),
		"bus.pub_redelivered":       fab.sum("bus.pub.redelivered"),
		"bus.dlq":                   fab.sum("bus.pub.dlq") + fab.sum("bus.queue.dlq"),
		"discovery.gossip_rounds":   dir.sum("discovery.gossip_rounds"),
		"discovery.merged_records":  dir.sum("discovery.merged_records"),
		"discovery.gossip_failures": dir.sum("discovery.gossip_failures"),
		"security.checks":           sec.sum("security.checks"),
		"security.authn_failures":   sec.sum("security.authn_failures"),
		"sched.submitted":           fed.sum("sched.submitted"),
		"sched.dispatched":          fed.sum("sched.dispatched"),
		"sched.remote_share":        ratio(fed.sum("sched.remote_dispatches"), fed.sum("sched.dispatched")),
		"sched.steals":              fed.sum("sched.steals"),
		"sched.retries":             fed.sum("sched.retries"),
		"sched.requeues":            fed.sum("sched.requeues"),
		"sched.failures":            fed.sum("sched.failures"),
		"knowledge.added":           know.sum("knowledge.added"),
		"knowledge.merged":          know.sum("knowledge.merged"),
		"knowledge.conflicts":       know.sum("knowledge.conflicts"),
		"obs.alerts":                float64(len(n.Health.Alerts())),
		"obs.snapshots":             float64(len(n.Health.Snapshots())),
		"chaos.injections":          float64(injections),
		"chaos.violations":          float64(violations),
	}
	for _, id := range n.Sites() {
		fleet := n.Site(id).Fleet
		for _, iid := range fleet.IDs() {
			if in, ok := fleet.Get(iid); ok {
				c["instrument.completed"] += float64(in.Completed())
				c["instrument.failures"] += float64(in.Failures())
			}
		}
	}
	return c
}

// regionMetrics turns the spine profiler's deterministic call counts into
// the region family. No wall number is taken from the profiler.
func regionMetrics(p *prof.Profile, dispatched float64) map[string]float64 {
	calls := map[string]float64{}
	if p != nil {
		for _, s := range p.Sites {
			calls[s.Site] = float64(s.Count)
		}
	}
	return map[string]float64{
		"sched.route_calls":        calls["sched.route"],
		"sched.route_per_dispatch": ratio(calls["sched.route"], dispatched),
		"bus.dispatch_calls":       calls["bus.dispatch"],
		"core.decide_calls":        calls["core.decide"],
		"telemetry.record_calls":   calls["telemetry.record"],
	}
}

// cpuProfileHz is the in-situ sampling rate: five times pprof's default, so
// a 3 s iteration yields thousands of samples.
const cpuProfileHz = 500

// profiled runs fn under runtime/pprof and returns the per-layer shares.
func profiled(fn func() error) (map[string]float64, int64, error) {
	var buf bytes.Buffer
	// StartCPUProfile insists on 100 Hz unless a rate is already set; setting
	// it first makes the runtime print one harmless "cannot set cpu profile
	// rate" line to stderr.
	runtime.SetCPUProfileRate(cpuProfileHz)
	if err := pprof.StartCPUProfile(&buf); err != nil {
		return nil, 0, err
	}
	err := fn()
	pprof.StopCPUProfile()
	if err != nil {
		return nil, 0, err
	}
	p, err := parseCPUProfile(buf.Bytes())
	if err != nil {
		return nil, 0, err
	}
	shares, total := p.attribute(cpuLayers)
	return shares, total, nil
}

// ---- layer probes: direct calls into each layer's public functions ----

// probeSizes are the workload parameters the probes are sized from.
type probeSizes struct {
	sites        int // federation width
	reactors     int // flow reactors per site: the records a browse visits
	observations int // campaign budget: the GP size a decision sees
	shrink       int // divides the probes' repeat counts (smoke test)
}

// probes times each layer in isolation and returns the probe family.
func probes(ps probeSizes, seed uint64, spans *spanLog) map[string]float64 {
	out := map[string]float64{}
	sites := siteNames(ps.sites)
	per := func(name string, unit time.Duration, ops int, fn func()) {
		d := spans.timed(name, "probes", 0, fn)
		out[name] = float64(d) / float64(unit) / float64(ops)
	}
	start := time.Now()

	events := 200000 / ps.shrink
	per("sim.probe_ns_per_event", time.Nanosecond, events, func() {
		eng := sim.NewEngine()
		r := rng.New(seed).Fork("probe-sim")
		fired := 0
		fire := func(any) { fired++ }
		for i := 0; i < events; i++ {
			eng.ScheduleArg(sim.Time(r.Intn(int(sim.Second))), fire, nil)
		}
		_ = eng.Run()
	})

	// One spine for the netsim and bus probes: the workload's sites on a
	// lossless default link, so every message is one delivery.
	link := core.DefaultLink()
	link.Loss = 0
	spine := func() (*sim.Engine, *netsim.Network) {
		eng := sim.NewEngine()
		net := netsim.New(eng, rng.New(seed).Fork("probe-net"))
		for _, id := range sites {
			net.AddSite(id).Firewall.AllowAll()
		}
		net.FullMesh(sites, link)
		return eng, net
	}
	pair := func(i int) (netsim.SiteID, netsim.SiteID) {
		return sites[i%len(sites)], sites[(i+1)%len(sites)]
	}

	msgs := 50000 / ps.shrink
	per("netsim.probe_ns_per_msg", time.Nanosecond, msgs, func() {
		eng, net := spine()
		got := 0
		deliver := func(netsim.Message) { got++ }
		for i := 0; i < msgs; i++ {
			from, to := pair(i)
			_ = net.Send(netsim.Message{From: from, To: to, Service: "bus", Size: 512}, deliver)
		}
		_ = eng.Run()
	})
	per("bus.probe_ns_per_rpc", time.Nanosecond, msgs, func() {
		eng, net := spine()
		fab := bus.NewFabric(net)
		for _, id := range sites {
			fab.Broker(id).RegisterFunc("echo", 0, func(env *bus.Envelope) (any, error) { return nil, nil })
		}
		done := func(any, error) {}
		for i := 0; i < msgs; i++ {
			from, to := pair(i)
			fab.Call(bus.CallOpts{From: bus.Address{Site: from, Name: "probe"},
				To: bus.Address{Site: to, Name: "echo"}, Method: "echo", Size: 512}, done)
		}
		_ = eng.Run()
	})
	per("bus.probe_ns_per_pub", time.Nanosecond, msgs, func() {
		eng, net := spine()
		fab := bus.NewFabric(net)
		got := 0
		for _, id := range sites {
			fab.Subscribe(bus.Address{Site: id, Name: "sub"}, "probe", bus.AtLeastOnce, func(*bus.Envelope) { got++ })
		}
		for i := 0; i < msgs/len(sites)+1; i++ {
			from, _ := pair(i)
			fab.Publish(bus.PublishOpts{From: bus.Address{Site: from, Name: "probe"}, Topic: "probe",
				Size: 256, QoS: bus.AtLeastOnce})
		}
		_ = eng.Run()
	})

	// A converged federation of the workload's width for the discovery,
	// sched and security probes.
	n := core.New(core.Config{Seed: seed, Sites: sites, Link: link, ZeroTrust: true})
	for _, id := range sites {
		for k := 0; k < ps.reactors; k++ {
			n.Site(id).AddInstrument(instrument.NewFluidicReactor(n.Eng, n.Rnd,
				fmt.Sprintf("flow-%d-%s", k, id), string(id), twin.Perovskite{}))
		}
	}
	_ = n.RunFor(3 * sim.Minute)

	browses := 20000 / ps.shrink
	per("discovery.probe_ns_per_browse", time.Nanosecond, browses, func() {
		reg, seen := n.Site(sites[0]).Registry, 0
		for i := 0; i < browses; i++ {
			reg.BrowseFunc(instrument.KindFlowReactor, func(*discovery.Record) bool { seen++; return true })
		}
	})

	checks := 20000 / ps.shrink
	toks := make([]*security.Token, checks)
	idp := n.Site(sites[0]).IdP
	who := security.Principal{ID: "probe@" + string(sites[0]), Site: sites[0],
		Attributes: map[string]string{"role": "orchestrator"}}
	for i := range toks {
		toks[i] = idp.Issue(who, "")
	}
	at := sites[len(sites)-1]
	per("security.probe_ns_per_check", time.Nanosecond, checks, func() {
		for _, t := range toks {
			_ = n.Guard.Check(at, t, "call", "instr/probe")
		}
	})

	// Saturation: many times the fleet's dispatch capacity queued at once.
	jobs := 64 * ps.sites / ps.shrink
	if ps.reactors == 0 {
		jobs = 0
	}
	if jobs > 0 {
		per("sched.probe_us_per_job", time.Microsecond, jobs, func() {
			r := rng.New(seed).Fork("probe-sched")
			space, done := twin.Perovskite{}.Space(), 0
			for i := 0; i < jobs; i++ {
				n.Sched.Submit(sched.Job{Tenant: "probe", Origin: sites[i%len(sites)], Kind: instrument.KindFlowReactor,
					Cmd: instrument.Command{Action: "synthesize", Params: space.Sample(r), SampleID: fmt.Sprintf("probe-%d", i)},
				}, func(instrument.Result, error) { done++ })
			}
			for done < jobs && n.Eng.Now() < 30*sim.Day {
				_ = n.RunFor(sim.Hour)
			}
		})
	}
	n.Stop()

	if ps.observations > 0 {
		model := twin.Perovskite{}
		opt := optimize.NewBayes(model.Space(), rng.New(seed).Fork("probe-opt"), optimize.BayesOpts{})
		half := ps.observations / 2
		if half < 2 {
			half = 2
		}
		per("optimize.probe_us_per_tell", time.Microsecond, half, func() {
			for i := 0; i < half; i++ {
				p := opt.Ask()
				opt.Tell(p, model.Eval(p)[model.Objective()])
			}
		})
		const asks = 20
		per("optimize.probe_ms_per_ask", time.Millisecond, asks, func() {
			for i := 0; i < asks; i++ {
				opt.AskBatch(4, nil)
			}
		})
	}

	obsN := 200 / ps.shrink
	kn := core.New(core.Config{Seed: seed, Sites: sites, Link: link, SharedKnowledge: true})
	merges := obsN * (len(sites) - 1)
	per("knowledge.probe_ns_per_merge", time.Nanosecond, merges, func() {
		r := rng.New(seed).Fork("probe-know")
		space := twin.Perovskite{}.Space()
		for i := 0; i < obsN; i++ {
			kn.Site(sites[i%len(sites)]).Knowledge.AddObservation("perovskite", space.Sample(r), r.Float64())
		}
		_ = kn.RunFor(sim.Minute)
	})
	kn.Stop()

	observes := 500000 / ps.shrink
	per("telemetry.probe_ns_per_observe", time.Nanosecond, observes, func() {
		h := telemetry.NewRegistry().Histogram("probe")
		for i := 0; i < observes; i++ {
			h.Observe(float64(i%1000) * 1e-3)
		}
	})

	spans.add("probes", "", 0, start, time.Now(), 0)
	return out
}
