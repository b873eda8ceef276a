// Package core assembles the AISLE network — the paper's primary
// contribution. A Network is a federation of Sites, each running the full
// per-institution stack (message broker, discovery registry, identity
// provider, data node, knowledge base, instrument fleet), wired together by
// the simulated WAN with zero-trust security and a federated data mesh.
//
// On top of the assembly, the campaign engine (campaign.go) runs the
// closed-loop autonomous-discovery workflows the roadmap describes:
// propose -> verify -> reserve -> execute -> ingest -> learn, spanning
// institutional boundaries.
package core

import (
	"fmt"

	"github.com/aisle-sim/aisle/internal/bus"
	"github.com/aisle-sim/aisle/internal/discovery"
	"github.com/aisle-sim/aisle/internal/fabric"
	"github.com/aisle-sim/aisle/internal/instrument"
	"github.com/aisle-sim/aisle/internal/knowledge"
	"github.com/aisle-sim/aisle/internal/netsim"
	"github.com/aisle-sim/aisle/internal/obs"
	"github.com/aisle-sim/aisle/internal/prof"
	"github.com/aisle-sim/aisle/internal/rng"
	"github.com/aisle-sim/aisle/internal/sched"
	"github.com/aisle-sim/aisle/internal/security"
	"github.com/aisle-sim/aisle/internal/sim"
	"github.com/aisle-sim/aisle/internal/telemetry"
	"github.com/aisle-sim/aisle/internal/trace"
	"github.com/aisle-sim/aisle/internal/workflow"
)

// Config assembles a federation.
type Config struct {
	// Seed drives every stochastic component.
	Seed uint64
	// Sites to create.
	Sites []netsim.SiteID
	// Link is the WAN template connecting every site pair.
	Link netsim.Link
	// ZeroTrust enables the security middleware on the bus.
	ZeroTrust bool
	// SharedKnowledge wires the knowledge federation for propagation.
	SharedKnowledge bool
	// Sched tunes the federation-wide experiment scheduler. The zero
	// value gets the scheduler defaults.
	Sched sched.Options
	// Trace enables causal tracing. The zero value keeps tracing off: the
	// network's Tracer stays nil and every instrumentation site reduces to
	// a pointer test.
	Trace trace.Options
	// Health enables the federation health engine: streaming SLO
	// evaluation with burn-rate alerting, the flight recorder, and
	// incident root-cause linking. The zero value keeps it off: the
	// network's Health stays nil and the scheduler observer is never wired.
	Health obs.Options
	// Prof enables the continuous spine profiler: instrumented regions in
	// the sim loop, netsim, bus, scheduler, telemetry, knowledge, and the
	// campaign decision path. The zero value keeps it off: the network's
	// Prof stays nil and every region costs a pointer test.
	Prof prof.Options
}

// gossipInterval is the federation's discovery anti-entropy period.
const gossipInterval = 60 * sim.Second

// DefaultLink is a realistic lab-to-lab WAN link: 15 ms propagation, 1 ms
// jitter, 1 Gbit/s, 0.1% loss.
func DefaultLink() netsim.Link {
	return netsim.Link{
		Latency:   15 * sim.Millisecond,
		Jitter:    sim.Millisecond,
		Bandwidth: 125e6,
		Loss:      0.001,
	}
}

// Site is one institution's full stack.
type Site struct {
	ID        netsim.SiteID
	Network   *Network
	Broker    *bus.Broker
	Registry  *discovery.Registry
	IdP       *security.IdentityProvider
	DataNode  *fabric.Node
	Knowledge *knowledge.Base
	Fleet     *instrument.Fleet

	// token managers for this site's service principals.
	orchestratorTM *security.TokenManager
}

// Network is the assembled AISLE federation.
type Network struct {
	Cfg       Config
	Eng       *sim.Engine
	Rnd       *rng.Stream
	Net       *netsim.Network
	Fabric    *bus.Fabric
	Directory *discovery.Directory
	Fed       *security.Federation
	Guard     *security.Guard
	Mesh      *fabric.Mesh
	Knowledge *knowledge.Federation
	Workflows *workflow.Engine
	// Metrics is the spine registry (Net.Metrics()): netsim, bus,
	// discovery, the data mesh, knowledge, the scheduler and core all
	// count into it.
	Metrics *telemetry.Registry
	Sched   *sched.Scheduler
	// Tracer records causal spans when Config.Trace enables it; nil (the
	// default) keeps every instrumentation site on its zero-cost path.
	Tracer *trace.Tracer
	// Health is the federation health engine when Config.Health enables
	// it; nil (the default) keeps every hook on its zero-cost path.
	Health *obs.Engine
	// Prof is the spine profiler when Config.Prof enables it; nil (the
	// default) keeps every instrumented region on its zero-cost path.
	Prof *prof.Profiler

	sites map[netsim.SiteID]*Site
}

// New assembles a federation from the config. The returned network is ready
// for instrument registration and campaigns; discovery gossip is started.
func New(cfg Config) *Network {
	if len(cfg.Sites) == 0 {
		panic("core: config needs at least one site")
	}
	eng := sim.NewEngine()
	rnd := rng.New(cfg.Seed)

	net := netsim.New(eng, rnd.Fork("net"))
	for _, s := range cfg.Sites {
		site := net.AddSite(s)
		// Inside the federation the firewalls admit the AISLE service
		// classes; zero trust below enforces per-message authentication.
		site.Firewall.Allow(netsim.Rule{Service: "bus"})
		site.Firewall.Allow(netsim.Rule{Service: "fabric"})
		site.Firewall.Allow(netsim.Rule{Service: "discovery"})
	}
	if len(cfg.Sites) > 1 {
		net.FullMesh(cfg.Sites, cfg.Link)
	}

	fab := bus.NewFabric(net)
	dir := discovery.NewDirectory(fab, cfg.Sites)
	// Federation-scale gossip: campaigns span virtual days, so gossip at
	// seconds granularity would dominate the event queue. Leases refresh on
	// every gossip exchange, so TTL rides the interval.
	dir.GossipInterval = gossipInterval
	dir.DefaultTTL = 10 * gossipInterval
	mesh := fabric.NewMesh(net)
	fed := security.NewFederation(eng)
	pdp := &security.PDP{}
	guard := &security.Guard{Fed: fed, PDP: pdp}
	know := knowledge.NewFederation(fab, cfg.Sites, cfg.SharedKnowledge)

	n := &Network{
		Cfg:       cfg,
		Eng:       eng,
		Rnd:       rnd,
		Net:       net,
		Fabric:    fab,
		Directory: dir,
		Fed:       fed,
		Guard:     guard,
		Mesh:      mesh,
		Knowledge: know,
		Workflows: workflow.NewEngine(eng),
		Metrics:   net.Metrics(),
		Tracer:    trace.New(cfg.Trace),
		Prof:      prof.New(cfg.Prof),
		sites:     make(map[netsim.SiteID]*Site),
	}

	// Spine profiler: every subsystem reaches it through the engine, and
	// the spine registry records its histograms under telemetry.record. The
	// profiler only reads the virtual clock and accumulates into its own
	// state, so the trajectory stays bit-identical.
	if n.Prof != nil {
		n.Prof.SetClock(func() int64 { return int64(eng.Now()) })
		eng.Prof = n.Prof
		n.Metrics.SetProfiler(n.Prof)
	}

	for _, id := range cfg.Sites {
		idp := security.NewIdentityProvider(eng, id, []byte("key-"+string(id)))
		// Service tokens renew at half TTL; minutes-scale TTL keeps
		// continuous authentication without flooding the event queue.
		idp.TokenTTL = 10 * sim.Minute
		fed.RegisterIdP(idp)
		s := &Site{
			ID:        id,
			Network:   n,
			Broker:    fab.Broker(id),
			Registry:  dir.Registry(id),
			IdP:       idp,
			DataNode:  mesh.AddNode(id),
			Knowledge: know.Base(id),
			Fleet:     instrument.NewFleet(),
		}
		n.sites[id] = s
	}
	fed.TrustAll(cfg.Sites)

	// The federation scheduler routes experiments across every site's
	// fleet; bindings give it each site's directory view, local fleet
	// state, and service credential.
	n.Sched = sched.New(eng, net, fab, n.Metrics, rnd.Fork("sched"), cfg.Sched)
	for _, id := range cfg.Sites {
		s := n.sites[id]
		n.Sched.AddSite(sched.SiteBinding{
			ID:       id,
			Registry: s.Registry,
			Fleet:    s.Fleet,
			Token: func() any {
				if tok := s.ServiceToken(); tok != nil {
					return tok
				}
				return nil
			},
		})
	}

	// Health engine: evaluate the default SLOs over the spine registry,
	// observe scheduler decisions, and start the SLO sampling ticker. The
	// engine only reads state, so the virtual trajectory is identical with
	// it on or off.
	if n.Health = obs.New(eng, n.Metrics, n.Tracer, cfg.Health); n.Health != nil {
		names := make([]string, len(cfg.Sites))
		for i, id := range cfg.Sites {
			names[i] = string(id)
		}
		for _, s := range obs.DefaultSLOs(names) {
			n.Health.AddSLO(s)
		}
		n.Sched.Observer = n.Health.ObserveDecision
		n.Health.Start()
	}

	if cfg.ZeroTrust {
		// Standing ABAC policy: orchestrator agents may call instruments
		// and services; data agents may publish.
		pdp.AddPolicy(security.Policy{
			Name: "orchestrators-call", Resource: "*", Action: "call",
			Conditions: []security.Condition{{Attr: "role", Op: security.OpIn, Value: "orchestrator,service"}},
		})
		pdp.AddPolicy(security.Policy{
			Name: "agents-publish", Resource: "*", Action: "publish",
			Conditions: []security.Condition{{Attr: "role", Op: security.OpIn, Value: "orchestrator,service,curator"}},
		})
		fab.Use(security.BusMiddleware(guard))
		// Every site gets a continuously-renewed service token used by its
		// infrastructure traffic (discovery gossip, knowledge propagation
		// ride the same middleware via the fabric's token source).
		for _, id := range cfg.Sites {
			s := n.sites[id]
			s.orchestratorTM = security.NewTokenManager(idpOf(n, id),
				security.Principal{ID: "orchestrator@" + string(id), Site: id,
					Attributes: map[string]string{"role": "orchestrator"}}, "")
		}
		fab.TokenSource = func(from bus.Address) any {
			if s := n.sites[from.Site]; s != nil && s.orchestratorTM != nil {
				return s.orchestratorTM.Token()
			}
			return nil
		}
	}

	dir.Start()
	return n
}

func idpOf(n *Network, id netsim.SiteID) *security.IdentityProvider {
	return n.sites[id].IdP
}

// Site returns a site's stack.
func (n *Network) Site(id netsim.SiteID) *Site { return n.sites[id] }

// Sites lists site IDs in config order.
func (n *Network) Sites() []netsim.SiteID { return append([]netsim.SiteID(nil), n.Cfg.Sites...) }

// ServiceToken returns a fresh token for cross-site calls from a site's
// orchestrator principal (nil when zero trust is off, which the bus treats
// as anonymous-allowed).
func (s *Site) ServiceToken() *security.Token {
	if s.orchestratorTM == nil {
		return nil
	}
	return s.orchestratorTM.Token()
}

// AddInstrument installs an instrument at the site: fleet registration, a
// bus endpoint ("instr/<id>") that executes commands, and a discovery
// record carrying the instrument's self-description.
func (s *Site) AddInstrument(in *instrument.Instrument) {
	d := in.Descriptor()
	s.Fleet.Add(in)

	endpoint := "instr/" + d.ID
	s.Broker.Register(endpoint, func(env *bus.Envelope, respond func(any, error)) {
		cmd, ok := env.Payload.(instrument.Command)
		if !ok {
			respond(nil, fmt.Errorf("core: bad payload for %s", endpoint))
			return
		}
		if cmd.Trace.Enabled() {
			// Traced path: the span covers the device queue plus the action.
			// Kept behind the branch so untraced commands share one closure
			// shape with no span state.
			eng := s.Network.Eng
			sp, cc := cmd.Trace.Start(eng.Now(), string(s.ID), trace.KindInstrument, d.ID)
			sp.SetStr("action", cmd.Action)
			in.Submit(cmd, func(res instrument.Result) {
				sp.SetAttr("quality", res.Quality)
				cc.Finish(&sp, eng.Now())
				respond(res, res.Err)
			})
			return
		}
		in.Submit(cmd, func(res instrument.Result) {
			respond(res, res.Err)
		})
	})

	caps := map[string]float64{}
	for k, v := range d.Capabilities {
		caps[k] = v
	}
	s.Registry.Register(discovery.Record{
		Instance:     string(s.ID) + "/" + d.ID,
		Type:         d.Kind,
		Addr:         bus.Address{Site: s.ID, Name: endpoint},
		Capabilities: caps,
		Text: map[string]string{
			"vendor": d.Vendor,
			"model":  d.ModelName,
		},
	})
	s.Network.Metrics.Counter("core.instruments").Inc()
}

// FindInstrument negotiates an instrument of the given kind visible from
// this site's registry, optionally requiring capability floors.
func (s *Site) FindInstrument(kind string, minCaps map[string]float64, prefer string) (discovery.Record, bool) {
	return s.Registry.Negotiate(discovery.Requirement{
		Type:    kind,
		MinCaps: minCaps,
		Prefer:  prefer,
	})
}

// RunInstrument invokes an instrument endpoint (possibly at another site)
// through the bus under the site's service credential. The timeout must
// cover queueing plus the action duration.
func (s *Site) RunInstrument(rec discovery.Record, cmd instrument.Command,
	timeout sim.Time, cb func(instrument.Result, error)) {

	s.Network.Fabric.Call(bus.CallOpts{
		From:    bus.Address{Site: s.ID, Name: "campaign"},
		To:      rec.Addr,
		Method:  "run",
		Payload: cmd,
		Token:   s.ServiceToken(),
		Size:    512,
		Timeout: timeout,
		Trace:   cmd.Trace,
	}, func(result any, err error) {
		if err != nil {
			cb(instrument.Result{}, err)
			return
		}
		res, ok := result.(instrument.Result)
		if !ok {
			cb(instrument.Result{}, fmt.Errorf("core: unexpected reply type %T", result))
			return
		}
		cb(res, nil)
	})
}

// Stop shuts background tickers down so the event queue can drain.
func (n *Network) Stop() {
	n.Directory.Stop()
	n.Sched.Stop()
	n.Health.Stop()
	for _, s := range n.sites {
		if s.orchestratorTM != nil {
			s.orchestratorTM.Stop()
		}
	}
}

// RunFor advances the simulation by d.
func (n *Network) RunFor(d sim.Time) error {
	return n.Eng.RunUntil(n.Eng.Now() + d)
}
