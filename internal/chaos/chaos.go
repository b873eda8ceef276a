package chaos

import (
	"github.com/aisle-sim/aisle/internal/bus"
	"github.com/aisle-sim/aisle/internal/core"
	"github.com/aisle-sim/aisle/internal/instrument"
	"github.com/aisle-sim/aisle/internal/netsim"
	"github.com/aisle-sim/aisle/internal/obs"
	"github.com/aisle-sim/aisle/internal/security"
	"github.com/aisle-sim/aisle/internal/sim"
	"github.com/aisle-sim/aisle/internal/telemetry"
	"github.com/aisle-sim/aisle/internal/trace"
)

// Target is the set of federation handles the injector drives. Optional
// hooks (SetBadCreds, Poison) gate the fault kinds that need them: an event
// whose hook is absent is counted as skipped rather than failing the run.
type Target struct {
	// Net is the federation network; its engine schedules the fault
	// windows and its registry receives chaos.injections{kind} counters.
	Net *netsim.Network
	// Fleets maps each site to its instrument fleet, for outage/degrade.
	Fleets map[netsim.SiteID]*instrument.Fleet
	// Sites is the full federation membership, for partition peer sets.
	Sites []netsim.SiteID
	// Tracer, when non-nil, records one chaos.inject span per window.
	Tracer *trace.Tracer
	// SetBadCreds flips a site into (or out of) presenting forged
	// credentials. Required for KindBadCreds events.
	SetBadCreds func(site netsim.SiteID, bad bool)
	// Poison publishes one out-of-bounds insight from the site. Required
	// for KindByzantine events.
	Poison func(site netsim.SiteID)
	// Observe, when non-nil, is told about every applied fault window —
	// the health engine's root-cause linker keys incident attribution off
	// this stream. Skipped (hook-less) events are not reported.
	Observe func(ev Event, start, end sim.Time)
}

// Bind derives a Target from a core federation, wiring the bad-creds hook
// into the fabric's TokenSource: while a site is marked bad, every token the
// infrastructure supplies for its outbound traffic (knowledge publishes,
// discovery gossip) carries a garbage signature, so zero-trust verification
// rejects it downstream. Scheduler dispatch credentials come from per-site
// bindings fixed at construction and are not intercepted — bad-creds chaos
// targets the data plane, not the control plane.
func Bind(n *core.Network) Target {
	fleets := make(map[netsim.SiteID]*instrument.Fleet)
	for _, id := range n.Sites() {
		fleets[id] = n.Site(id).Fleet
	}
	tgt := Target{
		Net:    n.Net,
		Fleets: fleets,
		Sites:  n.Sites(),
		Tracer: n.Tracer,
	}
	if h := n.Health; h != nil {
		tgt.Observe = func(ev Event, start, end sim.Time) {
			h.ObserveFault(obs.FaultWindow{
				Kind:  string(ev.Kind),
				Site:  string(ev.Site),
				Start: start,
				End:   end,
			})
		}
	}
	if orig := n.Fabric.TokenSource; orig != nil {
		// Per site: whether its credentials are bad, and the forgery of the
		// last original token seen. A TokenManager hands out the same *Token
		// until it renews, so one forgery serves every envelope of a window
		// until the original pointer changes.
		type creds struct {
			bad        bool
			of, forged *security.Token
		}
		sites := make(map[netsim.SiteID]creds)
		n.Fabric.TokenSource = func(from bus.Address) any {
			tok := orig(from)
			if c := sites[from.Site]; c.bad {
				if t, ok := tok.(*security.Token); ok {
					if c.of != t {
						forged := *t
						forged.Sig = []byte("chaos-forged")
						c.of, c.forged = t, &forged
						sites[from.Site] = c
					}
					return c.forged
				}
			}
			return tok
		}
		tgt.SetBadCreds = func(site netsim.SiteID, b bool) {
			c := sites[site]
			c.bad = b
			sites[site] = c
		}
	}
	return tgt
}

// Injector applies a fault schedule to a target.
type Injector struct {
	tgt Target
	ctx trace.Context
	// cut counts active link-cut windows per site, so a window healing does
	// not raise links into a site still inside another window.
	cut map[netsim.SiteID]int

	injected int
	skipped  int
	lastHeal sim.Time
}

// NewInjector builds an injector. Injections trace under a deterministic
// chaos root so fault windows and the recovery spans they cause share a
// timeline in the Chrome exporter.
func NewInjector(tgt Target) *Injector {
	return &Injector{
		tgt: tgt,
		ctx: tgt.Tracer.Root(trace.ID("chaos")),
		cut: make(map[netsim.SiteID]int),
	}
}

// Run schedules every event in the schedule relative to now. Safe to call
// once per injector; events apply and restore themselves off the sim clock.
func (inj *Injector) Run(events []Event) {
	for _, ev := range events {
		ev := ev
		inj.tgt.Net.Engine().Schedule(ev.At, func() { inj.inject(ev) })
	}
}

// Injected and Skipped report applied vs hook-less event counts.
func (inj *Injector) Injected() int { return inj.injected }

// Skipped reports events dropped because their required hook was absent.
func (inj *Injector) Skipped() int { return inj.skipped }

// LastHeal reports the latest restoration instant of any applied window —
// the benchmark's reference point for post-chaos recovery time.
func (inj *Injector) LastHeal() sim.Time { return inj.lastHeal }

// inject applies one fault window and schedules its restoration.
func (inj *Injector) inject(ev Event) {
	restore := inj.apply(ev)
	if restore == nil {
		inj.skipped++
		return
	}
	inj.injected++
	now := inj.tgt.Net.Engine().Now()
	if end := now + ev.Duration; end > inj.lastHeal {
		inj.lastHeal = end
	}
	inj.tgt.Net.Metrics().Counter(telemetry.Key("chaos.injections", "kind", string(ev.Kind))).Inc()
	if inj.tgt.Observe != nil {
		inj.tgt.Observe(ev, now, now+ev.Duration)
	}
	sp, cc := inj.ctx.Start(now, string(ev.Site), trace.KindChaos, string(ev.Kind))
	inj.tgt.Net.Engine().Schedule(ev.Duration, func() {
		restore()
		cc.Finish(&sp, inj.tgt.Net.Engine().Now())
	})
}

// apply performs the state change for one event and returns the restoration
// closure, or nil when the event's required hook is absent.
func (inj *Injector) apply(ev Event) func() {
	switch ev.Kind {
	case KindSiteOutage:
		inj.eachInstrument(ev.Site, func(in *instrument.Instrument) {
			in.ForceDown(ev.Duration)
		})
		inj.cutLinks(ev.Site, false)
		return func() { inj.cutLinks(ev.Site, true) }
	case KindPartition:
		inj.cutLinks(ev.Site, false)
		return func() { inj.cutLinks(ev.Site, true) }
	case KindDegrade:
		var restores []func()
		inj.eachInstrument(ev.Site, func(in *instrument.Instrument) {
			pf := in.SetFailureProb(ev.FailureProb)
			pd := in.SetDriftPerAction(ev.Drift)
			restores = append(restores, func() {
				in.SetFailureProb(pf)
				in.SetDriftPerAction(pd)
			})
		})
		return func() {
			for _, r := range restores {
				r()
			}
		}
	case KindBadCreds:
		if inj.tgt.SetBadCreds == nil {
			return nil
		}
		inj.tgt.SetBadCreds(ev.Site, true)
		return func() { inj.tgt.SetBadCreds(ev.Site, false) }
	case KindByzantine:
		if inj.tgt.Poison == nil {
			return nil
		}
		// A burst of poisoned publishes spread across the window.
		const bursts = 5
		for i := 0; i < bursts; i++ {
			site := ev.Site
			inj.tgt.Net.Engine().Schedule(ev.Duration*sim.Time(i)/bursts, func() {
				inj.tgt.Poison(site)
			})
		}
		return func() {}
	}
	return nil
}

// eachInstrument visits the site's instruments in deterministic ID order.
func (inj *Injector) eachInstrument(site netsim.SiteID, f func(*instrument.Instrument)) {
	fleet := inj.tgt.Fleets[site]
	if fleet == nil {
		return
	}
	for _, id := range fleet.IDs() {
		if in, ok := fleet.Get(id); ok {
			f(in)
		}
	}
}

// cutLinks takes down (up=false) or restores (up=true) the site's WAN
// links. Cuts are reference-counted per site: a link only comes back when
// neither endpoint remains inside a cut window.
func (inj *Injector) cutLinks(site netsim.SiteID, up bool) {
	if !up {
		inj.cut[site]++
		for _, peer := range inj.tgt.Sites {
			if peer != site {
				inj.tgt.Net.SetLinkUp(site, peer, false)
			}
		}
		return
	}
	inj.cut[site]--
	if inj.cut[site] > 0 {
		return
	}
	for _, peer := range inj.tgt.Sites {
		if peer != site && inj.cut[peer] == 0 {
			inj.tgt.Net.SetLinkUp(site, peer, true)
		}
	}
}
