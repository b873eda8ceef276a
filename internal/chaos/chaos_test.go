package chaos

import (
	"errors"
	"reflect"
	"testing"

	"github.com/aisle-sim/aisle/internal/bus"
	"github.com/aisle-sim/aisle/internal/core"
	"github.com/aisle-sim/aisle/internal/instrument"
	"github.com/aisle-sim/aisle/internal/netsim"
	"github.com/aisle-sim/aisle/internal/param"
	"github.com/aisle-sim/aisle/internal/rng"
	"github.com/aisle-sim/aisle/internal/security"
	"github.com/aisle-sim/aisle/internal/sim"
	"github.com/aisle-sim/aisle/internal/simtest"
	"github.com/aisle-sim/aisle/internal/telemetry"
	"github.com/aisle-sim/aisle/internal/twin"
)

func scheduleSites(n int) []netsim.SiteID {
	out := make([]netsim.SiteID, n)
	for i := range out {
		out[i] = netsim.SiteID(string(rune('a' + i)))
	}
	return out
}

func TestScheduleDeterministic(t *testing.T) {
	cfg := Config{Seed: 99, Horizon: 12 * sim.Hour, Intensity: 0.3}
	sites := scheduleSites(5)
	a := Schedule(cfg, sites)
	b := Schedule(cfg, sites)
	if len(a) == 0 {
		t.Fatal("expected a non-empty schedule at 30% intensity over 12h")
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same seed produced different schedules")
	}
	c := Schedule(Config{Seed: 100, Horizon: 12 * sim.Hour, Intensity: 0.3}, sites)
	if reflect.DeepEqual(a, c) {
		t.Fatal("different seeds produced identical schedules")
	}
}

func TestScheduleRespectsConfig(t *testing.T) {
	cfg := Config{Seed: 7, Horizon: 24 * sim.Hour, Intensity: 0.2,
		Kinds: []Kind{KindPartition}}
	sites := scheduleSites(4)
	evs := Schedule(cfg, sites)
	if len(evs) == 0 {
		t.Fatal("expected events")
	}
	last := sim.Time(-1)
	for _, ev := range evs {
		if ev.Kind != KindPartition {
			t.Fatalf("kind %s outside restricted set", ev.Kind)
		}
		if ev.At < last {
			t.Fatal("schedule not sorted by start time")
		}
		last = ev.At
		if ev.At >= cfg.Horizon {
			t.Fatalf("event at %v past horizon %v", ev.At, cfg.Horizon)
		}
		if ev.Duration < 5*sim.Minute || ev.Duration > 30*sim.Minute {
			t.Fatalf("duration %v outside default bounds", ev.Duration)
		}
	}
	if got := Schedule(Config{Seed: 7, Horizon: 24 * sim.Hour}, sites); got != nil {
		t.Fatal("zero intensity should produce an empty schedule")
	}
}

// injectorTestbed is a two-site network with one instrument each.
func injectorTestbed(t *testing.T) (*simtest.Stack, Target) {
	t.Helper()
	rnd := rng.New(3)
	st := simtest.New(rnd.Fork("net"), netsim.Link{Latency: 10 * sim.Millisecond, Bandwidth: 125e6}, "a", "b")
	fleets := make(map[netsim.SiteID]*instrument.Fleet)
	for _, id := range st.Sites {
		f := instrument.NewFleet()
		f.Add(instrument.NewFluidicReactor(st.Eng, rnd, "flow-"+string(id), string(id), twin.Perovskite{}))
		fleets[id] = f
	}
	return st, Target{Net: st.Net, Fleets: fleets, Sites: st.Sites}
}

func TestInjectorSiteOutageAndRestore(t *testing.T) {
	st, tgt := injectorTestbed(t)
	inj := NewInjector(tgt)
	inj.Run([]Event{{Kind: KindSiteOutage, At: sim.Minute, Duration: 10 * sim.Minute, Site: "a"}})

	st.RunUntil(t, 2*sim.Minute)
	in, _ := tgt.Fleets["a"].Get("flow-a")
	if got := in.State(); got != instrument.StateDown {
		t.Fatalf("instrument state during outage = %v, want down", got)
	}
	if st.Net.Reachable("a", "b", "bus") {
		t.Fatal("site a should be unreachable during its outage")
	}
	st.RunUntil(t, 15*sim.Minute)
	if got := in.State(); got != instrument.StateIdle {
		t.Fatalf("instrument state after heal = %v, want idle", got)
	}
	if !st.Net.Reachable("a", "b", "bus") {
		t.Fatal("links should be healed after the window")
	}
	if inj.Injected() != 1 {
		t.Fatalf("injected = %d, want 1", inj.Injected())
	}
	if got := tgt.Net.Metrics().Counter(telemetry.Key("chaos.injections", "kind", string(KindSiteOutage))).Value(); got != 1 {
		t.Fatalf("chaos.injections counter = %d, want 1", got)
	}
	if heal := inj.LastHeal(); heal != 11*sim.Minute {
		t.Fatalf("LastHeal = %v, want 11m", heal)
	}
}

func TestInjectorOverlappingCutsRefcount(t *testing.T) {
	st, tgt := injectorTestbed(t)
	inj := NewInjector(tgt)
	inj.Run([]Event{
		{Kind: KindPartition, At: 0, Duration: 10 * sim.Minute, Site: "a"},
		{Kind: KindPartition, At: 5 * sim.Minute, Duration: 10 * sim.Minute, Site: "a"},
	})
	// First window heals at 10m but the second still holds the site dark.
	st.RunUntil(t, 12*sim.Minute)
	if st.Net.Reachable("a", "b", "bus") {
		t.Fatal("overlapping window should keep links down at 12m")
	}
	st.RunUntil(t, 16*sim.Minute)
	if !st.Net.Reachable("a", "b", "bus") {
		t.Fatal("links should heal once the last window ends")
	}
}

func TestInjectorDegradeRestoresSettings(t *testing.T) {
	st, tgt := injectorTestbed(t)
	in, _ := tgt.Fleets["b"].Get("flow-b")
	pf, pd := in.FailureProb(), in.DriftPerAction()
	inj := NewInjector(tgt)
	inj.Run([]Event{{Kind: KindDegrade, At: 0, Duration: 5 * sim.Minute,
		Site: "b", FailureProb: 0.4, Drift: 0.03}})
	st.RunUntil(t, sim.Minute)
	if in.FailureProb() != 0.4 || in.DriftPerAction() != 0.03 {
		t.Fatalf("degrade not applied: failure=%g drift=%g", in.FailureProb(), in.DriftPerAction())
	}
	st.RunUntil(t, 6*sim.Minute)
	if in.FailureProb() != pf || in.DriftPerAction() != pd {
		t.Fatalf("degrade not restored: failure=%g drift=%g", in.FailureProb(), in.DriftPerAction())
	}
}

func TestInjectorSkipsHooklessKinds(t *testing.T) {
	st, tgt := injectorTestbed(t)
	inj := NewInjector(tgt)
	inj.Run([]Event{
		{Kind: KindBadCreds, At: 0, Duration: sim.Minute, Site: "a"},
		{Kind: KindByzantine, At: 0, Duration: sim.Minute, Site: "a"},
	})
	st.RunUntil(t, 2*sim.Minute)
	if inj.Injected() != 0 || inj.Skipped() != 2 {
		t.Fatalf("injected=%d skipped=%d, want 0/2 without hooks", inj.Injected(), inj.Skipped())
	}
}

func TestCheckerTerminalAudit(t *testing.T) {
	c := NewChecker()
	c.Submitted("a")
	c.Submitted("b")
	c.Submitted("c")
	c.Terminal("a", nil)
	c.Terminal("b", errors.New("boom"))
	c.Terminal("b", nil) // double terminal
	// c never terminates.
	v := c.Check()
	if len(v) != 2 {
		t.Fatalf("violations = %v, want double-terminal for b and missing terminal for c", v)
	}
}

func TestCheckerWatchNet(t *testing.T) {
	st := simtest.New(rng.New(1).Fork("net"), netsim.Link{Latency: 50 * sim.Millisecond, Bandwidth: 125e6}, "a", "b")
	c := NewChecker()
	c.WatchNet(st.Net)

	// Healthy delivery: no violation.
	if err := st.Net.Send(netsim.Message{From: "a", To: "b", Service: "bus", Size: 100}, func(netsim.Message) {}); err != nil {
		t.Fatal(err)
	}
	st.RunUntil(t, sim.Second)
	if len(c.Violations()) != 0 {
		t.Fatalf("unexpected violations: %v", c.Violations())
	}

	// Cut the link while a message is in flight: without DropInFlight the
	// delivery commits anyway and the checker must flag it.
	if err := st.Net.Send(netsim.Message{From: "a", To: "b", Service: "bus", Size: 100}, func(netsim.Message) {}); err != nil {
		t.Fatal(err)
	}
	st.Net.SetLinkUp("a", "b", false)
	st.RunUntil(t, 2*sim.Second)
	if len(c.Violations()) != 1 {
		t.Fatalf("violations = %v, want exactly the down-link delivery", c.Violations())
	}

	// With DropInFlight the same race drops the message instead.
	st.Net.SetLinkUp("a", "b", true)
	st.Net.DropInFlight = true
	delivered := false
	if err := st.Net.Send(netsim.Message{From: "a", To: "b", Service: "bus", Size: 100}, func(netsim.Message) { delivered = true }); err != nil {
		t.Fatal(err)
	}
	st.Net.SetLinkUp("a", "b", false)
	st.RunUntil(t, 3*sim.Second)
	if delivered {
		t.Fatal("DropInFlight should have dropped the in-flight message")
	}
	if len(c.Violations()) != 1 {
		t.Fatalf("drop path should add no violations, got %v", c.Violations())
	}
}

// Inside a bad-credential window Bind forges one token per original: every
// envelope of the window carries the same forgery until the site's token
// renews, and every one of them is still refused where it arrives.
func TestBindForgesOncePerOriginalToken(t *testing.T) {
	sites := scheduleSites(3)
	n := core.New(core.Config{Seed: 5, Sites: sites, Link: core.DefaultLink(),
		ZeroTrust: true, SharedKnowledge: true})
	defer n.Stop()
	tgt := Bind(n)
	from := bus.Address{Site: "a", Name: "knowledge"}
	token := func() *security.Token {
		tok, _ := n.Fabric.TokenSource(from).(*security.Token)
		if tok == nil {
			t.Fatal("token source returned no *security.Token")
		}
		return tok
	}
	refused := func() int64 { return n.Fed.Metrics().Counter("security.authn_failures").Value() }

	genuine := token()
	if err := n.Fed.Verify("b", genuine); err != nil {
		t.Fatalf("genuine token refused: %v", err)
	}
	tgt.SetBadCreds("a", true)
	first, again := token(), token()
	if first == genuine || string(first.Sig) != "chaos-forged" || string(genuine.Sig) == "chaos-forged" {
		t.Fatal("a bad-credential window must present a forged copy and leave the original alone")
	}
	if first != again {
		t.Fatal("two sends inside one window forged two tokens for one original")
	}
	if other, _ := n.Fabric.TokenSource(bus.Address{Site: "b"}).(*security.Token); string(other.Sig) == "chaos-forged" {
		t.Fatal("a site outside the window presented a forgery")
	}
	// A real publish inside the window: refused at both peers.
	before := refused()
	n.Site("a").Knowledge.AddObservation("perovskite", param.Point{"x": 1}, 0.5)
	if err := n.RunFor(sim.Second); err != nil {
		t.Fatal(err)
	}
	afterFirst := refused()
	if afterFirst-before < 2 || n.Site("b").Knowledge.Size() != 0 {
		t.Fatalf("forged publish: %d refusals, peer holds %d insights; want >= 2 and 0",
			afterFirst-before, n.Site("b").Knowledge.Size())
	}
	// Past a renewal (core's TTL/2 = 5 min) the original changes, and so does
	// the forgery.
	if err := n.RunFor(6 * sim.Minute); err != nil {
		t.Fatal(err)
	}
	renewed := token()
	if renewed == first || string(renewed.Sig) != "chaos-forged" || renewed != token() {
		t.Fatal("a renewal must yield one new forgery")
	}
	if renewed.ExpiresAt <= first.ExpiresAt {
		t.Fatalf("forgery after the renewal expires at %v, the one before at %v", renewed.ExpiresAt, first.ExpiresAt)
	}
	for _, tok := range []*security.Token{first, renewed} {
		if err := n.Fed.Verify("b", tok); !errors.Is(err, security.ErrBadSignature) {
			t.Fatalf("forged token: %v, want ErrBadSignature", err)
		}
	}
	tgt.SetBadCreds("a", false)
	if tok := token(); string(tok.Sig) == "chaos-forged" {
		t.Fatal("forgery presented after the window closed")
	}
	tgt.SetBadCreds("a", true)
	if token() != renewed {
		t.Fatal("a second window over the same original forged again")
	}
}
