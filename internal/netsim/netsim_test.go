package netsim

import (
	"errors"
	"testing"

	"github.com/aisle-sim/aisle/internal/rng"
	"github.com/aisle-sim/aisle/internal/sim"
)

func testNet(t *testing.T) (*sim.Engine, *Network) {
	t.Helper()
	eng := sim.NewEngine()
	n := New(eng, rng.New(1))
	return eng, n
}

func TestDeliveryLatency(t *testing.T) {
	eng, n := testNet(t)
	n.AddSite("ornl").Firewall.AllowAll()
	n.AddSite("anl").Firewall.AllowAll()
	n.Connect("ornl", "anl", Link{Latency: 20 * sim.Millisecond})

	var at sim.Time
	err := n.Send(Message{From: "ornl", To: "anl", Service: "bus", Size: 100},
		func(Message) { at = eng.Now() })
	if err != nil {
		t.Fatal(err)
	}
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	if at != 20*sim.Millisecond {
		t.Fatalf("delivered at %v, want 20ms", at)
	}
}

func TestLoopbackUsesLANLatency(t *testing.T) {
	eng, n := testNet(t)
	s := n.AddSite("ornl")
	s.LANLatency = sim.Millisecond
	var at sim.Time
	if err := n.Send(Message{From: "ornl", To: "ornl"}, func(Message) { at = eng.Now() }); err != nil {
		t.Fatal(err)
	}
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	if at != sim.Millisecond {
		t.Fatalf("loopback at %v, want 1ms", at)
	}
}

func TestUnknownSite(t *testing.T) {
	_, n := testNet(t)
	n.AddSite("a")
	err := n.Send(Message{From: "a", To: "ghost"}, func(Message) {})
	if !errors.Is(err, ErrUnknownSite) {
		t.Fatalf("err = %v, want ErrUnknownSite", err)
	}
	err = n.Send(Message{From: "ghost", To: "a"}, func(Message) {})
	if !errors.Is(err, ErrUnknownSite) {
		t.Fatalf("err = %v, want ErrUnknownSite", err)
	}
}

func TestNoRoute(t *testing.T) {
	_, n := testNet(t)
	n.AddSite("a").Firewall.AllowAll()
	n.AddSite("b").Firewall.AllowAll()
	err := n.Send(Message{From: "a", To: "b"}, func(Message) {})
	if !errors.Is(err, ErrNoRoute) {
		t.Fatalf("err = %v, want ErrNoRoute", err)
	}
}

func TestLinkDown(t *testing.T) {
	eng, n := testNet(t)
	n.AddSite("a").Firewall.AllowAll()
	n.AddSite("b").Firewall.AllowAll()
	n.Connect("a", "b", Link{Latency: sim.Millisecond})
	n.SetLinkUp("a", "b", false)
	err := n.Send(Message{From: "a", To: "b"}, func(Message) {})
	if !errors.Is(err, ErrLinkDown) {
		t.Fatalf("err = %v, want ErrLinkDown", err)
	}
	n.SetLinkUp("a", "b", true)
	delivered := false
	if err := n.Send(Message{From: "a", To: "b"}, func(Message) { delivered = true }); err != nil {
		t.Fatal(err)
	}
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	if !delivered {
		t.Fatal("message not delivered after repair")
	}
}

// Every refusal on a down link reads the same in its direction, names the
// sender first, and still matches ErrLinkDown — including after a repair
// and a second cut.
func TestLinkDownErrorPerDirection(t *testing.T) {
	_, n := testNet(t)
	n.AddSite("a").Firewall.AllowAll()
	n.AddSite("b").Firewall.AllowAll()
	n.Connect("a", "b", Link{Latency: sim.Millisecond})
	for round := 0; round < 2; round++ {
		n.SetLinkUp("a", "b", false)
		for _, c := range []struct{ from, to SiteID }{{"a", "b"}, {"b", "a"}} {
			want := "netsim: link down: " + string(c.from) + " <-> " + string(c.to)
			for i := 0; i < 2; i++ {
				err := n.Send(Message{From: c.from, To: c.to}, func(Message) {})
				if !errors.Is(err, ErrLinkDown) || err.Error() != want {
					t.Fatalf("round %d send %d %s->%s: err = %v, want %q", round, i, c.from, c.to, err, want)
				}
			}
		}
		n.SetLinkUp("a", "b", true)
		if err := n.Send(Message{From: "b", To: "a"}, func(Message) {}); err != nil {
			t.Fatalf("send after repair: %v", err)
		}
	}
}

func TestFirewallDefaultDeny(t *testing.T) {
	_, n := testNet(t)
	n.AddSite("a")
	n.AddSite("b") // default deny
	n.Connect("a", "b", Link{Latency: sim.Millisecond})
	err := n.Send(Message{From: "a", To: "b", Service: "bus"}, func(Message) {})
	if !errors.Is(err, ErrFirewall) {
		t.Fatalf("err = %v, want ErrFirewall", err)
	}
}

func TestFirewallRules(t *testing.T) {
	eng, n := testNet(t)
	n.AddSite("a")
	b := n.AddSite("b")
	n.AddSite("c")
	n.Connect("a", "b", Link{Latency: sim.Millisecond})
	n.Connect("c", "b", Link{Latency: sim.Millisecond})
	b.Firewall.Allow(Rule{From: "a", Service: "bus"})

	if err := n.Send(Message{From: "a", To: "b", Service: "bus"}, func(Message) {}); err != nil {
		t.Fatalf("allowed traffic rejected: %v", err)
	}
	if err := n.Send(Message{From: "a", To: "b", Service: "ssh"}, func(Message) {}); !errors.Is(err, ErrFirewall) {
		t.Fatalf("wrong service admitted: %v", err)
	}
	if err := n.Send(Message{From: "c", To: "b", Service: "bus"}, func(Message) {}); !errors.Is(err, ErrFirewall) {
		t.Fatalf("wrong source admitted: %v", err)
	}
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestFirewallWildcards(t *testing.T) {
	f := &Firewall{}
	f.Allow(Rule{Service: "discovery"}) // any source
	if !f.Admits("x", "discovery") {
		t.Fatal("wildcard source rejected")
	}
	if f.Admits("x", "bus") {
		t.Fatal("non-matching service admitted")
	}
	f2 := &Firewall{}
	f2.Allow(Rule{From: "a"}) // any service
	if !f2.Admits("a", "anything") {
		t.Fatal("wildcard service rejected")
	}
}

func TestLossDropsSilently(t *testing.T) {
	eng, n := testNet(t)
	n.AddSite("a").Firewall.AllowAll()
	n.AddSite("b").Firewall.AllowAll()
	n.Connect("a", "b", Link{Latency: sim.Millisecond, Loss: 1.0})
	delivered := 0
	for i := 0; i < 50; i++ {
		if err := n.Send(Message{From: "a", To: "b"}, func(Message) { delivered++ }); err != nil {
			t.Fatalf("loss must be silent, got %v", err)
		}
	}
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	if delivered != 0 {
		t.Fatalf("delivered %d messages on 100%%-loss link", delivered)
	}
	if got := n.Metrics().Counter("net.lost").Value(); got != 50 {
		t.Fatalf("lost counter = %d, want 50", got)
	}
}

func TestLossRate(t *testing.T) {
	eng, n := testNet(t)
	n.AddSite("a").Firewall.AllowAll()
	n.AddSite("b").Firewall.AllowAll()
	n.Connect("a", "b", Link{Latency: sim.Millisecond, Loss: 0.3})
	delivered := 0
	const total = 10000
	for i := 0; i < total; i++ {
		_ = n.Send(Message{From: "a", To: "b"}, func(Message) { delivered++ })
	}
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	rate := 1 - float64(delivered)/total
	if rate < 0.27 || rate > 0.33 {
		t.Fatalf("observed loss %v, want ~0.3", rate)
	}
}

func TestBandwidthSerialization(t *testing.T) {
	eng, n := testNet(t)
	n.AddSite("a").Firewall.AllowAll()
	n.AddSite("b").Firewall.AllowAll()
	// 1 MB/s, zero propagation: a 1MB message takes 1 virtual second.
	n.Connect("a", "b", Link{Bandwidth: 1e6})
	var first, second sim.Time
	_ = n.Send(Message{From: "a", To: "b", Size: 1e6}, func(Message) { first = eng.Now() })
	_ = n.Send(Message{From: "a", To: "b", Size: 1e6}, func(Message) { second = eng.Now() })
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	if first != sim.Second {
		t.Fatalf("first delivery at %v, want 1s", first)
	}
	// FIFO: second message waits for the first to serialize.
	if second != 2*sim.Second {
		t.Fatalf("second delivery at %v, want 2s (queueing)", second)
	}
}

func TestDirectionalQueuesIndependent(t *testing.T) {
	eng, n := testNet(t)
	n.AddSite("a").Firewall.AllowAll()
	n.AddSite("b").Firewall.AllowAll()
	n.Connect("a", "b", Link{Bandwidth: 1e6})
	var ab, ba sim.Time
	_ = n.Send(Message{From: "a", To: "b", Size: 1e6}, func(Message) { ab = eng.Now() })
	_ = n.Send(Message{From: "b", To: "a", Size: 1e6}, func(Message) { ba = eng.Now() })
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	if ab != sim.Second || ba != sim.Second {
		t.Fatalf("directions not independent: ab=%v ba=%v", ab, ba)
	}
}

func TestPartitionAndHeal(t *testing.T) {
	eng, n := testNet(t)
	for _, id := range []SiteID{"a", "b", "c", "d"} {
		n.AddSite(id).Firewall.AllowAll()
	}
	n.FullMesh([]SiteID{"a", "b", "c", "d"}, Link{Latency: sim.Millisecond})
	n.Partition([]SiteID{"a", "b"}, []SiteID{"c", "d"})

	if n.Reachable("a", "c", "bus") {
		t.Fatal("a->c reachable across partition")
	}
	if !n.Reachable("a", "b", "bus") {
		t.Fatal("a->b should remain reachable within group")
	}
	n.Heal([]SiteID{"a", "b"}, []SiteID{"c", "d"})
	if !n.Reachable("a", "c", "bus") {
		t.Fatal("a->c unreachable after heal")
	}
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestJitterVariesLatency(t *testing.T) {
	eng, n := testNet(t)
	n.AddSite("a").Firewall.AllowAll()
	n.AddSite("b").Firewall.AllowAll()
	n.Connect("a", "b", Link{Latency: 20 * sim.Millisecond, Jitter: 2 * sim.Millisecond})
	seen := map[sim.Time]bool{}
	for i := 0; i < 20; i++ {
		send := func() {
			_ = n.Send(Message{From: "a", To: "b"}, func(Message) {
				seen[eng.Now()] = true
			})
		}
		eng.Schedule(sim.Time(i)*sim.Second, send)
	}
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	if len(seen) < 15 {
		t.Fatalf("jitter produced only %d distinct delivery offsets", len(seen))
	}
}

func TestSitesSorted(t *testing.T) {
	_, n := testNet(t)
	n.AddSite("zeta")
	n.AddSite("alpha")
	n.AddSite("mid")
	ids := n.Sites()
	if ids[0] != "alpha" || ids[1] != "mid" || ids[2] != "zeta" {
		t.Fatalf("Sites() = %v, want sorted", ids)
	}
}

func TestDuplicateSitePanics(t *testing.T) {
	_, n := testNet(t)
	n.AddSite("a")
	defer func() {
		if recover() == nil {
			t.Fatal("duplicate AddSite did not panic")
		}
	}()
	n.AddSite("a")
}

func TestSelfLinkPanics(t *testing.T) {
	_, n := testNet(t)
	n.AddSite("a")
	defer func() {
		if recover() == nil {
			t.Fatal("self-link did not panic")
		}
	}()
	n.Connect("a", "a", Link{})
}

func TestReachableLoopback(t *testing.T) {
	_, n := testNet(t)
	n.AddSite("a")
	if !n.Reachable("a", "a", "anything") {
		t.Fatal("loopback should always be reachable")
	}
}

// The digest repeats for the same messages and moves when any one message's
// size, service, order or fate changes, also when no arrival time moves.
func TestDigestSeesEveryMessage(t *testing.T) {
	type send struct {
		to      SiteID
		service string
		size    int
	}
	run := func(loss float64, dropInFlight bool, sends ...send) uint64 {
		eng, n := testNet(t)
		n.DropInFlight = dropInFlight
		for _, id := range []SiteID{"a", "b", "c"} {
			n.AddSite(id).Firewall.AllowAll()
		}
		n.Connect("a", "b", Link{Latency: sim.Millisecond, Loss: loss})
		n.Connect("a", "c", Link{Latency: sim.Millisecond})
		for _, m := range sends {
			if err := n.Send(Message{From: "a", To: m.to, Service: m.service, Size: m.size}, func(Message) {}); err != nil {
				t.Fatal(err)
			}
		}
		if dropInFlight {
			n.SetLinkUp("a", "b", false)
		}
		if err := eng.Run(); err != nil {
			t.Fatal(err)
		}
		return n.Digest()
	}
	toB, toC := send{"b", "bus", 10}, send{"c", "bus", 10}
	base := run(0, false, toB, toC)
	if again := run(0, false, toB, toC); again != base {
		t.Fatalf("same messages, digests %#x and %#x", base, again)
	}
	for name, d := range map[string]uint64{
		"size":      run(0, false, send{"b", "bus", 11}, toC),
		"service":   run(0, false, send{"b", "bux", 10}, toC),
		"order":     run(0, false, toC, toB),
		"lost":      run(1, false, toB, toC),
		"dropped":   run(0, true, toB, toC),
		"loopback":  run(0, false, toB, send{"a", "bus", 10}),
		"extra msg": run(0, false, toB, toC, toC),
	} {
		if d == base {
			t.Errorf("%s: digest %#x did not move", name, d)
		}
	}
}
