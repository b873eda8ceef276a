package bus

import (
	"errors"
	"fmt"
	"testing"

	"github.com/aisle-sim/aisle/internal/netsim"
	"github.com/aisle-sim/aisle/internal/rng"
	"github.com/aisle-sim/aisle/internal/sim"
)

// testFabric builds a 3-site open-firewall testbed with 10ms links.
func testFabric(t *testing.T, link netsim.Link) (*sim.Engine, *netsim.Network, *Fabric) {
	t.Helper()
	eng := sim.NewEngine()
	net := netsim.New(eng, rng.New(7))
	for _, id := range []netsim.SiteID{"ornl", "anl", "slac"} {
		net.AddSite(id).Firewall.AllowAll()
	}
	net.FullMesh([]netsim.SiteID{"ornl", "anl", "slac"}, link)
	return eng, net, NewFabric(net)
}

func addr(site, name string) Address {
	return Address{Site: netsim.SiteID(site), Name: name}
}

func TestRPCRoundtrip(t *testing.T) {
	eng, _, f := testFabric(t, netsim.Link{Latency: 10 * sim.Millisecond})
	f.Broker("anl").RegisterFunc("echo", 0, func(env *Envelope) (any, error) {
		return fmt.Sprintf("echo:%v", env.Payload), nil
	})
	var got any
	var gotErr error
	var at sim.Time
	f.Call(CallOpts{
		From: addr("ornl", "client"), To: addr("anl", "echo"),
		Method: "echo", Payload: "hi",
	}, func(result any, err error) { got, gotErr, at = result, err, eng.Now() })
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	if gotErr != nil {
		t.Fatal(gotErr)
	}
	if got != "echo:hi" {
		t.Fatalf("got %v", got)
	}
	if at != 20*sim.Millisecond {
		t.Fatalf("roundtrip completed at %v, want 20ms", at)
	}
}

func TestRPCHandlerError(t *testing.T) {
	eng, _, f := testFabric(t, netsim.Link{Latency: sim.Millisecond})
	f.Broker("anl").RegisterFunc("fail", 0, func(*Envelope) (any, error) {
		return nil, errors.New("boom")
	})
	var gotErr error
	f.Call(CallOpts{From: addr("ornl", "c"), To: addr("anl", "fail"), Method: "fail"},
		func(_ any, err error) { gotErr = err })
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	if !errors.Is(gotErr, ErrHandlerFailed) {
		t.Fatalf("err = %v, want ErrHandlerFailed", gotErr)
	}
}

func TestRPCNoEndpoint(t *testing.T) {
	eng, _, f := testFabric(t, netsim.Link{Latency: sim.Millisecond})
	var gotErr error
	f.Call(CallOpts{From: addr("ornl", "c"), To: addr("anl", "ghost"), Method: "x"},
		func(_ any, err error) { gotErr = err })
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	if !errors.Is(gotErr, ErrHandlerFailed) {
		t.Fatalf("err = %v, want wrapped no-endpoint failure", gotErr)
	}
}

func TestRPCTimeoutOnDeadLink(t *testing.T) {
	eng, net, f := testFabric(t, netsim.Link{Latency: sim.Millisecond})
	f.Broker("anl").RegisterFunc("m", 0, func(*Envelope) (any, error) { return 1, nil })
	net.SetLinkUp("ornl", "anl", false)
	var gotErr error
	f.Call(CallOpts{
		From: addr("ornl", "c"), To: addr("anl", "m"), Method: "m",
		Timeout: 100 * sim.Millisecond, Retries: 2,
	}, func(_ any, err error) { gotErr = err })
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	if !errors.Is(gotErr, ErrTimeout) {
		t.Fatalf("err = %v, want ErrTimeout", gotErr)
	}
	// The error renders lazily; its text must stay what fmt.Errorf produced
	// when it was built eagerly, since sched and reports print it.
	want := fmt.Errorf("%w after %d attempts: %s %s", ErrTimeout, 3, "m", addr("anl", "m")).Error()
	if gotErr.Error() != want {
		t.Fatalf("timeout text = %q, want %q", gotErr.Error(), want)
	}
}

func TestRPCRetriesRecoverFromLoss(t *testing.T) {
	// 40% loss each way => per-attempt success 0.36; 10 retries gives
	// ~99.3% call success.
	eng, _, f := testFabric(t, netsim.Link{Latency: sim.Millisecond, Loss: 0.4})
	f.Broker("anl").RegisterFunc("m", 0, func(*Envelope) (any, error) { return "ok", nil })
	success := 0
	const calls = 50
	for i := 0; i < calls; i++ {
		f.Call(CallOpts{
			From: addr("ornl", "c"), To: addr("anl", "m"), Method: "m",
			Timeout: 50 * sim.Millisecond, Retries: 10,
		}, func(result any, err error) {
			if err == nil && result == "ok" {
				success++
			}
		})
	}
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	if success < calls*9/10 {
		t.Fatalf("only %d/%d calls recovered via retries", success, calls)
	}
	if f.Metrics().Counter("bus.rpc.retries").Value() == 0 {
		t.Fatal("expected retries to be recorded")
	}
}

func TestRPCFailover(t *testing.T) {
	eng, net, f := testFabric(t, netsim.Link{Latency: sim.Millisecond})
	f.Broker("anl").RegisterFunc("svc", 0, func(*Envelope) (any, error) { return "primary", nil })
	f.Broker("slac").RegisterFunc("svc", 0, func(*Envelope) (any, error) { return "backup", nil })
	net.SetLinkUp("ornl", "anl", false) // primary unreachable

	var got any
	f.Call(CallOpts{
		From: addr("ornl", "c"), To: addr("anl", "svc"), Method: "svc",
		Timeout: 100 * sim.Millisecond, Retries: 3,
		Alternates: []Address{addr("slac", "svc")},
	}, func(result any, err error) {
		if err != nil {
			t.Errorf("failover call failed: %v", err)
		}
		got = result
	})
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	if got != "backup" {
		t.Fatalf("got %v, want backup", got)
	}
}

func TestRPCServerProcessingTime(t *testing.T) {
	eng, _, f := testFabric(t, netsim.Link{Latency: 10 * sim.Millisecond})
	f.Broker("anl").RegisterFunc("slow", 30*sim.Millisecond, func(*Envelope) (any, error) { return 1, nil })
	var at sim.Time
	f.Call(CallOpts{From: addr("ornl", "c"), To: addr("anl", "slow"), Method: "slow", Timeout: sim.Second},
		func(any, error) { at = eng.Now() })
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	if at != 50*sim.Millisecond {
		t.Fatalf("completed at %v, want 50ms (10+30+10)", at)
	}
}

func TestMiddlewareRejection(t *testing.T) {
	eng, _, f := testFabric(t, netsim.Link{Latency: sim.Millisecond})
	f.Use(func(env *Envelope) error {
		if env.Token != "valid" && env.Kind == KindRequest {
			return errors.New("no token")
		}
		return nil
	})
	f.Broker("anl").RegisterFunc("m", 0, func(*Envelope) (any, error) { return 1, nil })

	var err1, err2 error
	f.Call(CallOpts{From: addr("ornl", "c"), To: addr("anl", "m"), Method: "m", Token: "valid"},
		func(_ any, err error) { err1 = err })
	f.Call(CallOpts{From: addr("ornl", "c"), To: addr("anl", "m"), Method: "m", Token: "bogus"},
		func(_ any, err error) { err2 = err })
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	if err1 != nil {
		t.Fatalf("authorized call failed: %v", err1)
	}
	if err2 == nil {
		t.Fatal("unauthorized call succeeded")
	}
}

func TestPubSubAtMostOnce(t *testing.T) {
	eng, _, f := testFabric(t, netsim.Link{Latency: sim.Millisecond})
	var got []any
	f.Subscribe(addr("anl", "sub1"), "alerts", AtMostOnce, func(env *Envelope) {
		got = append(got, env.Payload)
	})
	f.Subscribe(addr("slac", "sub2"), "alerts", AtMostOnce, func(env *Envelope) {
		got = append(got, env.Payload)
	})
	f.Publish(PublishOpts{From: addr("ornl", "pub"), Topic: "alerts", Payload: "anomaly"})
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 {
		t.Fatalf("delivered to %d subscribers, want 2", len(got))
	}
}

func TestPubSubAtLeastOnceRecoversLoss(t *testing.T) {
	eng, _, f := testFabric(t, netsim.Link{Latency: sim.Millisecond, Loss: 0.5})
	delivered := 0
	f.Subscribe(addr("anl", "sub"), "data", AtLeastOnce, func(*Envelope) { delivered++ })
	const events = 40
	for i := 0; i < events; i++ {
		f.Publish(PublishOpts{
			From: addr("ornl", "pub"), Topic: "data", Payload: i,
			QoS: AtLeastOnce, AckTimeout: 50 * sim.Millisecond, MaxAttempts: 10,
		})
	}
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	if delivered < events {
		t.Fatalf("delivered %d < published %d despite at-least-once", delivered, events)
	}
	if f.Metrics().Counter("bus.pub.redelivered").Value() == 0 {
		t.Fatal("expected redeliveries on a 50%-loss link")
	}
}

func TestPubSubDeadLetter(t *testing.T) {
	eng, net, f := testFabric(t, netsim.Link{Latency: sim.Millisecond})
	f.Subscribe(addr("anl", "sub"), "t", AtLeastOnce, func(*Envelope) {})
	net.SetLinkUp("ornl", "anl", false)
	f.Publish(PublishOpts{
		From: addr("ornl", "pub"), Topic: "t", Payload: "x",
		QoS: AtLeastOnce, AckTimeout: 10 * sim.Millisecond, MaxAttempts: 3,
	})
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	if len(f.DeadLetters()) != 1 {
		t.Fatalf("dead letters = %d, want 1", len(f.DeadLetters()))
	}
	if got := f.Metrics().Counter("bus.pub.dlq").Value(); got != 1 {
		t.Fatalf("dlq counter = %d", got)
	}
}

func TestQueueCompetingConsumers(t *testing.T) {
	eng, _, f := testFabric(t, netsim.Link{Latency: sim.Millisecond})
	q := f.DeclareQueue(addr("ornl", ""), "jobs")
	var c1, c2 int
	q.Consume(addr("anl", "w1"), func(*Envelope) error { c1++; return nil })
	q.Consume(addr("slac", "w2"), func(*Envelope) error { c2++; return nil })
	for i := 0; i < 10; i++ {
		if err := f.Enqueue(addr("ornl", "producer"), addr("ornl", ""), "jobs", i, 100); err != nil {
			t.Fatal(err)
		}
	}
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	if c1+c2 != 10 {
		t.Fatalf("consumed %d+%d, want 10 total", c1, c2)
	}
	if c1 == 0 || c2 == 0 {
		t.Fatalf("work not shared: c1=%d c2=%d", c1, c2)
	}
	if q.Depth() != 0 {
		t.Fatalf("queue depth %d after drain", q.Depth())
	}
}

func TestQueueNackRedelivers(t *testing.T) {
	eng, _, f := testFabric(t, netsim.Link{Latency: sim.Millisecond})
	q := f.DeclareQueue(addr("ornl", ""), "jobs")
	attempts := 0
	q.Consume(addr("anl", "w"), func(*Envelope) error {
		attempts++
		if attempts < 3 {
			return errors.New("transient")
		}
		return nil
	})
	if err := f.Enqueue(addr("ornl", "p"), addr("ornl", ""), "jobs", "task", 64); err != nil {
		t.Fatal(err)
	}
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	if attempts != 3 {
		t.Fatalf("attempts = %d, want 3", attempts)
	}
	if len(q.DeadLetters()) != 0 {
		t.Fatal("message dead-lettered despite eventual success")
	}
}

func TestQueueDeadLetterAfterMaxAttempts(t *testing.T) {
	eng, _, f := testFabric(t, netsim.Link{Latency: sim.Millisecond})
	q := f.DeclareQueue(addr("ornl", ""), "jobs")
	q.MaxAttempts = 3
	fails := 0
	q.Consume(addr("anl", "w"), func(*Envelope) error { fails++; return errors.New("always") })
	if err := f.Enqueue(addr("ornl", "p"), addr("ornl", ""), "jobs", "poison", 64); err != nil {
		t.Fatal(err)
	}
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	if fails != 3 {
		t.Fatalf("delivery attempts = %d, want 3", fails)
	}
	if len(q.DeadLetters()) != 1 {
		t.Fatalf("dead letters = %d, want 1", len(q.DeadLetters()))
	}
}

func TestQueueBacklogDrainsWhenConsumerJoins(t *testing.T) {
	eng, _, f := testFabric(t, netsim.Link{Latency: sim.Millisecond})
	f.DeclareQueue(addr("ornl", ""), "jobs")
	for i := 0; i < 5; i++ {
		if err := f.Enqueue(addr("ornl", "p"), addr("ornl", ""), "jobs", i, 64); err != nil {
			t.Fatal(err)
		}
	}
	got := 0
	eng.Schedule(sim.Second, func() {
		q := f.Queue(addr("ornl", ""), "jobs")
		q.Consume(addr("anl", "late"), func(*Envelope) error { got++; return nil })
	})
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	if got != 5 {
		t.Fatalf("late consumer got %d, want 5", got)
	}
}

func TestEnqueueUnknownQueue(t *testing.T) {
	_, _, f := testFabric(t, netsim.Link{Latency: sim.Millisecond})
	err := f.Enqueue(addr("ornl", "p"), addr("ornl", ""), "ghost", 1, 1)
	if !errors.Is(err, ErrNoQueue) {
		t.Fatalf("err = %v, want ErrNoQueue", err)
	}
}

func TestRPCLatencyMetricRecorded(t *testing.T) {
	eng, _, f := testFabric(t, netsim.Link{Latency: 5 * sim.Millisecond})
	f.Broker("anl").RegisterFunc("m", 0, func(*Envelope) (any, error) { return 1, nil })
	for i := 0; i < 10; i++ {
		f.Call(CallOpts{From: addr("ornl", "c"), To: addr("anl", "m"), Method: "m"}, func(any, error) {})
	}
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	h := f.Metrics().Histogram("bus.rpc.latency_s")
	if h.Count() != 10 {
		t.Fatalf("latency observations = %d", h.Count())
	}
	if h.Mean() < 0.009 || h.Mean() > 0.02 {
		t.Fatalf("mean rpc latency = %v s, want ~0.01", h.Mean())
	}
}

// A RegisterFunc endpoint with a processing time serves each request from
// the pooled responder: no closure per request once the pools are warm.
func TestRPCServerProcessingTimeAllocatesNothing(t *testing.T) {
	eng, _, f := testFabric(t, netsim.Link{Latency: sim.Millisecond})
	served, replies := 0, 0
	f.Broker("anl").RegisterFunc("work", 2*sim.Millisecond, func(*Envelope) (any, error) {
		served++
		return nil, nil
	})
	opts := CallOpts{From: addr("ornl", "c"), To: addr("anl", "work"), Method: "work"}
	cb := func(_ any, err error) {
		if err == nil {
			replies++
		}
	}
	roundTrip := func() {
		for i := 0; i < 4; i++ { // four requests inside one processing time
			f.Call(opts, cb)
		}
		if err := eng.Run(); err != nil {
			t.Fatal(err)
		}
	}
	roundTrip() // warm the envelope, call, responder and event pools
	if avg := testing.AllocsPerRun(100, roundTrip); avg != 0 {
		t.Fatalf("four served round trips allocate %v times, want 0", avg)
	}
	if served != replies || served != 4*102 {
		t.Fatalf("served %d, replied %d, want %d each", served, replies, 4*102)
	}
}

// The function captured when the request arrived runs and replies even if
// the endpoint is replaced before its processing time ends.
func TestRPCServedAfterReregister(t *testing.T) {
	eng, _, f := testFabric(t, netsim.Link{Latency: 10 * sim.Millisecond})
	b := f.Broker("anl")
	b.RegisterFunc("work", 5*sim.Millisecond, func(env *Envelope) (any, error) {
		return fmt.Sprintf("first:%v@%v", env.Payload, eng.Now()), nil
	})
	opts := CallOpts{From: addr("ornl", "c"), To: addr("anl", "work"), Method: "work", Payload: "a"}
	var got [2]any
	var errs [2]error
	var at [2]sim.Time
	call := func(i int) {
		f.Call(opts, func(r any, err error) { got[i], errs[i], at[i] = r, err, eng.Now() })
	}
	call(0)                                   // arrives 10ms, served 15ms, reply lands 25ms
	eng.Schedule(12*sim.Millisecond, func() { // replaced between arrival and service
		b.RegisterFunc("work", 5*sim.Millisecond, func(*Envelope) (any, error) { return "second", nil })
	})
	eng.Schedule(30*sim.Millisecond, func() { call(1) }) // arrives 40ms under "second"
	eng.Schedule(42*sim.Millisecond, func() {            // replaced while request 1 is being served
		b.RegisterFunc("work", sim.Millisecond, func(*Envelope) (any, error) { return "third", nil })
	})
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	if errs[0] != nil || got[0] != "first:a@15ms" || at[0] != 25*sim.Millisecond {
		t.Fatalf("request in service across a re-register: %v, %v at %v; want first:a@15ms at 25ms", got[0], errs[0], at[0])
	}
	if errs[1] != nil || got[1] != "second" || at[1] != 55*sim.Millisecond {
		t.Fatalf("request in service across a re-register: %v, %v at %v; want second at 55ms", got[1], errs[1], at[1])
	}
}

// A reply to an attempt the caller has given up on is dropped, even while a
// later attempt of the same call still waits: the call completes once, with
// the later attempt's reply.
func TestStaleReplyIgnoredAfterRetry(t *testing.T) {
	eng, _, f := testFabric(t, netsim.Link{Latency: sim.Millisecond})
	served := 0
	f.Broker("anl").Register("svc", func(env *Envelope, respond func(any, error)) {
		served++
		// The first request outlives its 100ms timeout: its reply lands at
		// 121ms, while the retry sent at 100ms waits (its reply lands at 132ms).
		proc, result := 119*sim.Millisecond, "first"
		if served > 1 {
			proc, result = 30*sim.Millisecond, "second"
		}
		eng.Schedule(proc, func() { respond(result, nil) })
	})
	calls := 0
	var got any
	var gotErr error
	var at sim.Time
	f.Call(CallOpts{From: addr("ornl", "c"), To: addr("anl", "svc"), Method: "svc",
		Timeout: 100 * sim.Millisecond, Retries: 1},
		func(r any, err error) { calls, got, gotErr, at = calls+1, r, err, eng.Now() })
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	if calls != 1 || gotErr != nil || got != "second" || at != 132*sim.Millisecond {
		t.Fatalf("callback ran %d times, last with %v, %v at %v; want once with second at 132ms", calls, got, gotErr, at)
	}
	m := f.Metrics()
	if ok, fail, retries := m.Counter("bus.rpc.ok").Value(), m.Counter("bus.rpc.failures").Value(),
		m.Counter("bus.rpc.retries").Value(); ok != 1 || fail != 0 || retries != 1 {
		t.Fatalf("rpc ok %d failures %d retries %d, want 1 0 1", ok, fail, retries)
	}
}

// A call that timed out returns its pendingCall to the pool; the next call
// takes it while the old call's reply is still on the wire. That reply must
// not complete the new call.
func TestStaleReplyDoesNotCompleteRecycledCall(t *testing.T) {
	eng, _, f := testFabric(t, netsim.Link{Latency: sim.Millisecond})
	b := f.Broker("anl")
	b.Register("slow", func(_ *Envelope, respond func(any, error)) {
		eng.Schedule(50*sim.Millisecond, func() { respond("slow", nil) }) // reply lands at 52ms
	})
	b.Register("fast", func(_ *Envelope, respond func(any, error)) {
		eng.Schedule(40*sim.Millisecond, func() { respond("fast", nil) }) // reply lands at 63ms
	})
	var aCalls, bCalls int
	var aErr, bErr error
	var bGot any
	var bAt sim.Time
	f.Call(CallOpts{From: addr("ornl", "c"), To: addr("anl", "slow"), Method: "slow", Timeout: 20 * sim.Millisecond},
		func(_ any, err error) {
			aCalls, aErr = aCalls+1, err
			// Issued at 21ms from the timed-out call's callback.
			eng.Schedule(sim.Millisecond, func() {
				recycled := f.pcFree
				f.Call(CallOpts{From: addr("ornl", "c"), To: addr("anl", "fast"), Method: "fast", Timeout: sim.Second},
					func(r any, err error) { bCalls, bGot, bErr, bAt = bCalls+1, r, err, eng.Now() })
				if recycled == nil || f.pcFree == recycled {
					t.Error("the second call did not reuse the first call's pendingCall")
				}
			})
		})
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	if aCalls != 1 || !errors.Is(aErr, ErrTimeout) {
		t.Fatalf("first call: %d callbacks, last %v; want one ErrTimeout", aCalls, aErr)
	}
	if bCalls != 1 || bErr != nil || bGot != "fast" || bAt != 63*sim.Millisecond {
		t.Fatalf("second call: %d callbacks, last %v, %v at %v; want one fast at 63ms", bCalls, bGot, bErr, bAt)
	}
}

// An ack that arrives after its attempt was redelivered settles nothing: the
// redelivery's timer keeps running. Every ack below is late until the link
// speeds up at 42ms, so attempts go out at 0, 15, 30 and 45ms and only the
// fourth is acknowledged.
func TestLateAckAfterRedelivery(t *testing.T) {
	eng, net, f := testFabric(t, netsim.Link{Latency: 10 * sim.Millisecond})
	var seen []sim.Time
	f.Subscribe(addr("anl", "sub"), "t", AtLeastOnce, func(*Envelope) { seen = append(seen, eng.Now()) })
	f.Publish(PublishOpts{From: addr("ornl", "pub"), Topic: "t", Payload: "x",
		QoS: AtLeastOnce, AckTimeout: 15 * sim.Millisecond, MaxAttempts: 8})
	eng.Schedule(42*sim.Millisecond, func() { net.LinkBetween("ornl", "anl").Latency = sim.Millisecond })
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	want := []sim.Time{10 * sim.Millisecond, 25 * sim.Millisecond, 40 * sim.Millisecond, 46 * sim.Millisecond}
	if fmt.Sprint(seen) != fmt.Sprint(want) {
		t.Fatalf("deliveries at %v, want %v", seen, want)
	}
	m := f.Metrics()
	if acked, redelivered, dlq := m.Counter("bus.pub.acked").Value(), m.Counter("bus.pub.redelivered").Value(),
		m.Counter("bus.pub.dlq").Value(); acked != 1 || redelivered != 3 || dlq != 0 {
		t.Fatalf("acked %d redelivered %d dlq %d, want 1 3 0", acked, redelivered, dlq)
	}
}

// A warm at-least-once publish to two subscribers, their deliveries and
// both acks allocate nothing.
func TestPublishAckAllocatesNothing(t *testing.T) {
	eng, _, f := testFabric(t, netsim.Link{Latency: sim.Millisecond})
	got := 0
	f.Subscribe(addr("anl", "sub"), "t", AtLeastOnce, func(*Envelope) { got++ })
	f.Subscribe(addr("slac", "sub"), "t", AtLeastOnce, func(*Envelope) { got++ })
	opts := PublishOpts{From: addr("ornl", "pub"), Topic: "t", Payload: "x", QoS: AtLeastOnce}
	publish := func() {
		f.Publish(opts)
		if err := eng.Run(); err != nil {
			t.Fatal(err)
		}
	}
	publish() // warm the envelope, publish and event pools
	if avg := testing.AllocsPerRun(100, publish); avg != 0 {
		t.Fatalf("a publish to two subscribers with acks allocates %v times, want 0", avg)
	}
	if acked := f.Metrics().Counter("bus.pub.acked").Value(); got != 2*102 || acked != 2*102 {
		t.Fatalf("delivered %d, acked %d, want %d each", got, acked, 2*102)
	}
}
