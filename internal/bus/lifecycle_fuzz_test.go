package bus_test

import (
	"testing"

	"github.com/aisle-sim/aisle/internal/bus"
	"github.com/aisle-sim/aisle/internal/netsim"
	"github.com/aisle-sim/aisle/internal/rng"
	"github.com/aisle-sim/aisle/internal/sim"
	"github.com/aisle-sim/aisle/internal/simtest"
)

// lifecycleReq is a fuzzed call's payload: which call it is, and how long
// the server takes to answer it.
type lifecycleReq struct {
	idx  int
	proc sim.Time
}

// FuzzBusLifecycle interleaves RPCs (random timeout, retries and server
// time), at-least-once publishes and loss windows over three sites, each
// step two bytes of ops, and runs the engine dry. Then every call's callback
// has fired exactly once, with its own call's result if any; the bus counts
// every call as ok or failed; every publish reached each subscriber or the
// dead-letter queue; and every delivery ended in an ack or a dead letter.
func FuzzBusLifecycle(f *testing.F) {
	f.Add(uint64(1), []byte{0, 0x10, 1, 0x21, 2, 0x01, 0, 0x9a, 3, 0x02, 1, 0x47})
	f.Fuzz(func(t *testing.T, seed uint64, ops []byte) {
		const maxSteps = 64
		if len(ops) > 2*maxSteps {
			ops = ops[:2*maxSteps]
		}
		st := simtest.New(rng.New(seed), netsim.Link{Latency: 5 * sim.Millisecond, Jitter: sim.Millisecond, Loss: 0.02},
			simtest.Names(3)...)
		const everySite = 1<<3 - 1
		var seen, dead []uint8 // per publish, by subscriber site bit
		for i, s := range st.Sites {
			bit := uint8(1) << i
			st.Fab.Subscribe(bus.Address{Site: s, Name: "sub"}, "t", bus.AtLeastOnce, func(env *bus.Envelope) {
				seen[env.Payload.(int)] |= bit
			})
			st.Fab.Broker(s).Register("svc", func(env *bus.Envelope, respond func(any, error)) {
				r := env.Payload.(lifecycleReq)
				st.Eng.Schedule(r.proc, func() { respond(r.idx, nil) })
			})
		}
		var fired []int // callbacks per call
		ok := 0
		// The shortest timeouts are under a round trip: late replies and acks.
		timeouts := []sim.Time{8 * sim.Millisecond, 20 * sim.Millisecond, 200 * sim.Millisecond}
		procs := []sim.Time{0, 10 * sim.Millisecond, 60 * sim.Millisecond, 300 * sim.Millisecond}
		waits := []sim.Time{sim.Millisecond, 10 * sim.Millisecond, 100 * sim.Millisecond, sim.Second}
		for i := 0; i+1 < len(ops); i += 2 {
			op, arg := ops[i], int(ops[i+1])
			from := st.Sites[int(op>>2)%3]
			switch op % 4 {
			case 0: // call
				idx := len(fired)
				fired = append(fired, 0)
				st.Fab.Call(bus.CallOpts{
					From: bus.Address{Site: from, Name: "c"}, To: bus.Address{Site: st.Sites[arg%3], Name: "svc"},
					Method: "svc", Payload: lifecycleReq{idx: idx, proc: procs[arg>>2%4]},
					Timeout: timeouts[arg>>4%3], Retries: arg >> 6,
				}, func(result any, err error) {
					fired[idx]++
					if err == nil {
						ok++
						if result != idx {
							t.Errorf("call %d completed with call %v's result", idx, result)
						}
					}
				})
			case 1: // at-least-once publish
				idx := len(seen)
				seen, dead = append(seen, 0), append(dead, 0)
				st.Fab.Publish(bus.PublishOpts{From: bus.Address{Site: from, Name: "p"}, Topic: "t", Payload: idx,
					QoS: bus.AtLeastOnce, AckTimeout: timeouts[arg%3], MaxAttempts: 1 + arg>>2%4})
			case 2: // loss window on one link
				to := st.Sites[(int(op>>2)+1+arg%2)%3]
				now := st.Eng.Now()
				st.Lose(from, to, now, now+waits[arg>>1%4])
			case 3:
				st.RunFor(t, waits[arg%4])
			}
		}
		st.Run(t)

		if n := st.Eng.Pending(); n != 0 {
			t.Fatalf("engine stopped with %d events pending", n)
		}
		for i, n := range fired {
			if n != 1 {
				t.Errorf("call %d: callback fired %d times", i, n)
			}
		}
		m := st.Fab.Metrics()
		if okN, failN := m.Counter("bus.rpc.ok").Value(), m.Counter("bus.rpc.failures").Value(); int(okN) != ok || int(okN+failN) != len(fired) {
			t.Errorf("bus counts %d ok + %d failed for %d calls, %d ok callbacks", okN, failN, len(fired), ok)
		}
		for _, env := range st.Fab.DeadLetters() {
			for i, s := range st.Sites {
				if env.To.Site == s {
					dead[env.Payload.(int)] |= 1 << i
				}
			}
		}
		for i := range seen {
			if seen[i]|dead[i] != everySite {
				t.Errorf("publish %d: seen by %03b, dead-lettered for %03b, want every site", i, seen[i], dead[i])
			}
		}
		// Each publish starts one delivery per subscriber; each ends acked
		// or dead-lettered, and the rest of the sends were redeliveries.
		chains := m.Counter("bus.pub.sent").Value() - m.Counter("bus.pub.redelivered").Value()
		if ended := m.Counter("bus.pub.acked").Value() + m.Counter("bus.pub.dlq").Value(); chains != int64(3*len(seen)) || ended != chains {
			t.Errorf("%d deliveries started for %d publishes, %d ended", chains, len(seen), ended)
		}
	})
}
