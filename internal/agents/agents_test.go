package agents

import (
	"errors"
	"testing"

	"github.com/aisle-sim/aisle/internal/bus"
	"github.com/aisle-sim/aisle/internal/netsim"
	"github.com/aisle-sim/aisle/internal/rng"
	"github.com/aisle-sim/aisle/internal/sim"
	"github.com/aisle-sim/aisle/internal/simtest"
)

func testRuntime(t *testing.T) (*simtest.Stack, *Runtime) {
	t.Helper()
	st := simtest.New(rng.New(4), netsim.Link{Latency: 5 * sim.Millisecond}, "ornl", "anl")
	return st, NewRuntime(st.Fab)
}

func TestSpawnAndCall(t *testing.T) {
	st, rt := testRuntime(t)
	rt.Spawn("anl", "calc", RoleExecutor, func(a *Agent) {
		a.On("square", func(p any) (any, error) {
			n := p.(int)
			return n * n, nil
		})
	})
	caller := rt.Spawn("ornl", "boss", RoleOrchestrator, nil)
	var got any
	caller.Call(bus.Address{Site: "anl", Name: "calc"}, "square", 7, sim.Second,
		func(r any, err error) {
			if err != nil {
				t.Errorf("call failed: %v", err)
			}
			got = r
		})
	st.Run(t)
	if got != 49 {
		t.Fatalf("got %v", got)
	}
}

func TestUnknownMethod(t *testing.T) {
	st, rt := testRuntime(t)
	rt.Spawn("anl", "a", RoleExecutor, nil)
	c := rt.Spawn("ornl", "c", RoleOrchestrator, nil)
	var gotErr error
	c.Call(bus.Address{Site: "anl", Name: "a"}, "nope", nil, sim.Second,
		func(_ any, err error) { gotErr = err })
	st.Run(t)
	if gotErr == nil {
		t.Fatal("unknown method should fail")
	}
}

func TestAgentState(t *testing.T) {
	_, rt := testRuntime(t)
	a := rt.Spawn("ornl", "stateful", RolePlanner, func(a *Agent) {
		a.Set("counter", 0)
	})
	if v, ok := a.Get("counter"); !ok || v != 0 {
		t.Fatal("initial state missing")
	}
	a.Set("counter", 5)
	if v, _ := a.Get("counter"); v != 5 {
		t.Fatal("state update lost")
	}
}

func TestKillAndSuperviseRestart(t *testing.T) {
	st, rt := testRuntime(t)
	spawns := 0
	rt.Spawn("ornl", "worker", RoleExecutor, func(a *Agent) {
		spawns++
		a.On("ping", func(any) (any, error) { return "pong", nil })
	})
	sup := NewSupervisor(rt, "worker")
	sup.Start()
	defer sup.Stop()

	rt.Kill("worker")
	a, _ := rt.Agent("worker")
	if a.Alive() {
		t.Fatal("agent alive after kill")
	}

	// Calls to a dead agent fail.
	c := rt.Spawn("anl", "probe", RoleOrchestrator, nil)
	var deadErr error
	c.Call(bus.Address{Site: "ornl", Name: "worker"}, "ping", nil, sim.Second,
		func(_ any, err error) { deadErr = err })

	st.RunUntil(t, 30*sim.Second)
	if deadErr == nil {
		t.Fatal("call to dead agent succeeded")
	}
	if !a.Alive() {
		t.Fatal("supervisor did not restart the agent")
	}
	if a.Restarts() != 1 {
		t.Fatalf("restarts = %d", a.Restarts())
	}
	if spawns != 2 {
		t.Fatalf("setup ran %d times, want 2", spawns)
	}

	// Restarted agent serves again. Stop supervision first so the event
	// queue can drain (the ticker otherwise runs forever in virtual time).
	sup.Stop()
	var pong any
	c.Call(bus.Address{Site: "ornl", Name: "worker"}, "ping", nil, sim.Second,
		func(r any, err error) {
			if err != nil {
				t.Errorf("post-restart call: %v", err)
			}
			pong = r
		})
	st.Run(t)
	if pong != "pong" {
		t.Fatal("restarted agent unresponsive")
	}
}

func TestContractNetAwardsBestBid(t *testing.T) {
	st, rt := testRuntime(t)
	mkBidder := func(name string, value float64) bus.Address {
		a := rt.Spawn("anl", name, RoleExecutor, func(a *Agent) {
			a.On("cnp.bid", func(p any) (any, error) {
				return Bid{Agent: name, Value: value}, nil
			})
			a.On("cnp.award", func(p any) (any, error) {
				return "done-by-" + name, nil
			})
		})
		return a.Addr()
	}
	candidates := []bus.Address{
		mkBidder("slow", 1.0),
		mkBidder("fast", 9.0),
		mkBidder("mid", 5.0),
	}
	boss := rt.Spawn("ornl", "boss", RoleOrchestrator, nil)

	var winner string
	var result any
	ContractNet(rt, boss.Addr(), Task{ID: "t1", Kind: "synthesize"}, candidates, sim.Second,
		func(w string, r any, err error) {
			if err != nil {
				t.Errorf("cnp failed: %v", err)
			}
			winner, result = w, r
		})
	st.Run(t)
	if winner != "fast" {
		t.Fatalf("winner = %s, want fast", winner)
	}
	if result != "done-by-fast" {
		t.Fatalf("result = %v", result)
	}
}

func TestContractNetNoBids(t *testing.T) {
	st, rt := testRuntime(t)
	boss := rt.Spawn("ornl", "boss", RoleOrchestrator, nil)
	var gotErr error
	ContractNet(rt, boss.Addr(), Task{ID: "t"}, nil, sim.Second,
		func(_ string, _ any, err error) { gotErr = err })
	st.Run(t)
	if !errors.Is(gotErr, ErrNoBids) {
		t.Fatalf("err = %v, want ErrNoBids", gotErr)
	}
}

func TestContractNetSurvivesDeadBidder(t *testing.T) {
	st, rt := testRuntime(t)
	live := rt.Spawn("anl", "live", RoleExecutor, func(a *Agent) {
		a.On("cnp.bid", func(any) (any, error) { return Bid{Agent: "live", Value: 2}, nil })
		a.On("cnp.award", func(any) (any, error) { return "ok", nil })
	})
	dead := rt.Spawn("anl", "dead", RoleExecutor, func(a *Agent) {
		a.On("cnp.bid", func(any) (any, error) { return Bid{Agent: "dead", Value: 99}, nil })
	})
	rt.Kill("dead")
	boss := rt.Spawn("ornl", "boss", RoleOrchestrator, nil)

	var winner string
	ContractNet(rt, boss.Addr(), Task{ID: "t"}, []bus.Address{live.Addr(), dead.Addr()},
		sim.Second, func(w string, _ any, err error) {
			if err != nil {
				t.Errorf("cnp: %v", err)
			}
			winner = w
		})
	st.Run(t)
	if winner != "live" {
		t.Fatalf("winner = %q, want live (dead bidder excluded)", winner)
	}
}

func TestAgentsListing(t *testing.T) {
	_, rt := testRuntime(t)
	rt.Spawn("ornl", "zeta", RoleExecutor, nil)
	rt.Spawn("ornl", "alpha", RolePlanner, nil)
	names := rt.Agents()
	if len(names) != 2 || names[0] != "alpha" {
		t.Fatalf("Agents = %v", names)
	}
	if _, ok := rt.Agent("ghost"); ok {
		t.Fatal("ghost agent found")
	}
}
