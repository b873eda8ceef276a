package security

import (
	"errors"
	"testing"

	"github.com/aisle-sim/aisle/internal/bus"
	"github.com/aisle-sim/aisle/internal/netsim"
	"github.com/aisle-sim/aisle/internal/rng"
	"github.com/aisle-sim/aisle/internal/sim"
	"github.com/aisle-sim/aisle/internal/simtest"
)

func fixture(t *testing.T) (*sim.Engine, *Federation, *IdentityProvider, *IdentityProvider) {
	t.Helper()
	eng := sim.NewEngine()
	fed := NewFederation(eng)
	ornl := NewIdentityProvider(eng, "ornl", []byte("ornl-key"))
	anl := NewIdentityProvider(eng, "anl", []byte("anl-key"))
	fed.RegisterIdP(ornl)
	fed.RegisterIdP(anl)
	fed.TrustAll([]netsim.SiteID{"ornl", "anl"})
	return eng, fed, ornl, anl
}

func TestTokenVerifyHappyPath(t *testing.T) {
	_, fed, ornl, _ := fixture(t)
	tok := ornl.Issue(Principal{ID: "agent-1", Site: "ornl",
		Attributes: map[string]string{"role": "orchestrator"}}, "anl")
	if err := fed.Verify("anl", tok); err != nil {
		t.Fatalf("valid token rejected: %v", err)
	}
}

func TestTokenExpiry(t *testing.T) {
	eng, fed, ornl, _ := fixture(t)
	ornl.TokenTTL = 10 * sim.Second
	tok := ornl.Issue(Principal{ID: "a"}, "anl")
	if err := eng.RunUntil(11 * sim.Second); err != nil {
		t.Fatal(err)
	}
	if err := fed.Verify("anl", tok); !errors.Is(err, ErrExpired) {
		t.Fatalf("err = %v, want ErrExpired", err)
	}
}

func TestTokenTamperDetected(t *testing.T) {
	_, fed, ornl, _ := fixture(t)
	tok := ornl.Issue(Principal{ID: "a", Attributes: map[string]string{"role": "viewer"}}, "anl")
	tok.Attributes = map[string]string{"role": "admin"} // privilege escalation
	if err := fed.Verify("anl", tok); !errors.Is(err, ErrBadSignature) {
		t.Fatalf("err = %v, want ErrBadSignature", err)
	}
}

func TestWrongAudience(t *testing.T) {
	_, fed, ornl, _ := fixture(t)
	tok := ornl.Issue(Principal{ID: "a"}, "anl")
	if err := fed.Verify("ornl", tok); !errors.Is(err, ErrWrongAudience) {
		t.Fatalf("err = %v, want ErrWrongAudience", err)
	}
}

func TestUntrustedIssuer(t *testing.T) {
	eng := sim.NewEngine()
	fed := NewFederation(eng)
	rogue := NewIdentityProvider(eng, "rogue", []byte("rogue-key"))
	fed.RegisterIdP(rogue)
	// No Trust() declarations: default deny.
	tok := rogue.Issue(Principal{ID: "a"}, "anl")
	if err := fed.Verify("anl", tok); !errors.Is(err, ErrUntrustedIssuer) {
		t.Fatalf("err = %v, want ErrUntrustedIssuer", err)
	}
}

func TestNilToken(t *testing.T) {
	_, fed, _, _ := fixture(t)
	if err := fed.Verify("anl", nil); !errors.Is(err, ErrNoToken) {
		t.Fatalf("err = %v, want ErrNoToken", err)
	}
}

func TestPDPDefaultDeny(t *testing.T) {
	pdp := &PDP{}
	if ok, _ := pdp.Authorize(map[string]string{"role": "admin"}, "call", "anything"); ok {
		t.Fatal("empty PDP must deny")
	}
}

func TestPDPPolicyMatching(t *testing.T) {
	pdp := &PDP{}
	pdp.AddPolicy(Policy{
		Name: "orchestrators-run", Resource: "instrument/*", Action: "call",
		Conditions: []Condition{{Attr: "role", Op: OpEquals, Value: "orchestrator"}},
	})
	cases := []struct {
		attrs    map[string]string
		action   string
		resource string
		want     bool
	}{
		{map[string]string{"role": "orchestrator"}, "call", "instrument/xrd-1", true},
		{map[string]string{"role": "orchestrator"}, "call", "datasets/d1", false},
		{map[string]string{"role": "viewer"}, "call", "instrument/xrd-1", false},
		{map[string]string{"role": "orchestrator"}, "delete", "instrument/xrd-1", false},
		{map[string]string{}, "call", "instrument/xrd-1", false},
	}
	for i, c := range cases {
		got, _ := pdp.Authorize(c.attrs, c.action, c.resource)
		if got != c.want {
			t.Errorf("case %d: Authorize = %v, want %v", i, got, c.want)
		}
	}
}

func TestPDPConditionOps(t *testing.T) {
	if !(Condition{Attr: "x", Op: OpIn, Value: "a, b ,c"}).match(map[string]string{"x": "b"}) {
		t.Fatal("OpIn failed")
	}
	if (Condition{Attr: "x", Op: OpIn, Value: "a,b"}).match(map[string]string{"x": "z"}) {
		t.Fatal("OpIn matched non-member")
	}
	if !(Condition{Attr: "x", Op: OpNotEquals, Value: "a"}).match(map[string]string{}) {
		t.Fatal("OpNotEquals should match missing attr")
	}
	if (Condition{Attr: "x", Op: OpIn, Value: "a"}).match(map[string]string{}) {
		t.Fatal("OpIn matched missing attr")
	}
}

func TestPDPWildcardAction(t *testing.T) {
	pdp := &PDP{}
	pdp.AddPolicy(Policy{Name: "admin-all", Resource: "*", Action: "*",
		Conditions: []Condition{{Attr: "role", Op: OpEquals, Value: "admin"}}})
	if ok, _ := pdp.Authorize(map[string]string{"role": "admin"}, "anything", "res"); !ok {
		t.Fatal("wildcard policy failed")
	}
}

func TestGuardAuditTrail(t *testing.T) {
	_, fed, ornl, _ := fixture(t)
	pdp := &PDP{}
	pdp.AddPolicy(Policy{Name: "p", Resource: "r", Action: "call",
		Conditions: []Condition{{Attr: "role", Op: OpEquals, Value: "agent"}}})
	g := &Guard{Fed: fed, PDP: pdp}

	good := ornl.Issue(Principal{ID: "ok", Attributes: map[string]string{"role": "agent"}}, "anl")
	bad := ornl.Issue(Principal{ID: "nope", Attributes: map[string]string{"role": "intern"}}, "anl")

	if err := g.Check("anl", good, "call", "r"); err != nil {
		t.Fatalf("authorized check failed: %v", err)
	}
	if err := g.Check("anl", bad, "call", "r"); !errors.Is(err, ErrDenied) {
		t.Fatalf("err = %v, want ErrDenied", err)
	}
	audit := fed.Audit()
	if len(audit) != 2 {
		t.Fatalf("audit entries = %d, want 2", len(audit))
	}
	if !audit[0].Allowed || audit[1].Allowed {
		t.Fatalf("audit decisions wrong: %+v", audit)
	}
	if audit[1].Subject != "nope" {
		t.Fatalf("audit subject = %q", audit[1].Subject)
	}
}

func TestTokenManagerContinuousRenewal(t *testing.T) {
	eng, fed, ornl, _ := fixture(t)
	ornl.TokenTTL = 10 * sim.Second
	tm := NewTokenManager(ornl, Principal{ID: "agent", Attributes: map[string]string{"role": "agent"}}, "anl")
	defer tm.Stop()

	// Sample the token at 4s intervals out to 60s: it must always verify,
	// which is only possible if renewal is happening.
	failures := 0
	for i := 1; i <= 15; i++ {
		eng.Schedule(sim.Time(i)*4*sim.Second, func() {
			if err := fed.Verify("anl", tm.Token()); err != nil {
				failures++
			}
		})
	}
	if err := eng.RunUntil(61 * sim.Second); err != nil {
		t.Fatal(err)
	}
	if failures > 0 {
		t.Fatalf("%d verification failures despite continuous renewal", failures)
	}
	if tm.Renewals() < 10 {
		t.Fatalf("renewals = %d, want >= 10 over 60s at 5s cadence", tm.Renewals())
	}
}

// End-to-end: zero-trust middleware on the bus rejects unauthenticated and
// unauthorized calls but passes legitimate traffic.
func TestBusMiddlewareEndToEnd(t *testing.T) {
	st := simtest.New(rng.New(9), netsim.Link{Latency: 5 * sim.Millisecond}, "ornl", "anl")
	eng, fabric := st.Eng, st.Fab

	fed := NewFederation(eng)
	ornl := NewIdentityProvider(eng, "ornl", []byte("k1"))
	fed.RegisterIdP(ornl)
	fed.TrustAll([]netsim.SiteID{"ornl", "anl"})
	pdp := &PDP{}
	pdp.AddPolicy(Policy{Name: "agents-call", Resource: "*", Action: "call",
		Conditions: []Condition{{Attr: "role", Op: OpEquals, Value: "agent"}}})
	fabric.Use(BusMiddleware(&Guard{Fed: fed, PDP: pdp}))

	fabric.Broker("anl").RegisterFunc("svc", 0, func(*bus.Envelope) (any, error) { return "ok", nil })

	tok := ornl.Issue(Principal{ID: "a1", Attributes: map[string]string{"role": "agent"}}, "anl")
	var okErr, noTokErr error
	fabric.Call(bus.CallOpts{
		From: bus.Address{Site: "ornl", Name: "c"}, To: bus.Address{Site: "anl", Name: "svc"},
		Method: "svc", Token: tok,
	}, func(_ any, err error) { okErr = err })
	fabric.Call(bus.CallOpts{
		From: bus.Address{Site: "ornl", Name: "c"}, To: bus.Address{Site: "anl", Name: "svc"},
		Method: "svc", // no token
	}, func(_ any, err error) { noTokErr = err })

	st.Run(t)
	if okErr != nil {
		t.Fatalf("authenticated call failed: %v", okErr)
	}
	if noTokErr == nil {
		t.Fatal("unauthenticated call succeeded through zero-trust middleware")
	}
	if fed.Metrics().Counter("security.authn_failures").Value() != 1 {
		t.Fatal("authn failure not counted")
	}
}

func TestAuditBounded(t *testing.T) {
	_, fed, ornl, _ := fixture(t)
	fed.maxAudit = 10
	g := &Guard{Fed: fed, PDP: &PDP{}}
	tok := ornl.Issue(Principal{ID: "x"}, "anl")
	for i := 0; i < 25; i++ {
		_ = g.Check("anl", tok, "call", "r")
	}
	if len(fed.Audit()) != 10 {
		t.Fatalf("audit length = %d, want bounded at 10", len(fed.Audit()))
	}
}
