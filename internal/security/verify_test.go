package security

import (
	"bytes"
	"crypto/hmac"
	"crypto/sha256"
	"errors"
	"fmt"
	"maps"
	"math"
	"sort"
	"strings"
	"testing"

	"github.com/aisle-sim/aisle/internal/netsim"
	"github.com/aisle-sim/aisle/internal/rng"
	"github.com/aisle-sim/aisle/internal/sim"
)

// refCanonical is the fmt-based form that defined the signed bytes before
// signer.canonical replaced it. It stays here as the reference.
func refCanonical(t *Token) []byte {
	keys := make([]string, 0, len(t.Attributes))
	for k := range t.Attributes {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var b strings.Builder
	fmt.Fprintf(&b, "sub=%d:%s|iss=%d:%s|aud=%d:%s|iat=%d|exp=%d",
		len(t.Subject), t.Subject, len(t.Issuer), t.Issuer, len(t.Audience), t.Audience,
		t.IssuedAt, t.ExpiresAt)
	for _, k := range keys {
		v := t.Attributes[k]
		fmt.Fprintf(&b, "|%d:%s=%d:%s", len(k), k, len(v), v)
	}
	return []byte(b.String())
}

// refSign is the one-shot signature over refCanonical.
func refSign(key []byte, t *Token) []byte {
	mac := hmac.New(sha256.New, key)
	mac.Write(refCanonical(t))
	return mac.Sum(nil)
}

func randomToken(r *rng.Stream) *Token {
	words := []string{"", "a", "role", "orchestrator", "x|y", "k=v", "|", "=", "a,b",
		"sub=", "|iss=ornl", "é✓", "\xff\x00", " spaced ", "0", "-1"}
	word := func() string { return words[r.Intn(len(words))] }
	times := []sim.Time{0, 1, -1, 30 * sim.Second, math.MaxInt64, math.MinInt64, sim.Time(r.Uint64())}
	t := &Token{
		Subject:   word(),
		Issuer:    netsim.SiteID(word()),
		Audience:  netsim.SiteID(word()),
		IssuedAt:  times[r.Intn(len(times))],
		ExpiresAt: times[r.Intn(len(times))],
	}
	switch n := r.Intn(6); n {
	case 0: // nil attributes
	case 1:
		t.Attributes = map[string]string{}
	default:
		t.Attributes = make(map[string]string)
		for i := 0; i < n; i++ {
			t.Attributes[word()] = word()
		}
	}
	return t
}

// One signer, reused across every token, must produce the reference bytes
// and the reference signature each time.
func TestCanonicalMatchesReference(t *testing.T) {
	r := rng.New(20)
	key := []byte("ornl-key")
	s := signer{key: key}
	for i := 0; i < 2000; i++ {
		tok := randomToken(r)
		if got, want := s.canonical(tok), refCanonical(tok); !bytes.Equal(got, want) {
			t.Fatalf("token %d %+v:\n got %q\nwant %q", i, tok, got, want)
		}
		if got, want := s.sign(tok), refSign(key, tok); !bytes.Equal(got, want) {
			t.Fatalf("token %d %+v: signature %x, want %x", i, tok, got, want)
		}
	}
}

// Issue signs the reference bytes, and a later Issue through the same
// signer leaves the signatures already handed out alone.
func TestIssueSignsReferenceBytes(t *testing.T) {
	_, _, ornl, _ := fixture(t)
	var toks []*Token
	for i := 0; i < 3; i++ {
		toks = append(toks, ornl.Issue(Principal{ID: fmt.Sprint("agent-", i),
			Attributes: map[string]string{"role": "orchestrator", "n": fmt.Sprint(i)}}, "anl"))
	}
	for i, tok := range toks {
		if want := refSign([]byte("ornl-key"), tok); !bytes.Equal(tok.Sig, want) {
			t.Fatalf("issue %d: sig %x, want %x", i, tok.Sig, want)
		}
	}
}

func cloneToken(t *Token) *Token {
	c := *t
	c.Attributes = maps.Clone(t.Attributes)
	c.Sig = bytes.Clone(t.Sig)
	return &c
}

// Every edit of a signed field, and every damaged signature, is refused —
// before and after the genuine token has just verified at the same site, so
// nothing a successful verification leaves behind can vouch for a copy.
func TestTamperMatrix(t *testing.T) {
	eng, fed, ornl, _ := fixture(t)
	ornl.TokenTTL = 30 * sim.Second
	genuine := ornl.Issue(Principal{ID: "agent-1", Site: "ornl",
		Attributes: map[string]string{"role": "viewer", "clearance": "standard"}}, "anl")

	tampers := []struct {
		name string
		edit func(*Token)
	}{
		{"subject", func(t *Token) { t.Subject = "agent-2" }},
		{"issuer to another trusted issuer", func(t *Token) { t.Issuer = "anl" }},
		{"audience", func(t *Token) { t.Audience = "" }},
		{"issued at", func(t *Token) { t.IssuedAt-- }},
		{"expiry extended", func(t *Token) { t.ExpiresAt += sim.Hour }},
		{"attribute value", func(t *Token) { t.Attributes["role"] = "admin" }},
		{"attribute added", func(t *Token) { t.Attributes["admin"] = "true" }},
		{"attribute removed", func(t *Token) { delete(t.Attributes, "clearance") }},
		{"attributes nil", func(t *Token) { t.Attributes = nil }},
		{"sig bit flipped", func(t *Token) { t.Sig[len(t.Sig)-1] ^= 1 }},
		{"sig truncated", func(t *Token) { t.Sig = t.Sig[:len(t.Sig)-1] }},
		{"sig empty", func(t *Token) { t.Sig = nil }},
		{"sig chaos-forged", func(t *Token) { t.Sig = []byte("chaos-forged") }},
	}
	check := func(stage string, wantGenuine error) {
		t.Helper()
		for _, tc := range tampers {
			forged := cloneToken(genuine)
			tc.edit(forged)
			for _, when := range []string{"before", "after"} {
				if err := fed.Verify("anl", forged); !errors.Is(err, ErrBadSignature) {
					t.Errorf("%s, %s, %s genuine verify: err = %v, want ErrBadSignature", stage, tc.name, when, err)
				}
				if err := fed.Verify("anl", genuine); !errors.Is(err, wantGenuine) {
					t.Errorf("%s, genuine token after %s: err = %v, want %v", stage, tc.name, err, wantGenuine)
				}
			}
		}
	}
	check("fresh", nil)

	// The shallow copy chaos.Bind makes shares the attribute map.
	forged := *genuine
	forged.Sig = []byte("chaos-forged")
	if err := fed.Verify("anl", &forged); !errors.Is(err, ErrBadSignature) {
		t.Errorf("shallow chaos-forged copy: err = %v, want ErrBadSignature", err)
	}
	// A token whose issuer nobody vouches for never reaches the signature.
	rogue := cloneToken(genuine)
	rogue.Issuer = "rogue"
	if err := fed.Verify("anl", rogue); !errors.Is(err, ErrUntrustedIssuer) {
		t.Errorf("untrusted issuer: err = %v, want ErrUntrustedIssuer", err)
	}
	if err := fed.Verify("ornl", genuine); !errors.Is(err, ErrWrongAudience) {
		t.Errorf("genuine token at the wrong site: err = %v, want ErrWrongAudience", err)
	}

	// Past expiry the genuine token is refused as expired; a copy with the
	// expiry pushed out is still a bad signature, not a live token.
	if err := eng.RunUntil(31 * sim.Second); err != nil {
		t.Fatal(err)
	}
	check("expired", ErrExpired)
}

func TestKeyRotation(t *testing.T) {
	eng, fed, ornl, _ := fixture(t)
	old := ornl.Issue(Principal{ID: "a"}, "anl")
	if err := fed.Verify("anl", old); err != nil {
		t.Fatalf("before rotation: %v", err)
	}
	rotated := NewIdentityProvider(eng, "ornl", []byte("ornl-key-2"))
	fed.RegisterIdP(rotated)
	if err := fed.Verify("anl", old); !errors.Is(err, ErrBadSignature) {
		t.Fatalf("old token after rotation: err = %v, want ErrBadSignature", err)
	}
	if err := fed.Verify("anl", rotated.Issue(Principal{ID: "a"}, "anl")); err != nil {
		t.Fatalf("new token after rotation: %v", err)
	}
	if err := fed.Verify("anl", ornl.Issue(Principal{ID: "a"}, "anl")); !errors.Is(err, ErrBadSignature) {
		t.Fatalf("token minted under the retired key: err = %v, want ErrBadSignature", err)
	}
}

func TestVerifyAndAllowPathAllocationFree(t *testing.T) {
	_, fed, ornl, anl := fixture(t)
	fed.maxAudit = 8
	pdp := &PDP{}
	pdp.AddPolicy(Policy{Name: "instruments", Resource: "instr/*", Action: "call",
		Conditions: []Condition{{Attr: "role", Op: OpIn, Value: "orchestrator, service"}}})
	g := &Guard{Fed: fed, PDP: pdp}
	attrs := map[string]string{"role": "service", "clearance": "standard"}
	toks := []*Token{
		ornl.Issue(Principal{ID: "svc@ornl", Attributes: attrs}, "anl"),
		anl.Issue(Principal{ID: "svc@anl", Attributes: attrs}, ""),
	}
	for i := 0; i < 2*fed.maxAudit; i++ { // key both signers, wrap the ring
		if err := g.Check("anl", toks[i%2], "call", "instr/xrd"); err != nil {
			t.Fatal(err)
		}
	}
	i := 0
	if n := testing.AllocsPerRun(200, func() {
		if err := fed.Verify("anl", toks[i%2]); err != nil {
			t.Fatal(err)
		}
		i++
	}); n != 0 {
		t.Errorf("Verify allocates %v per call, want 0", n)
	}
	if n := testing.AllocsPerRun(200, func() {
		if err := g.Check("anl", toks[i%2], "call", "instr/xrd"); err != nil {
			t.Fatal(err)
		}
		i++
	}); n != 0 {
		t.Errorf("Guard.Check allow path allocates %v per call, want 0", n)
	}
	if got := fed.Metrics().Counter("security.allowed").Value(); got != int64(2*fed.maxAudit)+201 {
		t.Errorf("security.allowed = %d, want every allowed check counted", got)
	}
}

func TestAuditRing(t *testing.T) {
	// Each case runs decisions on a fresh federation bounded at max and
	// reads the log after every step of steps: it must hold the most recent
	// min(decisions, max) entries, oldest first, and reading must not
	// disturb the order (a step of 0 reads the same ring again).
	for _, c := range []struct {
		max   int
		steps []int
	}{
		{1, []int{3, 0}},
		{4, []int{2, 7, 0, 1, 2}},
		{6, []int{5, 9, 0, 2}},
		// 3×512+5 decisions: fills chunks 0 and 1, wraps in chunk 0 and
		// leaves the oldest entry mid-chunk 1.
		{2*auditChunk + 3, []int{auditChunk, 1, auditChunk + 2, 3, auditChunk - 1, 0}},
	} {
		_, fed, ornl, _ := fixture(t)
		fed.maxAudit = c.max
		g := &Guard{Fed: fed, PDP: &PDP{}}
		tok := ornl.Issue(Principal{ID: "x"}, "anl")
		next := 0
		for _, n := range c.steps {
			for range n {
				_ = g.Check("anl", tok, "call", fmt.Sprint("r", next))
				next++
			}
			audit := fed.Audit()
			if want := min(next, c.max); len(audit) != want {
				t.Fatalf("bound %d, after %d decisions: %d entries retained, want %d", c.max, next, len(audit), want)
			}
			for i, e := range audit {
				if want := fmt.Sprint("r", next-len(audit)+i); e.Resource != want || e.Subject != "x" || e.Allowed {
					t.Fatalf("bound %d, after %d decisions: entry %d = %+v, want resource %s", c.max, next, i, e, want)
				}
			}
		}
		if got := fed.Metrics().Counter("security.checks").Value(); got != int64(next) {
			t.Errorf("bound %d: security.checks = %d, want %d", c.max, got, next)
		}
	}
}

func TestPDPInOptions(t *testing.T) {
	cases := []struct {
		value, v string
		want     bool
	}{
		{"orchestrator,service", "service", true},
		{"orchestrator,service", "orchestrator", true},
		{"orchestrator,service", "orchestrator,service", false},
		{"orchestrator,service", "serv", false},
		{" a ,\tb\n", "b", true},
		{"", "", true}, // one empty option
		{"", "a", false},
		{"a,,b", "", true},
		{"a,", "", true},
		{"a", "", false},
	}
	for _, c := range cases {
		got := Condition{Attr: "x", Op: OpIn, Value: c.value}.match(map[string]string{"x": c.v})
		if got != c.want {
			t.Errorf("%q in %q = %v, want %v", c.v, c.value, got, c.want)
		}
	}
}

// FuzzVerifyTamper presents edited copies of one genuine token. A copy
// verifies if and only if every field and the signature are the genuine
// ones.
func FuzzVerifyTamper(f *testing.F) {
	eng := sim.NewEngine()
	fed := NewFederation(eng)
	ornl := NewIdentityProvider(eng, "ornl", []byte("ornl-key"))
	fed.RegisterIdP(ornl)
	fed.RegisterIdP(NewIdentityProvider(eng, "anl", []byte("anl-key")))
	fed.TrustAll([]netsim.SiteID{"ornl", "anl"})
	genuine := ornl.Issue(Principal{ID: "agent-1",
		Attributes: map[string]string{"role": "viewer", "clearance": "standard"}}, "anl")
	iat, exp := int64(genuine.IssuedAt), int64(genuine.ExpiresAt)

	f.Add("agent-1", "ornl", "anl", iat, exp, "role", "viewer", "clearance", "standard", genuine.Sig)
	f.Add("agent-1", "ornl", "anl", iat, exp, "clearance", "standard", "role", "viewer", genuine.Sig)
	f.Add("agent-2", "ornl", "anl", iat, exp, "role", "viewer", "clearance", "standard", genuine.Sig)
	f.Add("agent-1", "anl", "anl", iat, exp, "role", "viewer", "clearance", "standard", genuine.Sig)
	f.Add("agent-1", "rogue", "anl", iat, exp, "role", "viewer", "clearance", "standard", genuine.Sig)
	f.Add("agent-1", "ornl", "", iat, exp, "role", "viewer", "clearance", "standard", genuine.Sig)
	f.Add("agent-1", "ornl", "anl", iat-1, exp, "role", "viewer", "clearance", "standard", genuine.Sig)
	f.Add("agent-1", "ornl", "anl", iat, exp+int64(sim.Hour), "role", "viewer", "clearance", "standard", genuine.Sig)
	f.Add("agent-1", "ornl", "anl", iat, int64(math.MinInt64), "role", "viewer", "clearance", "standard", genuine.Sig)
	f.Add("agent-1", "ornl", "anl", iat, exp, "role", "admin", "clearance", "standard", genuine.Sig)
	f.Add("agent-1", "ornl", "anl", iat, exp, "role", "viewer", "role", "viewer", genuine.Sig)
	f.Add("agent-1", "ornl", "anl", iat, exp, "role", "viewer", "admin", "true", genuine.Sig)
	f.Add("agent-1", "ornl", "anl", iat, exp, "role", "viewer", "clearance", "standard", genuine.Sig[:31])
	f.Add("agent-1", "ornl", "anl", iat, exp, "role", "viewer", "clearance", "standard", []byte("chaos-forged"))
	// One attribute whose value spells out the second in an unprefixed
	// "k=v|k=v" form must not present the signed bytes.
	f.Add("agent-1", "ornl", "anl", iat, exp, "clearance", "standard|role=viewer", "clearance", "standard|role=viewer", genuine.Sig)

	var s signer
	f.Fuzz(func(t *testing.T, sub, iss, aud string, iat, exp int64, k1, v1, k2, v2 string, sig []byte) {
		tok := &Token{Subject: sub, Issuer: netsim.SiteID(iss), Audience: netsim.SiteID(aud),
			IssuedAt: sim.Time(iat), ExpiresAt: sim.Time(exp),
			Attributes: map[string]string{k1: v1}, Sig: sig}
		tok.Attributes[k2] = v2
		if got, want := s.canonical(tok), refCanonical(tok); !bytes.Equal(got, want) {
			t.Fatalf("canonical %q, reference %q", got, want)
		}

		sameFields := tok.Subject == genuine.Subject && tok.Issuer == genuine.Issuer &&
			tok.Audience == genuine.Audience && tok.IssuedAt == genuine.IssuedAt &&
			tok.ExpiresAt == genuine.ExpiresAt && maps.Equal(tok.Attributes, genuine.Attributes)
		err := fed.Verify("anl", tok)
		switch {
		case sameFields && bytes.Equal(sig, genuine.Sig):
			if err != nil {
				t.Fatalf("genuine fields and signature refused: %v", err)
			}
		case iss != "ornl" && iss != "anl":
			if !errors.Is(err, ErrUntrustedIssuer) {
				t.Fatalf("issuer %q: err = %v, want ErrUntrustedIssuer", iss, err)
			}
		case !errors.Is(err, ErrBadSignature):
			t.Fatalf("tampered token %+v: err = %v, want ErrBadSignature", tok, err)
		}
		if err := fed.Verify("anl", genuine); err != nil {
			t.Fatalf("genuine token refused after %+v: %v", tok, err)
		}
	})
}
