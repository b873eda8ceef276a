// Package security implements AISLE's zero-trust communication layer
// (milestone M11): per-site identity providers issuing short-lived HMAC
// tokens, a federation trust map, attribute-based access control, continuous
// re-authentication through automatic token renewal, and an audit log of
// every authorization decision.
//
// The layer plugs into the bus as delivery middleware, so every inbound
// envelope — RPC, event, or queue delivery — is authenticated and authorized
// at its destination, exactly the "never trust, always verify" posture the
// paper prescribes for multi-institutional networks.
package security

import (
	"crypto/hmac"
	"crypto/sha256"
	"errors"
	"fmt"
	"hash"
	"slices"
	"strconv"
	"strings"

	"github.com/aisle-sim/aisle/internal/bus"
	"github.com/aisle-sim/aisle/internal/netsim"
	"github.com/aisle-sim/aisle/internal/sim"
	"github.com/aisle-sim/aisle/internal/telemetry"
)

// Errors returned by verification and authorization.
var (
	ErrUntrustedIssuer = errors.New("security: issuer not trusted")
	ErrBadSignature    = errors.New("security: bad token signature")
	ErrExpired         = errors.New("security: token expired")
	ErrWrongAudience   = errors.New("security: token audience mismatch")
	ErrDenied          = errors.New("security: denied by policy")
	ErrNoToken         = errors.New("security: missing token")
)

// Principal is an authenticated identity: a human operator, an agent, or an
// instrument controller.
type Principal struct {
	ID         string
	Site       netsim.SiteID
	Attributes map[string]string // e.g. role=orchestrator, clearance=standard
}

// Token is a signed, short-lived credential binding a principal to an
// audience site. Tokens are bearer credentials carried on bus envelopes.
type Token struct {
	Subject    string
	Issuer     netsim.SiteID
	Audience   netsim.SiteID
	Attributes map[string]string
	IssuedAt   sim.Time
	ExpiresAt  sim.Time
	Sig        []byte
}

// signer computes token signatures under one issuer key. It owns every
// buffer a signature needs, so signing allocates only while they grow. The
// HMAC state is keyed at first use: a signer costs nothing until it signs.
type signer struct {
	key  []byte
	mac  hash.Hash
	buf  []byte   // canonical bytes of the token being signed
	keys []string // its attribute names, sorted
	sum  [sha256.Size]byte
}

// canonical returns the deterministic byte string that is signed, rebuilt
// from t's fields as they are now. It is valid until the next call. Every
// string field carries its length ("sub=7:agent-1"), so no field's content
// can spell out a delimiter or a field of its own: two tokens sign the same
// bytes only if every field is equal.
func (s *signer) canonical(t *Token) []byte {
	keys := s.keys[:0]
	for k := range t.Attributes {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	b := appendField(append(s.buf[:0], "sub="...), t.Subject)
	b = appendField(append(b, "|iss="...), string(t.Issuer))
	b = appendField(append(b, "|aud="...), string(t.Audience))
	b = append(b, "|iat="...)
	b = strconv.AppendInt(b, int64(t.IssuedAt), 10)
	b = append(b, "|exp="...)
	b = strconv.AppendInt(b, int64(t.ExpiresAt), 10)
	for _, k := range keys {
		b = appendField(append(b, '|'), k)
		b = appendField(append(b, '='), t.Attributes[k])
	}
	s.keys, s.buf = keys, b
	return b
}

// appendField appends v as "<len>:<v>".
func appendField(b []byte, v string) []byte {
	b = strconv.AppendInt(b, int64(len(v)), 10)
	return append(append(b, ':'), v...)
}

// sign returns the HMAC-SHA256 of t's canonical bytes. The result is valid
// until the next call. Reset restores the keyed state hmac saved at its
// first Reset, so nothing is re-keyed per signature.
func (s *signer) sign(t *Token) []byte {
	if s.mac == nil {
		s.mac = hmac.New(sha256.New, s.key)
	}
	s.mac.Reset()
	s.mac.Write(s.canonical(t))
	return s.mac.Sum(s.sum[:0])
}

// IdentityProvider issues tokens for one site's principals.
type IdentityProvider struct {
	site   netsim.SiteID
	eng    *sim.Engine
	signer signer

	// TokenTTL bounds credential lifetime; short TTLs are what make the
	// authentication "continuous". Default 30s.
	TokenTTL sim.Time
}

// NewIdentityProvider creates an IdP for site with the given signing key,
// which must not be modified afterwards.
func NewIdentityProvider(eng *sim.Engine, site netsim.SiteID, key []byte) *IdentityProvider {
	return &IdentityProvider{site: site, eng: eng, signer: signer{key: key}, TokenTTL: 30 * sim.Second}
}

// Site reports the site this IdP serves.
func (p *IdentityProvider) Site() netsim.SiteID { return p.site }

// Issue mints a token for principal addressed to audience.
func (p *IdentityProvider) Issue(principal Principal, audience netsim.SiteID) *Token {
	t := &Token{
		Subject:    principal.ID,
		Issuer:     p.site,
		Audience:   audience,
		Attributes: principal.Attributes,
		IssuedAt:   p.eng.Now(),
		ExpiresAt:  p.eng.Now() + p.TokenTTL,
	}
	t.Sig = slices.Clone(p.signer.sign(t))
	return t
}

// Federation is the trust fabric: which issuer keys each site accepts. Like
// the engine it runs on, it is not safe for concurrent use.
type Federation struct {
	eng     *sim.Engine
	keys    map[netsim.SiteID][]byte
	trusts  map[netsim.SiteID]map[netsim.SiteID]bool
	metrics *telemetry.Registry

	// signers holds one keyed signer per issuer, made at that issuer's first
	// Verify and dropped when RegisterIdP replaces its key.
	signers map[netsim.SiteID]*signer

	// audit holds the log's n entries, at most maxAudit (the oldest are
	// dropped), in chunks of auditChunk so growth never re-copies what is
	// logged: ring index i lives at audit[i/auditChunk][i%auditChunk]. Once
	// n reaches maxAudit, oldest is the index of the oldest entry, the next
	// one overwritten.
	audit     [][]AuditEntry
	n, oldest int
	maxAudit  int

	// Guard.Check's counters, resolved at the first check.
	checks, authnFailures, authzDenials, allowed *telemetry.Counter
}

// auditChunk is the audit log's unit of growth, in entries.
const auditChunk = 512

// NewFederation returns an empty trust fabric.
func NewFederation(eng *sim.Engine) *Federation {
	return &Federation{
		eng:      eng,
		keys:     make(map[netsim.SiteID][]byte),
		trusts:   make(map[netsim.SiteID]map[netsim.SiteID]bool),
		metrics:  telemetry.NewRegistry(),
		maxAudit: 100000,
	}
}

// Metrics exposes security telemetry.
func (f *Federation) Metrics() *telemetry.Registry { return f.metrics }

// RegisterIdP records a site's signing key so members can verify its tokens.
func (f *Federation) RegisterIdP(p *IdentityProvider) {
	f.keys[p.site] = p.signer.key
	delete(f.signers, p.site)
}

// Trust declares that verifier accepts tokens issued by issuer. Trust is
// directional, mirroring real federated-identity agreements.
func (f *Federation) Trust(verifier, issuer netsim.SiteID) {
	m, ok := f.trusts[verifier]
	if !ok {
		m = make(map[netsim.SiteID]bool)
		f.trusts[verifier] = m
	}
	m[issuer] = true
}

// TrustAll establishes full mutual trust among sites (common testbed setup).
func (f *Federation) TrustAll(sites []netsim.SiteID) {
	for _, a := range sites {
		for _, b := range sites {
			if a != b {
				f.Trust(a, b)
			}
		}
	}
	for _, a := range sites {
		f.Trust(a, a)
	}
}

// Verify authenticates a token presented at site. It checks trust,
// signature, expiry, and audience.
func (f *Federation) Verify(at netsim.SiteID, t *Token) error {
	if t == nil {
		return ErrNoToken
	}
	if !f.trusts[at][t.Issuer] {
		return fmt.Errorf("%w: %s does not trust %s", ErrUntrustedIssuer, at, t.Issuer)
	}
	key, ok := f.keys[t.Issuer]
	if !ok {
		return fmt.Errorf("%w: no key for %s", ErrUntrustedIssuer, t.Issuer)
	}
	sg := f.signers[t.Issuer]
	if sg == nil {
		if f.signers == nil {
			f.signers = make(map[netsim.SiteID]*signer)
		}
		sg = &signer{key: key}
		f.signers[t.Issuer] = sg
	}
	if !hmac.Equal(sg.sign(t), t.Sig) {
		return ErrBadSignature
	}
	if f.eng.Now() >= t.ExpiresAt {
		return fmt.Errorf("%w at %v (exp %v)", ErrExpired, f.eng.Now(), t.ExpiresAt)
	}
	if t.Audience != "" && t.Audience != at {
		return fmt.Errorf("%w: token for %s presented at %s", ErrWrongAudience, t.Audience, at)
	}
	return nil
}

// Op is a comparison operator in a policy condition.
type Op int

// Condition operators.
const (
	OpEquals Op = iota
	OpNotEquals
	OpIn // value is a comma-separated set
)

// Condition constrains one token attribute.
type Condition struct {
	Attr  string
	Op    Op
	Value string
}

func (c Condition) match(attrs map[string]string) bool {
	v, ok := attrs[c.Attr]
	switch c.Op {
	case OpEquals:
		return ok && v == c.Value
	case OpNotEquals:
		return !ok || v != c.Value
	case OpIn:
		if !ok {
			return false
		}
		for rest, more := c.Value, true; more; {
			var opt string
			opt, rest, more = strings.Cut(rest, ",")
			if strings.TrimSpace(opt) == v {
				return true
			}
		}
		return false
	}
	return false
}

// Policy is an attribute-based access rule: a subject whose attributes meet
// all Conditions may perform Action on resources matching Resource.
// Resource supports a trailing "*" wildcard.
type Policy struct {
	Name       string
	Resource   string
	Action     string
	Conditions []Condition
}

func (p Policy) matchResource(res string) bool {
	if strings.HasSuffix(p.Resource, "*") {
		return strings.HasPrefix(res, strings.TrimSuffix(p.Resource, "*"))
	}
	return p.Resource == res
}

// PDP is a policy decision point: default deny, allow when any policy
// matches.
type PDP struct {
	policies []Policy
}

// AddPolicy appends an allow rule.
func (p *PDP) AddPolicy(pol Policy) { p.policies = append(p.policies, pol) }

// Authorize reports whether attrs may perform action on resource, and the
// name of the policy that allowed it.
func (p *PDP) Authorize(attrs map[string]string, action, resource string) (bool, string) {
	for _, pol := range p.policies {
		if pol.Action != action && pol.Action != "*" {
			continue
		}
		if !pol.matchResource(resource) {
			continue
		}
		allowed := true
		for _, c := range pol.Conditions {
			if !c.match(attrs) {
				allowed = false
				break
			}
		}
		if allowed {
			return true, pol.Name
		}
	}
	return false, ""
}

// AuditEntry records one authorization decision.
type AuditEntry struct {
	At       sim.Time
	Site     netsim.SiteID
	Subject  string
	Action   string
	Resource string
	Allowed  bool
	Reason   string
}

// Audit returns a copy of the audit log, most recent last.
func (f *Federation) Audit() []AuditEntry {
	out := make([]AuditEntry, f.n)
	for k := range out {
		i := (f.oldest + k) % f.n
		out[k] = f.audit[i/auditChunk][i%auditChunk]
	}
	return out
}

// record appends e until the log holds maxAudit entries, then overwrites the
// oldest entry in place.
func (f *Federation) record(e AuditEntry) {
	i := f.oldest
	if f.n < f.maxAudit {
		i = f.n
		if i%auditChunk == 0 {
			f.audit = append(f.audit, make([]AuditEntry, min(auditChunk, f.maxAudit-i)))
		}
		f.n++
	} else {
		f.oldest = (f.oldest + 1) % f.n
	}
	f.audit[i/auditChunk][i%auditChunk] = e
}

// Guard couples the federation with a PDP to make per-message decisions.
type Guard struct {
	Fed *Federation
	PDP *PDP
}

// Check authenticates the token and authorizes (action, resource) at site.
func (g *Guard) Check(at netsim.SiteID, t *Token, action, resource string) error {
	f := g.Fed
	if f.checks == nil {
		f.checks = f.metrics.Counter("security.checks")
		f.authnFailures = f.metrics.Counter("security.authn_failures")
		f.authzDenials = f.metrics.Counter("security.authz_denials")
		f.allowed = f.metrics.Counter("security.allowed")
	}
	f.checks.Inc()
	if err := f.Verify(at, t); err != nil {
		f.authnFailures.Inc()
		sub := ""
		if t != nil {
			sub = t.Subject
		}
		f.record(AuditEntry{At: f.eng.Now(), Site: at, Subject: sub,
			Action: action, Resource: resource, Allowed: false, Reason: err.Error()})
		return err
	}
	ok, why := g.PDP.Authorize(t.Attributes, action, resource)
	f.record(AuditEntry{At: f.eng.Now(), Site: at, Subject: t.Subject,
		Action: action, Resource: resource, Allowed: ok, Reason: why})
	if !ok {
		f.authzDenials.Inc()
		return fmt.Errorf("%w: %s on %s by %s", ErrDenied, action, resource, t.Subject)
	}
	f.allowed.Inc()
	return nil
}

// BusMiddleware returns a bus middleware enforcing zero trust on every
// envelope kind that carries intent (requests, events, queue messages).
// Replies and acks ride the correlation state of already-authorized calls.
func BusMiddleware(g *Guard) bus.Middleware {
	return func(env *bus.Envelope) error {
		switch env.Kind {
		case bus.KindRequest, bus.KindEvent, bus.KindQueueMsg:
			t, _ := env.Token.(*Token)
			action := "call"
			resource := env.To.Name
			if env.Kind != bus.KindRequest {
				action = "publish"
				resource = env.Topic
			}
			return g.Check(env.To.Site, t, action, resource)
		default:
			return nil
		}
	}
}

// TokenManager keeps a principal's token fresh: it renews at a fraction of
// TTL, implementing continuous authentication without manual re-issue.
type TokenManager struct {
	idp       *IdentityProvider
	principal Principal
	audience  netsim.SiteID
	current   *Token
	stop      func()
	renewals  int
}

// NewTokenManager issues the first token and schedules renewals at 50% TTL.
func NewTokenManager(idp *IdentityProvider, principal Principal, audience netsim.SiteID) *TokenManager {
	tm := &TokenManager{idp: idp, principal: principal, audience: audience}
	tm.current = idp.Issue(principal, audience)
	tm.stop = idp.eng.Ticker(idp.TokenTTL/2, func(int) {
		tm.current = idp.Issue(principal, audience)
		tm.renewals++
	})
	return tm
}

// Token returns the current (always fresh) token.
func (tm *TokenManager) Token() *Token { return tm.current }

// Renewals reports how many automatic renewals have occurred.
func (tm *TokenManager) Renewals() int { return tm.renewals }

// Stop cancels renewal.
func (tm *TokenManager) Stop() { tm.stop() }
