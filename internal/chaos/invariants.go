package chaos

import (
	"fmt"

	"github.com/aisle-sim/aisle/internal/bus"
	"github.com/aisle-sim/aisle/internal/knowledge"
	"github.com/aisle-sim/aisle/internal/netsim"
	"github.com/aisle-sim/aisle/internal/security"
)

// Checker watches the invariants a chaos run must not break. It is fed
// continuously (job submission/terminal hooks, a network delivery hook, a
// bus tap) and audited at the end (Check). Violations accumulate as
// human-readable strings; an empty list after Check means the run held.
//
// The four invariants, mapped to their hooks:
//
//   - Exactly one terminal callback per submitted job: Submitted/Terminal,
//     audited by Check.
//   - No message delivered across a down link: WatchNet.
//   - No unauthenticated insight admitted to merge: BusTap re-verifies
//     knowledge-topic credentials behind the security middleware.
//   - Quarantined insights never seed an optimizer: CheckKnowledge re-vets
//     every merged observation a base would feed to Observations.
//
// All hooks run on the simulation's goroutine, so the checker takes no
// locks; read it between engine steps.
type Checker struct {
	terminals  map[string]int
	order      []string
	violations []string

	// OnViolation, when non-nil, fires synchronously for each violation as
	// it is recorded — the health engine uses it to trip a flight-recorder
	// snapshot at the instant an invariant breaks. The callback must not
	// call back into the checker.
	OnViolation func(msg string)
}

// violate appends a violation and fires the hook.
func (c *Checker) violate(msg string) {
	c.violations = append(c.violations, msg)
	if c.OnViolation != nil {
		c.OnViolation(msg)
	}
}

// NewChecker builds an empty checker.
func NewChecker() *Checker {
	return &Checker{terminals: make(map[string]int)}
}

// Submitted registers a job that must reach exactly one terminal outcome.
func (c *Checker) Submitted(id string) {
	if _, dup := c.terminals[id]; dup {
		c.violate(fmt.Sprintf("job %s submitted twice", id))
		return
	}
	c.terminals[id] = 0
	c.order = append(c.order, id)
}

// Terminal records one terminal callback (completion or terminal error) for
// a submitted job. A second terminal for the same job is a violation.
func (c *Checker) Terminal(id string, err error) {
	n, ok := c.terminals[id]
	if !ok {
		c.violate(fmt.Sprintf("terminal for unknown job %s", id))
		return
	}
	if n >= 1 {
		c.violate(fmt.Sprintf("job %s reached %d terminal callbacks", id, n+1))
	}
	c.terminals[id] = n + 1
}

// WatchNet installs the delivery-instant hook asserting that no cross-site
// message lands while the link between its endpoints is down. Pair with
// netsim's DropInFlight so messages caught mid-flight by a cut are dropped
// rather than delivered.
func (c *Checker) WatchNet(n *netsim.Network) {
	n.DeliverHook = func(msg netsim.Message) {
		if msg.From == msg.To {
			return
		}
		if l := n.LinkBetween(msg.From, msg.To); l == nil || !l.Up() {
			c.violate(fmt.Sprintf(
				"message %s->%s (%s) delivered across a down link", msg.From, msg.To, msg.Service))
		}
	}
}

// BusTap returns a bus middleware that independently re-verifies the
// credential on every knowledge publish. Install it AFTER the zero-trust
// middleware: envelopes the security layer rejects never reach the tap, so
// anything arriving here with a bad token means a forged credential slipped
// through admission — the invariant violation. The tap never rejects; it
// only observes.
func (c *Checker) BusTap(fed *security.Federation) bus.Middleware {
	return func(env *bus.Envelope) error {
		if env.Topic != "knowledge" || (env.Kind != bus.KindEvent && env.Kind != bus.KindQueueMsg) {
			return nil
		}
		tok, _ := env.Token.(*security.Token)
		if err := fed.Verify(env.To.Site, tok); err != nil {
			c.violate(fmt.Sprintf(
				"unauthenticated knowledge publish admitted at %s from %s: %v",
				env.To.Site, env.From.Site, err))
		}
		return nil
	}
}

// CheckKnowledge audits the end state of the knowledge federation at the
// given (honest) sites: every merged observation in a bounded domain must
// still pass that domain's sanity bound — i.e. nothing that should have
// been quarantined is positioned to seed an optimizer. A byzantine site's
// own base is excluded by the caller: it holds its own poison by
// construction.
func (c *Checker) CheckKnowledge(fed *knowledge.Federation, sites []netsim.SiteID) {
	for domain, bound := range fed.Bounds {
		for _, site := range sites {
			b := fed.Base(site)
			if b == nil {
				continue
			}
			points, values := b.Observations(domain)
			for i, v := range values {
				bad := bound.Max > bound.Min && (v < bound.Min || v > bound.Max)
				if !bad && bound.Space != nil {
					bad = bound.Space.Validate(points[i]) != nil
				}
				if bad {
					c.violate(fmt.Sprintf(
						"site %s holds out-of-bounds %s observation (value %g) visible to optimizers",
						site, domain, v))
				}
			}
		}
	}
}

// Check finalizes the terminal-callback audit: every submitted job must
// have reached exactly one terminal by now. It returns all violations.
func (c *Checker) Check() []string {
	for _, id := range c.order {
		// Extra terminals were flagged as they happened; the audit adds the
		// jobs that never reached one.
		if c.terminals[id] == 0 {
			c.violate(fmt.Sprintf(
				"job %s reached 0 terminal callbacks (want 1)", id))
		}
	}
	return append([]string(nil), c.violations...)
}

// Violations returns the violations recorded so far without the final
// terminal audit.
func (c *Checker) Violations() []string {
	return append([]string(nil), c.violations...)
}
