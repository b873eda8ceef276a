// Package chaos is AISLE's fault-injection harness: a seeded, deterministic
// schedule generator plus an injector that drives the federation's existing
// fault primitives (instrument outages and degradation, WAN partitions,
// credential forgery, byzantine knowledge publishing) off the sim clock.
//
// The design splits *what goes wrong* from *how it is applied*:
//
//   - Schedule(Config, sites) expands one seed into a reproducible list of
//     fault windows — pure data, inspectable and diffable before any
//     simulation runs.
//
//   - Injector applies a schedule to a Target (the handles chaos needs from
//     a federation), emitting one trace span and one labelled counter per
//     injection so every fault window lines up with the recovery actions it
//     triggered on the same Chrome-trace timeline.
//
// Alongside injection, Checker (invariants.go) watches the invariants the
// federation must keep *while* faults fire: every submitted job reaches
// exactly one terminal outcome, no message is delivered across a down link,
// no unauthenticated insight is merged, and quarantined insights never seed
// an optimizer.
package chaos

import (
	"sort"

	"github.com/aisle-sim/aisle/internal/netsim"
	"github.com/aisle-sim/aisle/internal/rng"
	"github.com/aisle-sim/aisle/internal/sim"
)

// Kind classifies one fault-injection window.
type Kind string

// Fault kinds the injector knows how to apply.
const (
	// KindSiteOutage takes a whole site dark: every instrument forced down
	// and every WAN link to the site cut for the window.
	KindSiteOutage Kind = "site-outage"
	// KindPartition cuts the site's WAN links (knowledge sync, routing, and
	// dispatch to/from it all stall) while its instruments keep running.
	KindPartition Kind = "partition"
	// KindDegrade ramps a site's instrument failure probability and
	// calibration drift for the window — the mid-campaign decay mode.
	KindDegrade Kind = "degrade"
	// KindBadCreds makes a site present forged credentials for the window,
	// exercising the zero-trust rejection path.
	KindBadCreds Kind = "bad-creds"
	// KindByzantine has a site publish out-of-bounds insights during the
	// window, exercising the knowledge quarantine.
	KindByzantine Kind = "byzantine"
)

// AllKinds lists every fault kind, in injection-stable order.
func AllKinds() []Kind {
	return []Kind{KindSiteOutage, KindPartition, KindDegrade, KindBadCreds, KindByzantine}
}

// Event is one scheduled fault window. Events are pure data: generating a
// schedule touches no simulation state.
type Event struct {
	Kind Kind
	// At is the window start, an offset from the instant the injector runs.
	At sim.Time
	// Duration is the window length; restoration fires at At+Duration.
	Duration sim.Time
	// Site is the fault domain.
	Site netsim.SiteID
	// FailureProb/Drift carry KindDegrade's ramp targets.
	FailureProb float64
	Drift       float64
}

// Config parameterizes schedule generation.
type Config struct {
	// Seed makes the schedule reproducible: equal Config + site list means
	// an identical schedule on every host.
	Seed uint64
	// Horizon is the window in which fault starts are drawn.
	Horizon sim.Time
	// Intensity is the target mean fraction of sites inside a fault window
	// at any instant: 0.15 keeps ~15% of the federation faulted. 0 yields
	// an empty schedule.
	Intensity float64
	// Kinds restricts which faults are drawn; nil means AllKinds.
	Kinds []Kind
}

// minDuration and maxDuration bound fault window lengths.
const (
	minDuration = 5 * sim.Minute
	maxDuration = 30 * sim.Minute
)

func (c *Config) defaults() {
	if len(c.Kinds) == 0 {
		c.Kinds = AllKinds()
	}
}

// Schedule expands a seed into a fault schedule over the given sites:
// windows arrive as a Poisson process whose rate is chosen so the expected
// number of concurrently-faulted sites is Intensity × len(sites), with
// kind, site, and duration drawn uniformly. The result is sorted by start
// time and fully determined by (cfg, sites).
func Schedule(cfg Config, sites []netsim.SiteID) []Event {
	cfg.defaults()
	if cfg.Intensity <= 0 || cfg.Horizon <= 0 || len(sites) == 0 {
		return nil
	}
	r := rng.New(cfg.Seed).Fork("chaos-schedule")
	meanDur := float64(minDuration+maxDuration) / 2
	// Little's law: concurrency = arrival rate × mean duration.
	meanGap := meanDur / (cfg.Intensity * float64(len(sites)))
	var out []Event
	t := sim.Time(r.Exponential(meanGap))
	for t < cfg.Horizon {
		ev := Event{
			Kind:     cfg.Kinds[r.Intn(len(cfg.Kinds))],
			At:       t,
			Duration: sim.Time(r.Range(float64(minDuration), float64(maxDuration))),
			Site:     sites[r.Intn(len(sites))],
		}
		if ev.Kind == KindDegrade {
			ev.FailureProb = r.Range(0.2, 0.6)
			ev.Drift = r.Range(0.01, 0.05)
		}
		out = append(out, ev)
		t += sim.Time(r.Exponential(meanGap))
	}
	sort.SliceStable(out, func(i, j int) bool { return out[i].At < out[j].At })
	return out
}
