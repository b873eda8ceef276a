// Package simtest is test support for the layers above the bus: one constructor
// for the sim/netsim/bus stack a package test wires its layer onto, and one
// differential harness that drives a got/want pair of such stacks through
// the same seeded steps and fails at the first divergence it can see.
//
// It imports only sim, netsim, bus and rng, so any package above bus can
// use it from its internal tests without an import cycle. Only _test.go
// files import it; CI fails if a non-test build links it.
package simtest

import (
	"fmt"
	"reflect"
	"sort"
	"testing"

	"github.com/aisle-sim/aisle/internal/bus"
	"github.com/aisle-sim/aisle/internal/netsim"
	"github.com/aisle-sim/aisle/internal/rng"
	"github.com/aisle-sim/aisle/internal/sim"
)

// Stack is one federation's base: an engine, a network of sites whose
// firewalls admit every service, a full mesh of copies of one link, and a
// bus fabric over it.
type Stack struct {
	Eng   *sim.Engine
	Net   *netsim.Network
	Fab   *bus.Fabric
	Sites []netsim.SiteID
}

// New builds a stack over sites; the network draws loss and jitter from r.
func New(r *rng.Stream, link netsim.Link, sites ...netsim.SiteID) *Stack {
	eng := sim.NewEngine()
	net := netsim.New(eng, r)
	for _, s := range sites {
		net.AddSite(s).Firewall.AllowAll()
	}
	net.FullMesh(sites, link)
	return &Stack{Eng: eng, Net: net, Fab: bus.NewFabric(net), Sites: sites}
}

// Names returns n site names: s0, s1, ...
func Names(n int) (out []netsim.SiteID) {
	for i := 0; i < n; i++ {
		out = append(out, netsim.SiteID(fmt.Sprintf("s%d", i)))
	}
	return out
}

// Base returns s, so that any type embedding a *Stack can ride a Pair.
func (s *Stack) Base() *Stack { return s }

// RunUntil, RunFor and Run run the engine to virtual time at, d further,
// or until no event is left; an engine error fails tb.
func (s *Stack) RunUntil(tb testing.TB, at sim.Time) { tb.Helper(); check(tb, s.Eng.RunUntil(at)) }
func (s *Stack) RunFor(tb testing.TB, d sim.Time)    { tb.Helper(); s.RunUntil(tb, s.Eng.Now()+d) }
func (s *Stack) Run(tb testing.TB)                   { tb.Helper(); check(tb, s.Eng.Run()) }

func check(tb testing.TB, err error) {
	tb.Helper()
	if err != nil {
		tb.Fatal(err)
	}
}

// Lose drops exactly the messages sent between a and b in the virtual
// window [from, to): the link's Loss is 1 there (rng.Stream.Bool(1) is
// always true) and its own value before and after.
func (s *Stack) Lose(a, b netsim.SiteID, from, to sim.Time) {
	l := s.Net.LinkBetween(a, b)
	var keep float64
	s.Eng.At(from, func() { keep, l.Loss = l.Loss, 1 })
	s.Eng.At(to, func() { l.Loss = keep })
}

// Kind is one kind of step, drawn Weight times in the total weight. Draw
// makes all of the step's random draws for the site it acts at and returns
// its description and action; a nil do skips the step, which still counts.
type Kind[S any] struct {
	Weight int
	Draw   func(site int) (desc string, do func(S))
}

// Pair drives Got (the code under test) and Want (its reference), each a
// layer on an embedded *Stack, through the same seeded steps and compares
// after every one the clocks, the Shared view if any, then every site's View.
type Pair[S interface{ Base() *Stack }] struct {
	T         testing.TB
	Schedule  int // named in failures
	Got, Want S
	View      func(st S, site int) any
	Shared    func(S) any // stack-wide state such as counters; optional

	// A step draws its site from Rand, runs Prelude (draws every step makes),
	// then draws its kind from Steps: the package's own, Link, Split, Advance.
	Rand    *rng.Stream
	Prelude func(site int)
	Steps   []Kind[S]

	step  int
	split [2][]netsim.SiteID
}

// Link takes the link between the step's site and another one down or up.
func (p *Pair[S]) Link(weight int) Kind[S] {
	return Kind[S]{weight, func(site int) (string, func(S)) {
		sites := p.Got.Base().Sites
		a, b := sites[site], sites[(site+1+p.Rand.Intn(len(sites)-1))%len(sites)]
		up := p.Rand.Bool(0.5)
		return fmt.Sprintf("link %s-%s up=%v", a, b, up), func(st S) { st.Base().Net.SetLinkUp(a, b, up) }
	}}
}

// Split partitions the sites in two, or heals the partition in force.
func (p *Pair[S]) Split(weight int) Kind[S] {
	return Kind[S]{weight, func(int) (string, func(S)) {
		if g := p.split; g[0] != nil {
			p.split = [2][]netsim.SiteID{}
			return "heal", func(st S) { st.Base().Net.Heal(g[0], g[1]) }
		}
		sites := p.Got.Base().Sites
		cut := 1 + p.Rand.Intn(len(sites)-1)
		for i, j := range p.Rand.Perm(len(sites)) {
			side := min(i/cut, 1) // the first cut sites of the permutation, then the rest
			p.split[side] = append(p.split[side], sites[j])
		}
		g := p.split
		return fmt.Sprintf("partition %v | %v", g[0], g[1]), func(st S) { st.Base().Net.Partition(g[0], g[1]) }
	}}
}

// Advance runs both engines one draw from waits further in virtual time.
func (p *Pair[S]) Advance(weight int, waits ...sim.Time) Kind[S] {
	return Kind[S]{weight, func(int) (string, func(S)) {
		d := waits[p.Rand.Intn(len(waits))]
		return "advance " + d.String(), func(st S) { st.Base().RunFor(p.T, d) }
	}}
}

// Run applies the next steps drawn from the schedule.
func (p *Pair[S]) Run(steps int) {
	p.T.Helper()
	for i := 0; i < steps; i++ {
		p.Apply(p.next())
	}
}

// next draws a step.
func (p *Pair[S]) next() (desc string, do func(S)) {
	site := p.Rand.Intn(len(p.Got.Base().Sites))
	if p.Prelude != nil {
		p.Prelude(site)
	}
	total := 0
	for _, k := range p.Steps {
		total += k.Weight
	}
	n := p.Rand.Intn(total)
	for _, k := range p.Steps {
		if n -= k.Weight; n < 0 {
			return k.Draw(site)
		}
	}
	panic("unreachable")
}

// Apply runs do on Got, then on Want, and compares them; a nil do only
// counts the step.
func (p *Pair[S]) Apply(desc string, do func(S)) {
	p.T.Helper()
	if do != nil {
		do(p.Got)
		do(p.Want)
		p.compare(desc)
	}
	p.step++
}

// compare compares the pair now and fails the test at the first divergence:
// "schedule S step N (desc): site X field <path>: got … want …".
func (p *Pair[S]) compare(desc string) {
	p.T.Helper()
	g, w := p.Got.Base(), p.Want.Base()
	d := ""
	if a, b := g.Eng.Now(), w.Eng.Now(); a != b {
		d = fmt.Sprintf("clock: got %v want %v", a, b)
	} else if p.Shared != nil {
		if d = Diff(p.Shared(p.Got), p.Shared(p.Want)); d != "" {
			d = "stack " + d
		}
	}
	for i := 0; d == "" && i < len(g.Sites); i++ {
		if d = Diff(p.View(p.Got, i), p.View(p.Want, i)); d != "" {
			d = fmt.Sprintf("site %s %s", g.Sites[i], d)
		}
	}
	if d != "" {
		p.T.Fatalf("schedule %d step %d (%s): %s", p.Schedule, p.step, desc, d)
	}
}

// Diff is "" when got and want are reflect.DeepEqual and otherwise names
// the first place they differ, "field <path>: got … want …", with the path
// from the root (".Rows[2].Expires", `["key"].Value`; map keys in order).
func Diff(got, want any) string {
	if reflect.DeepEqual(got, want) {
		return ""
	}
	path, g, w := walk(reflect.ValueOf(got), reflect.ValueOf(want))
	if g == w { // they print alike (NaN, say): show them whole
		path, g, w = "", fmt.Sprintf("%+v", got), fmt.Sprintf("%+v", want)
	}
	if path == "" {
		path = "."
	}
	return fmt.Sprintf("field %s: got %s want %s", path, g, w)
}

// walk finds the first differing leaf below g and w; it returns two equal
// strings when there is none. A nil slice or map shows as "nil", so it
// differs from an empty one as it does under reflect.DeepEqual.
func walk(g, w reflect.Value) (path, gs, ws string) {
	if !g.IsValid() || !w.IsValid() || g.Type() != w.Type() {
		return "", show(g), show(w)
	}
	switch g.Kind() {
	case reflect.Pointer, reflect.Interface: // a nil one has the invalid Elem
		return walk(g.Elem(), w.Elem())
	case reflect.Struct:
		for i := 0; i < g.NumField(); i++ {
			if p, a, b := walk(g.Field(i), w.Field(i)); a != b || p != "" {
				return "." + g.Type().Field(i).Name + p, a, b
			}
		}
	case reflect.Slice, reflect.Array:
		for i := 0; i < g.Len() && i < w.Len(); i++ { // past the shorter: the whole slice
			if p, a, b := walk(g.Index(i), w.Index(i)); a != b || p != "" {
				return fmt.Sprintf("[%d]", i) + p, a, b
			}
		}
	case reflect.Map:
		keys := append(g.MapKeys(), w.MapKeys()...)
		sort.Slice(keys, func(i, j int) bool { return fmt.Sprint(keys[i]) < fmt.Sprint(keys[j]) })
		for _, k := range keys {
			if p, a, b := walk(g.MapIndex(k), w.MapIndex(k)); a != b || p != "" {
				return fmt.Sprintf("[%#v]", k) + p, a, b
			}
		}
	}
	return "", show(g), show(w)
}

func show(v reflect.Value) string {
	switch {
	case !v.IsValid():
		return "<missing>"
	case (v.Kind() == reflect.Slice || v.Kind() == reflect.Map) && v.IsNil():
		return "nil"
	}
	return fmt.Sprintf("%+v", v)
}
