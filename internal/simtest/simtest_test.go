package simtest

import (
	"fmt"
	"slices"
	"strings"
	"testing"

	"github.com/aisle-sim/aisle/internal/netsim"
	"github.com/aisle-sim/aisle/internal/rng"
	"github.com/aisle-sim/aisle/internal/sim"
)

// fakeTB records the first failure instead of stopping the test.
type fakeTB struct {
	testing.TB
	failure string
}

func (f *fakeTB) Helper() {}
func (f *fakeTB) Fatalf(format string, args ...any) {
	if f.failure == "" {
		f.failure = fmt.Sprintf(format, args...)
	}
}
func (f *fakeTB) Fatal(args ...any) { f.Fatalf("%s", fmt.Sprint(args...)) }

// linkPair is two identical 4-site stacks, compared by the state of each
// site's links, drawing every network step and one custom step.
func linkPair(tb testing.TB, seed uint64) *Pair[*Stack] {
	mk := func() *Stack { return New(rng.New(1), netsim.Link{Latency: sim.Millisecond}, Names(4)...) }
	p := &Pair[*Stack]{T: tb, Schedule: int(seed), Got: mk(), Want: mk(), Rand: rng.New(seed),
		View: func(st *Stack, site int) any {
			up := map[netsim.SiteID]bool{}
			for _, s := range st.Sites {
				if l := st.Net.LinkBetween(st.Sites[site], s); l != nil {
					up[s] = l.Up()
				}
			}
			return up
		},
	}
	noop := Kind[*Stack]{1, func(site int) (string, func(*Stack)) { return fmt.Sprintf("noop at s%d", site), func(*Stack) {} }}
	p.Steps = []Kind[*Stack]{p.Link(3), p.Split(2), p.Advance(2, sim.Second), noop}
	return p
}

// draw returns the descriptions of the next n steps, applying each.
func draw(p *Pair[*Stack], n int) (out []string) {
	for i := 0; i < n; i++ {
		desc, do := p.next()
		p.Apply(desc, do)
		out = append(out, desc)
	}
	return out
}

func TestDivergenceNamesStepSiteAndField(t *testing.T) {
	f := &fakeTB{TB: t}
	p := linkPair(f, 7)
	draw(p, 40)
	if f.failure != "" {
		t.Fatalf("identical stacks diverged: %s", f.failure)
	}
	p.Apply("bring s0-s1 up", func(s *Stack) { s.Net.SetLinkUp("s0", "s1", true) })
	p.Apply("link s0-s1 up=false", func(s *Stack) {
		if s != p.Want { // the reference skips this SetLinkUp
			s.Net.SetLinkUp("s0", "s1", false)
		}
	})
	if want := `schedule 7 step 41 (link s0-s1 up=false): site s0 field ["s1"]: got false want true`; f.failure != want {
		t.Fatalf("failure reads\n %q\nwant\n %q", f.failure, want)
	}
}

func TestSameSeedSameSteps(t *testing.T) {
	a, b := draw(linkPair(t, 3), 300), draw(linkPair(t, 3), 300)
	if !slices.Equal(a, b) {
		t.Fatal("one seed drew two schedules")
	}
	if slices.Equal(a, draw(linkPair(t, 4), 300)) {
		t.Fatal("two seeds drew one schedule")
	}
}

func TestHealOnlyWhilePartitioned(t *testing.T) {
	split, partitions, heals := false, 0, 0
	for i, desc := range draw(linkPair(t, 11), 2000) {
		switch {
		case desc == "heal" && !split:
			t.Fatalf("step %d: heal drawn with no partition in force", i)
		case strings.HasPrefix(desc, "partition ") && split:
			t.Fatalf("step %d: a second partition drawn over the one in force", i)
		case desc == "heal":
			split = false
			heals++
		case strings.HasPrefix(desc, "partition "):
			split = true
			partitions++
		}
	}
	if heals == 0 || partitions == 0 {
		t.Fatalf("drew %d partitions and %d heals", partitions, heals)
	}
}

func TestDiffPaths(t *testing.T) {
	type row struct {
		Name string
		At   []sim.Time
	}
	for _, c := range []struct {
		got, want any
		path      string
	}{
		{row{"a", []sim.Time{1, 2}}, row{"a", []sim.Time{1, 3}}, ".At[1]"},
		{row{"a", []sim.Time{1}}, row{"a", []sim.Time{1, 3}}, ".At"},
		{row{"a", nil}, row{"a", []sim.Time{}}, ".At"},
		{map[string]row{"x": {Name: "a"}}, map[string]row{"x": {Name: "b"}}, `["x"].Name`},
		{map[string]int{"x": 1}, map[string]int{"x": 1, "y": 2}, `["y"]`},
		{3, 4, "."},
	} {
		if d := Diff(c.got, c.want); !strings.HasPrefix(d, "field "+c.path+": ") {
			t.Errorf("Diff(%+v, %+v) = %q, want the path %q", c.got, c.want, d, c.path)
		}
	}
	if d := Diff(map[string]row{"x": {"a", []sim.Time{1}}}, map[string]row{"x": {"a", []sim.Time{1}}}); d != "" {
		t.Errorf("equal views reported different: %s", d)
	}
}

func TestLoseDropsOnlyInsideTheWindow(t *testing.T) {
	st := New(rng.New(1), netsim.Link{Latency: sim.Millisecond}, "a", "b")
	st.Lose("a", "b", 10*sim.Second, 20*sim.Second)
	var got []sim.Time
	for _, at := range []sim.Time{5 * sim.Second, 15 * sim.Second, 25 * sim.Second} {
		st.Eng.At(at, func() {
			_ = st.Net.Send(netsim.Message{From: "b", To: "a", Service: "bus"}, func(netsim.Message) { got = append(got, at) })
		})
	}
	st.Run(t)
	if !slices.Equal(got, []sim.Time{5 * sim.Second, 25 * sim.Second}) {
		t.Fatalf("delivered the sends made at %v, want 5s and 25s", got)
	}
}
