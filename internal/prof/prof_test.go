package prof

import (
	"bytes"
	"strings"
	"testing"
	"time"
)

// drive exercises a profiler with a fixed synthetic workload on a fake
// virtual clock. Everything it feeds the profiler is deterministic.
func drive(p *Profiler) {
	var now int64
	p.SetClock(func() int64 { return now })
	for i := 0; i < 100; i++ {
		now = int64(i) * int64(10*time.Second)
		ev := p.Enter(SiteSimEvent)
		d := p.Enter(SiteBusDispatch)
		p.Sample(SiteNetDeliver, time.Duration(i)*time.Millisecond, uint64(i+1))
		d.End()
		if i%3 == 0 {
			r := p.Enter(SiteSchedRoute)
			r.End()
		}
		ev.End()
	}
}

func TestSiteNames(t *testing.T) {
	if got := SiteNetDeliver.String(); got != "net.deliver" {
		t.Fatalf("site name = %q", got)
	}
	if got := SiteNetDeliver.Subsystem(); got != "net" {
		t.Fatalf("subsystem = %q", got)
	}
	seen := map[string]bool{}
	for s := Site(0); s < numSites; s++ {
		name := s.String()
		if name == "" || name == "invalid" || seen[name] {
			t.Fatalf("bad or duplicate site name %q", name)
		}
		seen[name] = true
	}
}

func TestDisabledProfilerIsFree(t *testing.T) {
	var p *Profiler // the disabled profiler
	allocs := testing.AllocsPerRun(200, func() {
		r := p.Enter(SiteSimEvent)
		p.Sample(SiteNetDeliver, time.Second, 42)
		r.End()
		p.SetClock(nil)
		_ = p.Counts()
		_ = p.Snapshot()
		_ = p.Measured()
		_ = p.TotalWallNs()
		_ = p.Overflow()
	})
	if allocs != 0 {
		t.Fatalf("disabled profiler allocated %.1f per op, want 0", allocs)
	}
}

func TestEnabledHotPathDoesNotAllocate(t *testing.T) {
	p := New(Options{Enabled: true, AllocSampleStride: -1})
	var now int64
	p.SetClock(func() int64 { return now })
	// Prime the path table so steady state is measured, not first-touch.
	drive(p)
	allocs := testing.AllocsPerRun(200, func() {
		now += int64(time.Second)
		ev := p.Enter(SiteSimEvent)
		d := p.Enter(SiteBusDispatch)
		p.Sample(SiteNetDeliver, 3*time.Millisecond, 7)
		d.End()
		ev.End()
	})
	if allocs != 0 {
		t.Fatalf("enabled hot path allocated %.1f per op, want 0", allocs)
	}
}

func TestAggregatesAndStacks(t *testing.T) {
	p := New(Options{Enabled: true, AllocSampleStride: -1})
	drive(p)
	snap := p.Snapshot()
	var ev, disp *SiteJSON
	for i := range snap.Sites {
		switch snap.Sites[i].Site {
		case "sim.event":
			ev = &snap.Sites[i]
		case "bus.dispatch":
			disp = &snap.Sites[i]
		}
	}
	if ev == nil || disp == nil {
		t.Fatalf("missing sites in snapshot: %+v", snap.Sites)
	}
	if ev.Count != 100 || disp.Count != 100 {
		t.Fatalf("counts = %d/%d, want 100/100", ev.Count, disp.Count)
	}
	wantStacks := []string{
		"sim.event",
		"sim.event;bus.dispatch",
		"sim.event;sched.route",
	}
	if len(snap.Stacks) != len(wantStacks) {
		t.Fatalf("stacks = %+v", snap.Stacks)
	}
	for i, w := range wantStacks {
		if snap.Stacks[i].Stack != w {
			t.Fatalf("stack[%d] = %q, want %q", i, snap.Stacks[i].Stack, w)
		}
	}
	// 100 samples, log2 buckets: the slowest sample (99ms) carries its
	// trace ID as the exemplar of the top bucket.
	var nd *SiteJSON
	for i := range snap.Sites {
		if snap.Sites[i].Site == "net.deliver" {
			nd = &snap.Sites[i]
		}
	}
	if nd == nil || nd.Samples != 100 {
		t.Fatalf("net.deliver = %+v", nd)
	}
	last := nd.Buckets[len(nd.Buckets)-1]
	if last.MaxNs != int64(99*time.Millisecond) || last.Exemplar != "0000000000000064" {
		t.Fatalf("top bucket = %+v", last)
	}
}

func TestDeterministicExports(t *testing.T) {
	render := func() (string, string, string) {
		p := New(Options{Enabled: true})
		drive(p)
		var j, fc, fv bytes.Buffer
		if err := p.WriteJSON(&j); err != nil {
			t.Fatal(err)
		}
		if err := p.WriteFolded(&fc, WeightCount); err != nil {
			t.Fatal(err)
		}
		if err := p.WriteFolded(&fv, WeightVirtual); err != nil {
			t.Fatal(err)
		}
		return j.String(), fc.String(), fv.String()
	}
	j1, c1, v1 := render()
	j2, c2, v2 := render()
	if j1 != j2 {
		t.Fatalf("JSON profile not byte-stable:\n%s\nvs\n%s", j1, j2)
	}
	if c1 != c2 || v1 != v2 {
		t.Fatalf("folded output not byte-stable")
	}
	if !strings.Contains(c1, "sim.event;bus.dispatch 100\n") {
		t.Fatalf("folded counts missing expected line:\n%s", c1)
	}
	// Wall time must never leak into the deterministic JSON.
	if strings.Contains(j1, "wall") {
		t.Fatalf("deterministic profile mentions wall time:\n%s", j1)
	}
}

func TestWindowsRoll(t *testing.T) {
	p := New(Options{Enabled: true, Window: time.Minute, Windows: 4, AllocSampleStride: -1})
	var now int64
	p.SetClock(func() int64 { return now })
	for i := 0; i < 10; i++ {
		now = int64(i) * int64(time.Minute)
		r := p.Enter(SiteSimEvent)
		r.End()
	}
	snap := p.Snapshot()
	if len(snap.Windows) != 4 {
		t.Fatalf("ring kept %d windows, want 4", len(snap.Windows))
	}
	for _, w := range snap.Windows {
		if len(w.Sites) != 1 || w.Sites[0].Site != "sim.event" || w.Sites[0].Count != 1 {
			t.Fatalf("window = %+v", w)
		}
	}
	// Idle gaps collapse instead of spinning the ring empty.
	now = int64(100 * time.Minute)
	r := p.Enter(SiteSimEvent)
	r.End()
	snap = p.Snapshot()
	empty := 0
	for _, w := range snap.Windows {
		if len(w.Sites) == 0 {
			empty++
		}
	}
	if empty > 1 {
		t.Fatalf("idle gap produced %d empty windows", empty)
	}
}

var allocSink []byte

func TestMeasuredOverlayAndCoverage(t *testing.T) {
	p := New(Options{Enabled: true, AllocSampleStride: 1})
	for i := 0; i < 50; i++ {
		ev := p.Enter(SiteSimEvent)
		d := p.Enter(SiteBusDispatch)
		allocSink = make([]byte, 1024)
		d.End()
		ev.End()
	}
	ms := p.Measured()
	bySite := map[string]SiteMeasured{}
	for _, m := range ms {
		bySite[m.Site] = m
	}
	ev := bySite["sim.event"]
	disp := bySite["bus.dispatch"]
	if ev.WallNs <= 0 || disp.WallNs <= 0 || ev.WallNs < disp.WallNs {
		t.Fatalf("wall attribution inverted: %+v", ms)
	}
	if ev.SelfWallNs > ev.WallNs {
		t.Fatalf("self wall exceeds total: %+v", ev)
	}
	// The runtime publishes alloc stats with some slack; the estimate only
	// has to land in the workload's ballpark (50 KiB allocated).
	if disp.AllocBytes < 1024*40 {
		t.Fatalf("alloc sampling missed the workload: %+v", disp)
	}
	if p.TotalWallNs() != ev.WallNs {
		t.Fatalf("TotalWallNs %d != top-level wall %d", p.TotalWallNs(), ev.WallNs)
	}
}

func TestRegionEndOutOfOrder(t *testing.T) {
	p := New(Options{Enabled: true, AllocSampleStride: -1})
	ev := p.Enter(SiteSimEvent)
	_ = p.Enter(SiteBusDispatch) // never explicitly ended
	ev.End()                     // closes both
	if p.depth != 0 {
		t.Fatalf("depth = %d after out-of-order End", p.depth)
	}
	snap := p.Snapshot()
	if len(snap.Stacks) != 2 {
		t.Fatalf("stacks = %+v", snap.Stacks)
	}
}

// TestDeepPathsStayDistinct nests ten regions under two different
// outermost frames: the paths share their eight innermost frames, and
// each must stay its own stack in both exports.
func TestDeepPathsStayDistinct(t *testing.T) {
	p := New(Options{Enabled: true, AllocSampleStride: -1})
	inner := []Site{SiteNetSend, SiteNetDeliver, SiteBusDispatch, SiteSchedRoute,
		SiteSchedSteal, SiteKnowledgeMerge, SiteCoreDecide, SiteTelemetryRecord}
	for _, outer := range []Site{SiteSimEvent, SiteCoreDecide} {
		top := p.Enter(outer)
		p.Enter(SiteNetSend)
		for _, s := range inner {
			p.Enter(s)
		}
		top.End()
	}
	deep := func(outer Site) string {
		parts := []string{outer.String(), SiteNetSend.String()}
		for _, s := range inner {
			parts = append(parts, s.String())
		}
		return strings.Join(parts, ";")
	}
	want := []string{deep(SiteCoreDecide), deep(SiteSimEvent)}

	got := map[string]uint64{}
	for _, s := range p.Snapshot().Stacks {
		got[s.Stack] = s.Count
	}
	if len(got) != 20 {
		t.Fatalf("snapshot has %d stacks, want 20: %v", len(got), got)
	}
	var folded bytes.Buffer
	if err := p.WriteFolded(&folded, WeightCount); err != nil {
		t.Fatal(err)
	}
	for _, w := range want {
		if got[w] != 1 {
			t.Fatalf("snapshot stack %q has count %d, want 1: %v", w, got[w], got)
		}
		if !strings.Contains(folded.String(), w+" 1\n") {
			t.Fatalf("folded output lacks %q:\n%s", w, folded.String())
		}
	}
}

// TestSampledOverlay runs the default stride: top-level wall stays exact,
// nested estimates come from every 64th tree, and which regions are
// measured depends on the region sequence alone.
func TestSampledOverlay(t *testing.T) {
	run := func() *Profiler {
		p := New(Options{Enabled: true})
		for i := 0; i < 1000; i++ {
			ev := p.Enter(SiteSimEvent)
			d := p.Enter(SiteBusDispatch)
			if i%3 == 0 {
				r := p.Enter(SiteSchedRoute)
				allocSink = make([]byte, 64)
				r.End()
			}
			d.End()
			ev.End()
		}
		return p
	}
	p := run()
	top := p.root.child[SiteSimEvent]
	if top.timed != 1000 || top.sampled != 16 {
		t.Fatalf("sim.event timed %d sampled %d, want 1000 and 16", top.timed, top.sampled)
	}
	var ev *SiteMeasured
	ms := p.Measured()
	for i := range ms {
		if ms[i].SelfWallNs > ms[i].WallNs {
			t.Fatalf("self wall exceeds wall: %+v", ms[i])
		}
		if ms[i].Site == "sim.event" {
			ev = &ms[i]
		}
	}
	if ev == nil || ev.WallNs != p.TotalWallNs() || ev.WallNs != top.wall {
		t.Fatalf("sim.event wall %+v, TotalWallNs %d, top-level sum %d", ev, p.TotalWallNs(), top.wall)
	}

	// The same sequence measures the same regions on every path.
	q := run()
	a, b := p.paths(), q.paths()
	if len(a) != len(b) {
		t.Fatalf("paths %d vs %d", len(a), len(b))
	}
	for i := range a {
		x, y := a[i], b[i]
		if x.stack != y.stack || x.count != y.count || x.timed != y.timed || x.sampled != y.sampled {
			t.Fatalf("path %q measured %d/%d of %d, then %q %d/%d of %d",
				x.stack, x.timed, x.sampled, x.count, y.stack, y.timed, y.sampled, y.count)
		}
	}
}

// BenchmarkRegion is one event tree as the spine opens it: a top-level
// region holding two nested ones, at the default stride.
func BenchmarkRegion(b *testing.B) {
	for _, tc := range []struct {
		name string
		p    *Profiler
	}{{"disabled", nil}, {"enabled", New(Options{Enabled: true})}} {
		b.Run(tc.name, func(b *testing.B) {
			p := tc.p
			var now int64
			p.SetClock(func() int64 { return now })
			for i := 0; i < b.N; i++ {
				ev := p.Enter(SiteSimEvent)
				d := p.Enter(SiteBusDispatch)
				r := p.Enter(SiteTelemetryRecord)
				r.End()
				d.End()
				ev.End()
			}
		})
	}
}
