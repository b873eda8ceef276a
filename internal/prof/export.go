package prof

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"sort"
)

// ProfileSchema identifies the deterministic JSON profile format.
const ProfileSchema = "aisle/profile/v1"

// BucketJSON is one log2 duration bucket of a site's virtual histogram.
type BucketJSON struct {
	// FloorNs is the bucket's lower bound: durations in [FloorNs, 2*FloorNs).
	FloorNs int64  `json:"floor_ns"`
	Count   uint64 `json:"count"`
	SumNs   int64  `json:"sum_ns"`
	MaxNs   int64  `json:"max_ns"`
	// Exemplar is the trace ID of the slowest sample in the bucket (hex,
	// matching trace exports), or empty when the sample carried no trace.
	Exemplar string `json:"exemplar,omitempty"`
}

// SiteJSON is one call-site's deterministic profile.
type SiteJSON struct {
	Site      string       `json:"site"`
	Subsystem string       `json:"subsystem"`
	Count     uint64       `json:"count"`
	Samples   uint64       `json:"samples,omitempty"`
	VirtualNs int64        `json:"virtual_ns"`
	Buckets   []BucketJSON `json:"buckets,omitempty"`
}

// StackJSON is one region nesting path with deterministic weights.
type StackJSON struct {
	// Stack is the semicolon-joined site path, outermost first — the same
	// string the folded exporter emits.
	Stack     string `json:"stack"`
	Count     uint64 `json:"count"`
	VirtualNs int64  `json:"virtual_ns"`
}

// WindowJSON is one closed ring window.
type WindowJSON struct {
	StartNs int64       `json:"start_ns"`
	Sites   []SiteCount `json:"sites"`
}

// Profile is the deterministic snapshot: identical bytes for identical
// fixed-seed runs.
type Profile struct {
	Schema   string       `json:"schema"`
	WindowNs int64        `json:"window_ns"`
	Sites    []SiteJSON   `json:"sites"`
	Stacks   []StackJSON  `json:"stacks,omitempty"`
	Windows  []WindowJSON `json:"windows,omitempty"`
	Overflow uint64       `json:"overflow,omitempty"`
}

// Snapshot captures the deterministic profile. Nil on the disabled
// profiler.
func (p *Profiler) Snapshot() *Profile {
	if p == nil {
		return nil
	}
	out := &Profile{Schema: ProfileSchema, WindowNs: p.windowW, Overflow: p.overflow}
	count, virt := p.totals()
	for s := Site(0); s < numSites; s++ {
		agg := &p.sites[s]
		if count[s] == 0 && agg.samples == 0 {
			continue
		}
		sj := SiteJSON{
			Site:      s.String(),
			Subsystem: s.Subsystem(),
			Count:     count[s],
			Samples:   agg.samples,
			VirtualNs: virt[s],
		}
		for i := range agg.buckets {
			b := &agg.buckets[i]
			if b.count == 0 {
				continue
			}
			floor := int64(0)
			if i > 0 {
				floor = int64(1) << (i - 1)
			}
			bj := BucketJSON{FloorNs: floor, Count: b.count, SumNs: b.sumVirt, MaxNs: b.maxVirt}
			if b.exemplar != 0 {
				bj.Exemplar = fmt.Sprintf("%016x", b.exemplar)
			}
			sj.Buckets = append(sj.Buckets, bj)
		}
		out.Sites = append(out.Sites, sj)
	}
	out.Stacks = p.stacks()
	for i := 0; i < p.ringLen; i++ {
		w := &p.ring[(p.ringHead-p.ringLen+i+len(p.ring))%len(p.ring)]
		wj := WindowJSON{StartNs: w.start}
		for s := Site(0); s < numSites; s++ {
			if w.count[s] == 0 && w.virtual[s] == 0 {
				continue
			}
			wj.Sites = append(wj.Sites, SiteCount{
				Site: s.String(), Count: w.count[s], VirtualNs: w.virtual[s],
			})
		}
		out.Windows = append(out.Windows, wj)
	}
	return out
}

// paths returns every call-path node, sorted by path string for a stable
// order.
func (p *Profiler) paths() []*node {
	var out []*node
	p.root.each(func(n *node) { out = append(out, n) })
	sort.Slice(out, func(i, j int) bool { return out[i].stack < out[j].stack })
	return out
}

// stacks lists every path's deterministic weights.
func (p *Profiler) stacks() []StackJSON {
	paths := p.paths()
	out := make([]StackJSON, len(paths))
	for i, n := range paths {
		out[i] = StackJSON{Stack: n.stack, Count: n.count, VirtualNs: n.virtual}
	}
	return out
}

// WriteJSON writes the deterministic profile as indented JSON. Byte-stable:
// two fixed-seed runs produce identical output.
func (p *Profiler) WriteJSON(w io.Writer) error {
	snap := p.Snapshot()
	if snap == nil {
		snap = &Profile{Schema: ProfileSchema}
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(snap)
}

// Weight selects the folded-stack weight column.
type Weight int

// Folded weight modes, both deterministic.
const (
	WeightCount Weight = iota
	WeightVirtual
)

// WriteFolded writes pprof-compatible folded stacks ("a;b;c <weight>", one
// line per region path).
func (p *Profiler) WriteFolded(w io.Writer, weight Weight) error {
	bw := bufio.NewWriter(w)
	if p != nil {
		for _, n := range p.paths() {
			v := n.count
			if weight == WeightVirtual {
				v = uint64(n.virtual)
			}
			if _, err := fmt.Fprintf(bw, "%s %d\n", n.stack, v); err != nil {
				return err
			}
		}
	}
	return bw.Flush()
}
