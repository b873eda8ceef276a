package obs

import (
	"github.com/aisle-sim/aisle/internal/sim"
	"github.com/aisle-sim/aisle/internal/trace"
)

// Entry is one flight-recorder journal record: a scheduler decision, an
// applied fault window, an SLO burn event, a fired/resolved alert, or an
// invariant violation. Entries are flat values copied into a preallocated
// ring, so journaling the hot path allocates nothing.
type Entry struct {
	Seq     uint64   `json:"seq"`
	At      sim.Time `json:"at_ns"`
	Type    string   `json:"type"`            // "sched" | "fault" | "slo" | "alert" | "violation"
	Event   string   `json:"event,omitempty"` // decision/fault kind or SLO name
	Job     string   `json:"job,omitempty"`
	Tenant  string   `json:"tenant,omitempty"`
	Site    string   `json:"site,omitempty"`
	Host    string   `json:"host,omitempty"`
	Inst    string   `json:"inst,omitempty"`
	Reason  string   `json:"reason,omitempty"`
	Attempt int      `json:"attempt,omitempty"`
	End     sim.Time `json:"end_ns,omitempty"` // fault windows
	Value   float64  `json:"value,omitempty"`  // SLO bad-event delta
}

// SpanRecord is one recent span captured into a snapshot.
type SpanRecord struct {
	TraceID uint64   `json:"trace_id"`
	SpanID  uint64   `json:"span_id"`
	Parent  uint64   `json:"parent_id,omitempty"`
	Site    string   `json:"site"`
	Kind    string   `json:"kind"`
	Name    string   `json:"name"`
	Start   sim.Time `json:"start_ns"`
	End     sim.Time `json:"end_ns"`
}

// Snapshot is one frozen flight-recorder state: the journal tail at the
// trigger instant, the tracer's most recent spans per site, per-site
// trace-drop counts (non-zero drops flag causal chains that may be
// incomplete), and every SLO's status. Snapshots serialize to byte-stable
// JSON: all ordering is by sequence or sorted key, and every timestamp is
// virtual.
type Snapshot struct {
	Seq          int               `json:"seq"`
	At           sim.Time          `json:"at_ns"`
	Trigger      string            `json:"trigger"`
	Detail       string            `json:"detail,omitempty"`
	Journal      []Entry           `json:"journal"`
	Spans        []SpanRecord      `json:"spans,omitempty"`
	TraceDropped map[string]uint64 `json:"trace_dropped,omitempty"`
	SLOs         []SLOStatus       `json:"slos,omitempty"`
}

// recorder is the bounded journal ring plus retained snapshots.
type recorder struct {
	ring    []Entry
	head    int
	count   int
	seq     uint64
	snaps   []Snapshot
	maxSnap int
	skipped int // triggers past the snapshot cap
}

func newRecorder(capacity, maxSnapshots int) *recorder {
	return &recorder{ring: make([]Entry, capacity), maxSnap: maxSnapshots}
}

func (r *recorder) add(e Entry) {
	r.seq++
	e.Seq = r.seq
	r.ring[r.head] = e
	r.head++
	if r.head == len(r.ring) {
		r.head = 0
	}
	if r.count < len(r.ring) {
		r.count++
	}
}

// tail copies the journal oldest-first.
func (r *recorder) tail() []Entry {
	out := make([]Entry, 0, r.count)
	start := r.head - r.count
	for start < 0 {
		start += len(r.ring)
	}
	for i := 0; i < r.count; i++ {
		out = append(out, r.ring[(start+i)%len(r.ring)])
	}
	return out
}

// snapshot freezes the recorder state. Two triggers at the same virtual
// instant with the same label coalesce into one snapshot (violation
// storms — one per job — would otherwise exhaust the cap in one event).
func (r *recorder) snapshot(now sim.Time, trigger, detail string,
	tr *trace.Tracer, slos []SLOStatus) {

	if n := len(r.snaps); n > 0 && r.snaps[n-1].At == now && r.snaps[n-1].Trigger == trigger {
		return
	}
	if len(r.snaps) >= r.maxSnap {
		r.skipped++
		return
	}
	s := Snapshot{
		Seq:     len(r.snaps) + 1,
		At:      now,
		Trigger: trigger,
		Detail:  detail,
		Journal: r.tail(),
		SLOs:    slos,
	}
	if tr != nil {
		s.Spans = recentSpans(tr, snapshotSpans)
		s.TraceDropped = tr.DroppedBySite()
	}
	r.snaps = append(r.snaps, s)
}

// snapshotSpans is how many recent spans per site a snapshot captures from
// the tracer.
const snapshotSpans = 32

// recentSpans keeps the newest perSite spans of each site, preserving the
// tracer's deterministic order (sites sorted, oldest-first within a site).
func recentSpans(tr *trace.Tracer, perSite int) []SpanRecord {
	var out []SpanRecord
	spans := tr.Spans()
	// Spans() groups by site in sorted order; walk groups and keep tails.
	for i := 0; i < len(spans); {
		j := i
		for j < len(spans) && spans[j].Site == spans[i].Site {
			j++
		}
		k := i
		if j-i > perSite {
			k = j - perSite
		}
		for ; k < j; k++ {
			sp := &spans[k]
			out = append(out, SpanRecord{
				TraceID: sp.TraceID,
				SpanID:  sp.SpanID,
				Parent:  sp.ParentID,
				Site:    sp.Site,
				Kind:    sp.Kind,
				Name:    sp.Name,
				Start:   sp.Start,
				End:     sp.End,
			})
		}
		i = j
	}
	return out
}
