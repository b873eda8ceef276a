package obs

import (
	"fmt"

	"github.com/aisle-sim/aisle/internal/sched"
	"github.com/aisle-sim/aisle/internal/sim"
)

// degEvent is one degradation a job suffered: a retry, rescue, failure, or
// expiry, attributed to a fault window index (-1 when no injected fault
// explains it). overlapped records whether ANY fault window — at any site —
// overlapped the attempt: when false the degradation happened in a
// chaos-quiet interval, so it is background noise (the instruments'
// intrinsic failure probability) rather than a missed attribution.
type degEvent struct {
	kind       string
	at         sim.Time
	reason     string
	fault      int
	overlapped bool
	attempt    int
}

// jobRec is the linker's bounded per-job record.
type jobRec struct {
	id           string
	tenant       string
	origin, host string
	inst         string
	submitted    sim.Time
	attemptStart sim.Time // latest enqueue or dispatch instant
	terminal     string   // "" until a terminal decision lands
	terminalAt   sim.Time
	events       []degEvent
}

// linker joins the scheduler decision stream with the fault-injection log:
// every degradation is matched to the fault window that plausibly caused
// it (a window overlapping the job's current attempt at the job's host or
// origin site), and per-fault Incident reports aggregate the result.
type linker struct {
	faults    []FaultWindow
	jobs      map[string]*jobRec
	order     []string
	untracked int // decisions for jobs past the cap (or without an ID)
}

// maxTrackedJobs bounds the linker's per-job records; beyond it, new jobs
// are counted as untracked.
const maxTrackedJobs = 16384

func newLinker() *linker {
	return &linker{jobs: make(map[string]*jobRec)}
}

func (l *linker) addFault(w FaultWindow) {
	l.faults = append(l.faults, w)
}

func (l *linker) observe(d sched.Decision) {
	if d.Job == "" {
		l.untracked++
		return
	}
	rec := l.jobs[d.Job]
	if rec == nil {
		if d.Kind != sched.DecisionSubmit || len(l.jobs) >= maxTrackedJobs {
			l.untracked++
			return
		}
		rec = &jobRec{id: d.Job, tenant: d.Tenant, origin: string(d.Origin),
			submitted: d.At, attemptStart: d.At}
		l.jobs[d.Job] = rec
		l.order = append(l.order, d.Job)
	}
	switch d.Kind {
	case sched.DecisionSubmit:
		rec.attemptStart = d.At
	case sched.DecisionDispatch:
		rec.host = string(d.Host)
		rec.inst = d.Inst
		rec.attemptStart = d.At
	case sched.DecisionSteal:
		rec.origin = string(d.Origin)
	case sched.DecisionRetry, sched.DecisionRescue:
		rec.events = append(rec.events, degEvent{
			kind:       d.Kind.String(),
			at:         d.At,
			reason:     d.Reason,
			fault:      l.attribute(rec, rec.attemptStart, d.At),
			overlapped: l.anyOverlap(rec.attemptStart, d.At),
			attempt:    d.Attempt,
		})
		// The requeue opens a fresh attempt window.
		rec.attemptStart = d.At
	case sched.DecisionComplete:
		rec.terminal, rec.terminalAt = "completed", d.At
	case sched.DecisionFail, sched.DecisionExpire:
		rec.terminal, rec.terminalAt = "failed", d.At
		if d.Kind == sched.DecisionExpire {
			rec.terminal = "expired"
		}
		fault := l.attribute(rec, rec.attemptStart, d.At)
		if fault < 0 {
			// A job can die in queue long after the window that stranded it
			// healed (backlog, retry backoff): fall back to its lifetime.
			fault = l.attribute(rec, rec.submitted, d.At)
		}
		rec.events = append(rec.events, degEvent{
			kind: rec.terminal, at: d.At, reason: d.Reason, fault: fault,
			overlapped: l.anyOverlap(rec.submitted, d.At), attempt: d.Attempt,
		})
	case sched.DecisionCancel:
		rec.terminal, rec.terminalAt = "canceled", d.At
	}
}

// attribute finds the injected fault window that best explains a
// degradation observed at instant "at" for an attempt that began at
// "from": the latest-starting window overlapping [from, at] at the job's
// host or origin site. A job that never dispatched (no host) starved in
// queue — the capacity it waited on could live anywhere, so the site
// filter is waived and any overlapping window qualifies. Returns the
// window index, or -1.
func (l *linker) attribute(rec *jobRec, from, at sim.Time) int {
	best := -1
	var bestStart sim.Time
	for i := range l.faults {
		w := &l.faults[i]
		if w.Start > at || w.End < from {
			continue
		}
		if rec.host != "" && w.Site != rec.host && w.Site != rec.origin {
			continue
		}
		if best < 0 || w.Start >= bestStart {
			best, bestStart = i, w.Start
		}
	}
	return best
}

// anyOverlap reports whether any injected fault window — regardless of
// site — overlaps [from, at]. When none does, a degradation in that
// interval is background noise that no injected fault can explain.
func (l *linker) anyOverlap(from, at sim.Time) bool {
	for i := range l.faults {
		if l.faults[i].Start <= at && l.faults[i].End >= from {
			return true
		}
	}
	return false
}

// AttributionStats reports root-cause coverage over degraded jobs.
type AttributionStats struct {
	// TrackedJobs is every job the linker followed.
	TrackedJobs int `json:"tracked_jobs"`
	// DegradedJobs retried, were rescued, failed, or expired at least once
	// (BackgroundJobs included).
	DegradedJobs int `json:"degraded_jobs"`
	// AttributedJobs are degraded jobs with at least one event traced to a
	// specific injected fault.
	AttributedJobs int `json:"attributed_jobs"`
	// BackgroundJobs degraded only in chaos-quiet intervals: no fault
	// window at any site overlapped any of their degradations, so the
	// instruments' intrinsic failure probability — not an injected fault —
	// is the cause.
	BackgroundJobs int `json:"background_jobs"`
	// Coverage is AttributedJobs over the degraded jobs an injected fault
	// could plausibly explain, AttributedJobs/(DegradedJobs-BackgroundJobs)
	// (1 when that denominator is zero).
	Coverage float64 `json:"coverage"`
	// Untracked counts decisions dropped by the job cap or missing IDs.
	Untracked int `json:"untracked"`
}

func (l *linker) stats() AttributionStats {
	s := AttributionStats{TrackedJobs: len(l.order), Untracked: l.untracked, Coverage: 1}
	for _, id := range l.order {
		rec := l.jobs[id]
		if len(rec.events) == 0 {
			continue
		}
		s.DegradedJobs++
		attributed, overlapped := false, false
		for _, ev := range rec.events {
			attributed = attributed || ev.fault >= 0
			overlapped = overlapped || ev.overlapped
		}
		switch {
		case attributed:
			s.AttributedJobs++
		case !overlapped:
			s.BackgroundJobs++
		}
	}
	if in := s.DegradedJobs - s.BackgroundJobs; in > 0 {
		s.Coverage = float64(s.AttributedJobs) / float64(in)
	}
	return s
}

// IncidentJob is one affected job inside an incident report.
type IncidentJob struct {
	Job     string `json:"job"`
	Tenant  string `json:"tenant"`
	Retries int    `json:"retries,omitempty"`
	Rescues int    `json:"rescues,omitempty"`
	Outcome string `json:"outcome"` // completed/failed/expired/canceled/in-flight
}

// Incident is one injected fault window plus every job degradation
// attributed to it.
type Incident struct {
	Fault     FaultWindow   `json:"fault"`
	Jobs      []IncidentJob `json:"jobs"`
	Retries   int           `json:"retries"`
	Rescues   int           `json:"rescues"`
	Completed int           `json:"completed"`
	Failed    int           `json:"failed"`
	Expired   int           `json:"expired"`
	Summary   string        `json:"summary"`
}

// incidents aggregates one report per fault window that degraded at least
// one job, in injection order. Jobs appear in submission order.
func (l *linker) incidents() []Incident {
	byFault := make(map[int][]IncidentJob)
	counts := make(map[int]*Incident)
	for _, id := range l.order {
		rec := l.jobs[id]
		perFault := make(map[int]*IncidentJob)
		for _, ev := range rec.events {
			if ev.fault < 0 {
				continue
			}
			ij := perFault[ev.fault]
			if ij == nil {
				outcome := rec.terminal
				if outcome == "" {
					outcome = "in-flight"
				}
				ij = &IncidentJob{Job: rec.id, Tenant: rec.tenant, Outcome: outcome}
				perFault[ev.fault] = ij
			}
			switch ev.kind {
			case "retry":
				ij.Retries++
			case "rescue":
				ij.Rescues++
			}
		}
		for fi, ij := range perFault {
			c := counts[fi]
			if c == nil {
				c = &Incident{Fault: l.faults[fi]}
				counts[fi] = c
			}
			byFault[fi] = append(byFault[fi], *ij)
			c.Retries += ij.Retries
			c.Rescues += ij.Rescues
			switch ij.Outcome {
			case "completed":
				c.Completed++
			case "failed":
				c.Failed++
			case "expired":
				c.Expired++
			}
		}
	}
	var out []Incident
	for fi := range l.faults {
		c := counts[fi]
		if c == nil {
			continue
		}
		c.Jobs = byFault[fi]
		w := c.Fault
		c.Summary = fmt.Sprintf(
			"%s %s at t=%ds for %ds: %d jobs degraded (%d retries, %d rescues); %d completed, %d failed, %d expired",
			w.Site, w.Kind, int(w.Start/sim.Second), int((w.End-w.Start)/sim.Second),
			len(c.Jobs), c.Retries, c.Rescues, c.Completed, c.Failed, c.Expired)
		out = append(out, *c)
	}
	return out
}
