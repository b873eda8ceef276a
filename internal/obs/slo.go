package obs

import (
	"fmt"
	"strconv"

	"github.com/aisle-sim/aisle/internal/sim"
	"github.com/aisle-sim/aisle/internal/telemetry"
)

// Metric is the SLI specification of an SLO: exactly one of the three
// forms should be populated.
//
//   - Ratio: Good/Bad list counter names; the SLI is good/(good+bad).
//   - Latency: Hist names a histogram and Threshold (in the histogram's
//     unit) splits it; the SLI is the fraction of observations at or below
//     Threshold.
//   - Bound: Gauge names a gauge and Bound caps it; the SLI is the
//     fraction of sample ticks on which the gauge was at or below Bound.
//
// Names are resolved lazily against the engine's registry, so declaring
// an SLO over a metric its subsystem has not emitted yet is fine — the
// series contributes zero until it appears.
type Metric struct {
	Good []string `json:"good,omitempty"`
	Bad  []string `json:"bad,omitempty"`

	Hist      string  `json:"hist,omitempty"`
	Threshold float64 `json:"threshold,omitempty"`

	Gauge string  `json:"gauge,omitempty"`
	Bound float64 `json:"bound,omitempty"`
}

// BurnWindow is one multi-window burn-rate alerting rule: alert when the
// error budget burns at >= Burn times the sustainable rate over BOTH the
// short and the long window. The short window makes alerts reset quickly
// once the problem stops; the long window keeps blips from paging.
type BurnWindow struct {
	Short sim.Time `json:"short_ns"`
	Long  sim.Time `json:"long_ns"`
	Burn  float64  `json:"burn"`
}

// DefaultWindows is the Google-SRE two-pair policy: a fast pair (5m/1h at
// 14.4x — 2% of a 30-day budget in an hour) and a slow pair (6h/3d at 1x).
func DefaultWindows() []BurnWindow {
	return []BurnWindow{
		{Short: 5 * sim.Minute, Long: sim.Hour, Burn: 14.4},
		{Short: 6 * sim.Hour, Long: 3 * sim.Day, Burn: 1},
	}
}

// SLO declares one service-level objective over a metric stream.
type SLO struct {
	Name      string  `json:"name"`
	Metric    Metric  `json:"metric"`
	Objective float64 `json:"objective"` // target good fraction in (0,1)
	// Windows defaults to DefaultWindows when empty.
	Windows []BurnWindow `json:"windows,omitempty"`
}

// DefaultSLOs is the assembler's stock federation health policy: job
// completion rate, queue-wait latency, knowledge sync lag, and one queue
// depth bound per site.
func DefaultSLOs(sites []string) []SLO {
	slos := []SLO{
		{
			Name: "job-completion",
			Metric: Metric{
				Good: []string{"sched.completed"},
				Bad:  []string{"sched.failures", "sched.expired", "sched.canceled"},
			},
			Objective: 0.99,
		},
		{
			Name:      "sched-wait",
			Metric:    Metric{Hist: "sched.wait_s", Threshold: 1800},
			Objective: 0.95,
		},
		{
			Name:      "knowledge-sync",
			Metric:    Metric{Hist: "knowledge.sync_lag_s", Threshold: 30},
			Objective: 0.99,
		},
	}
	for _, s := range sites {
		slos = append(slos, SLO{
			Name: "queue-depth@" + s,
			Metric: Metric{
				Gauge: telemetry.Key("sched.queue_depth", "site", s),
				Bound: 50,
			},
			Objective: 0.95,
		})
	}
	return slos
}

// cumSample is one tick's cumulative (good, total) event counts.
type cumSample struct {
	good, total float64
}

// sloState is the streaming evaluation state of one SLO: a ring of
// cumulative samples sized to the longest alerting window, so any window's
// delta is two ring reads.
type sloState struct {
	slo    SLO
	period sim.Time

	// Resolved metric handles, filled lazily from the registry.
	good, bad []*telemetry.Counter
	hist      *telemetry.Histogram
	gauge     *telemetry.Gauge
	resolved  bool

	// Gauge SLIs accumulate tick verdicts here (the gauge itself is
	// instantaneous, not cumulative).
	gaugeGood, gaugeTotal float64

	ring  []cumSample
	head  int // next write position
	count int // filled entries, <= len(ring)

	active  []bool // per window pair
	burns   []float64
	lastBad float64
}

func newSLOState(s SLO, period sim.Time) *sloState {
	if len(s.Windows) == 0 {
		s.Windows = DefaultWindows()
	}
	if s.Objective <= 0 {
		s.Objective = 0.99
	}
	if s.Objective >= 1 {
		s.Objective = 0.999
	}
	longest := sim.Time(0)
	for _, w := range s.Windows {
		if w.Long > longest {
			longest = w.Long
		}
		if w.Short > longest {
			longest = w.Short
		}
	}
	n := int(longest/period) + 2
	return &sloState{
		slo:    s,
		period: period,
		ring:   make([]cumSample, n),
		active: make([]bool, len(s.Windows)),
		burns:  make([]float64, 2*len(s.Windows)),
	}
}

// resolve binds metric names to live handles. Unresolved names are retried
// every tick (two map reads each) until the subsystem creates them; once
// everything referenced exists the resolution is cached.
func (st *sloState) resolve(reg *telemetry.Registry) {
	if st.resolved {
		return
	}
	m := &st.slo.Metric
	missing := false
	if len(m.Good) > 0 || len(m.Bad) > 0 {
		if st.good == nil {
			st.good = make([]*telemetry.Counter, len(m.Good))
		}
		if st.bad == nil {
			st.bad = make([]*telemetry.Counter, len(m.Bad))
		}
		for i, name := range m.Good {
			if st.good[i] == nil {
				st.good[i] = reg.FindCounter(name)
				if st.good[i] == nil {
					missing = true
				}
			}
		}
		for i, name := range m.Bad {
			if st.bad[i] == nil {
				st.bad[i] = reg.FindCounter(name)
				if st.bad[i] == nil {
					missing = true
				}
			}
		}
	}
	if m.Hist != "" && st.hist == nil {
		st.hist = reg.FindHistogram(m.Hist)
		if st.hist == nil {
			missing = true
		}
	}
	if m.Gauge != "" && st.gauge == nil {
		st.gauge = reg.FindGauge(m.Gauge)
		if st.gauge == nil {
			missing = true
		}
	}
	st.resolved = !missing
}

// sample reads the cumulative (good, total) counts now and pushes them
// onto the ring. It returns the tick's bad-event delta, which the engine
// journals when non-zero.
func (st *sloState) sample(now sim.Time, reg *telemetry.Registry) float64 {
	st.resolve(reg)
	var cur cumSample
	m := &st.slo.Metric
	switch {
	case m.Hist != "":
		if st.hist != nil {
			cur.total = float64(st.hist.Count())
			cur.good = float64(st.hist.CountAtOrBelow(m.Threshold))
		}
	case m.Gauge != "":
		st.gaugeTotal++
		if st.gauge == nil || st.gauge.Value() <= m.Bound {
			st.gaugeGood++
		}
		cur.good, cur.total = st.gaugeGood, st.gaugeTotal
	default:
		for _, c := range st.good {
			if c != nil {
				cur.good += float64(c.Value())
			}
		}
		cur.total = cur.good
		for _, c := range st.bad {
			if c != nil {
				cur.total += float64(c.Value())
			}
		}
	}

	prevBad := 0.0
	if st.count > 0 {
		p := st.at(1)
		prevBad = p.total - p.good
	}
	st.ring[st.head] = cur
	st.head++
	if st.head == len(st.ring) {
		st.head = 0
	}
	if st.count < len(st.ring) {
		st.count++
	}
	st.lastBad = (cur.total - cur.good) - prevBad
	if st.lastBad < 0 {
		st.lastBad = 0
	}
	return st.lastBad
}

// at returns the sample back ticks before the latest (back=0 is latest),
// clamped to the oldest sample held.
func (st *sloState) at(back int) cumSample {
	if back >= st.count {
		back = st.count - 1
	}
	i := st.head - 1 - back
	for i < 0 {
		i += len(st.ring)
	}
	return st.ring[i]
}

// burnOver computes the burn rate over window w: the bad fraction of
// events inside the window divided by the budgeted bad fraction
// (1 - objective). A window shorter than one sample period evaluates over
// the latest tick; a window longer than the history held evaluates over
// everything held (the clock-starts-at-zero case).
func (st *sloState) burnOver(w sim.Time) float64 {
	if st.count < 2 {
		return 0
	}
	back := int(w / st.period)
	if back < 1 {
		back = 1
	}
	newest, oldest := st.at(0), st.at(back)
	dTotal := newest.total - oldest.total
	if dTotal <= 0 {
		return 0
	}
	badFrac := (dTotal - (newest.good - oldest.good)) / dTotal
	return badFrac / (1 - st.slo.Objective)
}

// evaluate updates the per-pair alert state and reports whether the SLO as
// a whole transitioned into (fired) or out of (resolved) alerting.
func (st *sloState) evaluate() (fired, resolved bool, detail string) {
	wasActive := st.anyActive()
	for i, w := range st.slo.Windows {
		short := st.burnOver(w.Short)
		long := st.burnOver(w.Long)
		st.burns[2*i] = short
		st.burns[2*i+1] = long
		nowActive := short >= w.Burn && long >= w.Burn
		if nowActive && !st.active[i] && detail == "" {
			detail = fmt.Sprintf("burn %.1fx/%.1fx over %s/%s exceeds %.1fx",
				short, long, fmtDur(w.Short), fmtDur(w.Long), w.Burn)
		}
		st.active[i] = nowActive
	}
	isActive := st.anyActive()
	return isActive && !wasActive, wasActive && !isActive, detail
}

func (st *sloState) anyActive() bool {
	for _, a := range st.active {
		if a {
			return true
		}
	}
	return false
}

// WindowStatus is the live burn state of one alerting window pair.
type WindowStatus struct {
	ShortBurn float64 `json:"short_burn"`
	LongBurn  float64 `json:"long_burn"`
	Threshold float64 `json:"threshold"`
	Active    bool    `json:"active"`
}

// SLOStatus is the point-in-time state of one SLO.
type SLOStatus struct {
	Name      string         `json:"name"`
	Objective float64        `json:"objective"`
	Good      float64        `json:"good"`
	Total     float64        `json:"total"`
	Windows   []WindowStatus `json:"windows"`
	Alerting  bool           `json:"alerting"`
}

func (st *sloState) status() SLOStatus {
	s := SLOStatus{
		Name:      st.slo.Name,
		Objective: st.slo.Objective,
		Alerting:  st.anyActive(),
	}
	if st.count > 0 {
		cur := st.at(0)
		s.Good, s.Total = cur.good, cur.total
	}
	for i, w := range st.slo.Windows {
		s.Windows = append(s.Windows, WindowStatus{
			ShortBurn: st.burns[2*i],
			LongBurn:  st.burns[2*i+1],
			Threshold: w.Burn,
			Active:    st.active[i],
		})
	}
	return s
}

func fmtDur(d sim.Time) string {
	switch {
	case d >= sim.Day && d%sim.Day == 0:
		return fmt.Sprintf("%dd", d/sim.Day)
	case d >= sim.Hour && d%sim.Hour == 0:
		return fmt.Sprintf("%dh", d/sim.Hour)
	case d >= sim.Minute && d%sim.Minute == 0:
		return fmt.Sprintf("%dm", d/sim.Minute)
	}
	return fmt.Sprintf("%ds", d/sim.Second)
}

func formatBurn(w WindowStatus) string {
	return fmt.Sprintf("%.2fx/%.2fx", w.ShortBurn, w.LongBurn)
}

func trimFloat(v float64) string {
	return strconv.FormatFloat(v, 'g', 6, 64)
}
