package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"time"
)

// span is one interval the benchmark recorded around a call into a layer.
type span struct {
	name   string
	parent string // name of the enclosing span; "" at the root
	iter   int    // spans of one iteration share this identifier
	start  time.Time
	end    time.Time
	events uint64 // sim events fired inside a sim.run_until slice
}

// spanLog keeps spans in memory until the benchmark ends. A nil *spanLog is
// the untraced pass: add costs one pointer test.
type spanLog struct {
	origin time.Time
	spans  []span
}

func newSpanLog() *spanLog { return &spanLog{origin: time.Now()} }

func (l *spanLog) add(name, parent string, iter int, start, end time.Time, events uint64) {
	if l == nil {
		return
	}
	l.spans = append(l.spans, span{name, parent, iter, start, end, events})
}

// timed runs fn inside a span and returns its duration.
func (l *spanLog) timed(name, parent string, iter int, fn func()) time.Duration {
	start := time.Now()
	fn()
	end := time.Now()
	l.add(name, parent, iter, start, end, 0)
	return end.Sub(start)
}

// traceEvent is one complete ("X") event of the Chrome trace-event format,
// which Perfetto and chrome://tracing load.
type traceEvent struct {
	Name string         `json:"name"`
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts"`  // microseconds
	Dur  float64        `json:"dur"` // microseconds
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	Args map[string]any `json:"args,omitempty"`
}

// write exports the spans to dir/<workload>.trace.json, one thread row per
// iteration.
func (l *spanLog) write(dir, workload string) (string, error) {
	events := make([]traceEvent, 0, len(l.spans))
	for _, s := range l.spans {
		args := map[string]any{}
		if s.parent != "" {
			args["parent"] = s.parent
		}
		if s.events > 0 {
			args["sim_events"] = s.events
		}
		events = append(events, traceEvent{
			Name: s.name, Ph: "X", Pid: 1, Tid: s.iter,
			Ts:   float64(s.start.Sub(l.origin).Nanoseconds()) / 1e3,
			Dur:  float64(s.end.Sub(s.start).Nanoseconds()) / 1e3,
			Args: args,
		})
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, workload+".trace.json")
	data, err := json.Marshal(map[string]any{"traceEvents": events, "displayTimeUnit": "ms"})
	if err != nil {
		return "", err
	}
	return path, os.WriteFile(path, data, 0o644)
}
