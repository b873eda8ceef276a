package fabric

import (
	"testing"

	"github.com/aisle-sim/aisle/internal/rng"
)

func TestProvIdempotentAdds(t *testing.T) {
	g := NewProvGraph()
	a, b := g.AddEntity("e"), g.AddEntity("e")
	if a != b || !g.HasEntity(a) || g.HasEntity("ghost") {
		t.Fatalf("AddEntity twice gave %q and %q; HasEntity(e)=%v HasEntity(ghost)=%v",
			a, b, g.HasEntity(a), g.HasEntity("ghost"))
	}
}

func TestStreamRangeDetection(t *testing.T) {
	p := NewStreamProcessor()
	p.Lo, p.Hi = 0, 100
	a := p.Ingest(StreamEvent{Source: "s", Value: 150})
	if !a.Anomalous || a.Reason != "range" {
		t.Fatalf("assessment = %+v", a)
	}
	if a := p.Ingest(StreamEvent{Source: "s", Value: 50}); a.Anomalous {
		t.Fatal("in-range value flagged")
	}
}

func TestStreamSpikeDetection(t *testing.T) {
	p := NewStreamProcessor()
	r := rng.New(1)
	// Establish a baseline around 10 +- 0.5.
	for i := 0; i < 50; i++ {
		if a := p.Ingest(StreamEvent{Source: "s", Value: r.Normal(10, 0.5)}); a.Anomalous {
			t.Fatalf("baseline value flagged: %+v", a)
		}
	}
	a := p.Ingest(StreamEvent{Source: "s", Value: 30}) // 40 sigma
	if !a.Anomalous || a.Reason != "spike" {
		t.Fatalf("spike missed: %+v", a)
	}
	// The spike must not poison the window: next normal value passes.
	if a := p.Ingest(StreamEvent{Source: "s", Value: 10.2}); a.Anomalous {
		t.Fatalf("post-spike normal value flagged: %+v", a)
	}
}

func TestStreamStuckSensor(t *testing.T) {
	p := NewStreamProcessor()
	p.StuckWindow = 5
	r := rng.New(2)
	for i := 0; i < 20; i++ {
		p.Ingest(StreamEvent{Source: "s", Value: r.Normal(5, 0.3)})
	}
	var last Assessment
	for i := 0; i < 6; i++ {
		last = p.Ingest(StreamEvent{Source: "s", Value: 5.0})
	}
	if !last.Anomalous || last.Reason != "stuck" {
		t.Fatalf("stuck sensor missed: %+v", last)
	}
}

func TestStreamPerSourceWindows(t *testing.T) {
	p := NewStreamProcessor()
	r := rng.New(3)
	// Source A near 10, source B near 1000: values normal for B must not be
	// judged against A's window.
	for i := 0; i < 40; i++ {
		p.Ingest(StreamEvent{Source: "a", Value: r.Normal(10, 0.5)})
		p.Ingest(StreamEvent{Source: "b", Value: r.Normal(1000, 20)})
	}
	if a := p.Ingest(StreamEvent{Source: "b", Value: 1010}); a.Anomalous {
		t.Fatalf("cross-source contamination: %+v", a)
	}
}

func TestStreamReduction(t *testing.T) {
	p := NewStreamProcessor()
	p.ReduceKeep1InN = 10
	kept := 0
	p.OnNormal = func(Assessment) { kept++ }
	r := rng.New(4)
	for i := 0; i < 1000; i++ {
		p.Ingest(StreamEvent{Source: "s", Value: r.Normal(10, 0.5)})
	}
	if kept < 90 || kept > 110 {
		t.Fatalf("kept %d of 1000, want ~100", kept)
	}
}

func TestStreamPrecisionRecallOnInjectedAnomalies(t *testing.T) {
	p := NewStreamProcessor()
	p.Lo, p.Hi = -50, 200
	r := rng.New(5)
	var stats StreamStats
	for i := 0; i < 20000; i++ {
		ev := StreamEvent{Source: "s", Value: r.Normal(20, 1)}
		if r.Bool(0.01) {
			ev.Truth = true
			if r.Bool(0.5) {
				ev.Value = 20 + r.Range(15, 60) // spike
			} else {
				ev.Value = 300 // out of range
			}
		}
		stats.Score(p.Ingest(ev))
	}
	if stats.Recall() < 0.9 {
		t.Fatalf("recall = %v, want > 0.9", stats.Recall())
	}
	if stats.Precision() < 0.9 {
		t.Fatalf("precision = %v, want > 0.9", stats.Precision())
	}
}

func TestStreamStatsEdgeCases(t *testing.T) {
	var s StreamStats
	if s.Precision() != 1 || s.Recall() != 1 {
		t.Fatal("empty stats should report perfect scores")
	}
	s.Score(Assessment{Event: StreamEvent{Truth: true}, Anomalous: false})
	if s.Recall() != 0 {
		t.Fatal("missed anomaly should zero recall")
	}
}
