package fabric

import (
	"errors"
	"testing"

	"github.com/aisle-sim/aisle/internal/netsim"
	"github.com/aisle-sim/aisle/internal/rng"
	"github.com/aisle-sim/aisle/internal/sim"
	"github.com/aisle-sim/aisle/internal/simtest"
)

func testMesh(t *testing.T) (*simtest.Stack, *Mesh) {
	t.Helper()
	st := simtest.New(rng.New(3), netsim.Link{Latency: 10 * sim.Millisecond, Bandwidth: 10e6}, "ornl", "anl")
	m := NewMesh(st.Net)
	m.AddNode("ornl")
	m.AddNode("anl")
	return st, m
}

func TestPutGetContentAddressed(t *testing.T) {
	_, m := testMesh(t)
	n := m.Node("ornl")
	data := []byte("diffraction pattern")
	ref := n.Put(data)
	ref2 := n.Put(data)
	if ref.ID != ref2.ID {
		t.Fatal("identical content produced different IDs")
	}
	got, err := n.GetLocal(ref.ID)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != string(data) {
		t.Fatal("round-trip mismatch")
	}
	if _, err := n.GetLocal("missing"); !errors.Is(err, ErrNoObject) {
		t.Fatalf("err = %v, want ErrNoObject", err)
	}
}

func TestFetchLocalAndRemote(t *testing.T) {
	st, m := testMesh(t)
	ref := m.Node("ornl").Put(make([]byte, 1e6)) // 1MB

	var localAt, remoteAt sim.Time
	m.Fetch("ornl", ref, func(d []byte, err error) {
		if err != nil {
			t.Errorf("local fetch: %v", err)
		}
		localAt = st.Eng.Now()
	})
	m.Fetch("anl", ref, func(d []byte, err error) {
		if err != nil {
			t.Errorf("remote fetch: %v", err)
		}
		if len(d) != 1e6 {
			t.Errorf("remote fetch size %d", len(d))
		}
		remoteAt = st.Eng.Now()
	})
	st.Run(t)
	if localAt >= remoteAt {
		t.Fatalf("remote fetch (%v) should be slower than local (%v)", remoteAt, localAt)
	}
	// 1MB at 10MB/s = 100ms serialization + 2x10ms propagation.
	if remoteAt < 100*sim.Millisecond {
		t.Fatalf("remote fetch at %v ignored bandwidth", remoteAt)
	}
}

func TestFetchUnreachable(t *testing.T) {
	st, m := testMesh(t)
	ref := m.Node("ornl").Put([]byte("x"))
	st.Net.SetLinkUp("ornl", "anl", false)
	var gotErr error
	m.Fetch("anl", ref, func(_ []byte, err error) { gotErr = err })
	st.Run(t)
	if !errors.Is(gotErr, ErrUnreachable) {
		t.Fatalf("err = %v, want ErrUnreachable", gotErr)
	}
}

func TestPublishAndSearch(t *testing.T) {
	_, m := testMesh(t)
	n := m.Node("ornl")
	n.Publish(Dataset{ID: "ds-1", Title: "Perovskite PLQY sweep", Domain: "materials",
		Keywords: []string{"perovskite", "nanocrystal"}})
	n.Publish(Dataset{ID: "ds-2", Title: "Alloy hardness study", Domain: "materials",
		Keywords: []string{"alloy", "bmg"}})
	m.Node("anl").Publish(Dataset{ID: "ds-3", Title: "Perovskite stability", Domain: "materials"})

	hits := m.Search("perovskite")
	if len(hits) != 2 {
		t.Fatalf("search hits = %d, want 2 (federated)", len(hits))
	}
	hits = m.Search("materials perovskite nanocrystal")
	if hits[0].Dataset.ID != "ds-1" {
		t.Fatalf("best hit = %s, want ds-1", hits[0].Dataset.ID)
	}
	if len(m.Search("nonexistent")) != 0 {
		t.Fatal("phantom hits")
	}
}

func TestDatasetLookup(t *testing.T) {
	_, m := testMesh(t)
	n := m.Node("ornl")
	n.Publish(Dataset{ID: "d1", Title: "T"})
	if _, err := n.Dataset("d1"); err != nil {
		t.Fatal(err)
	}
	if _, err := n.Dataset("ghost"); !errors.Is(err, ErrNoDataset) {
		t.Fatalf("err = %v, want ErrNoDataset", err)
	}
	ids := n.Datasets()
	if len(ids) != 1 || ids[0] != "d1" {
		t.Fatalf("Datasets = %v", ids)
	}
}

func TestSchemaEvolutionCompatible(t *testing.T) {
	r := NewSchemaRegistry()
	v1, err := r.Register(Schema{Name: "xrd", Fields: []Field{
		{Name: "angle", Type: TypeNumber, Unit: "deg", Required: true},
		{Name: "intensity", Type: TypeNumber, Unit: "counts", Required: true},
	}})
	if err != nil {
		t.Fatal(err)
	}
	if v1.Version != 1 {
		t.Fatalf("first version = %d", v1.Version)
	}
	// Adding an optional field is compatible.
	v2, err := r.Register(Schema{Name: "xrd", Fields: []Field{
		{Name: "angle", Type: TypeNumber, Unit: "deg", Required: true},
		{Name: "intensity", Type: TypeNumber, Unit: "counts", Required: true},
		{Name: "temperature", Type: TypeNumber, Unit: "C"},
	}})
	if err != nil {
		t.Fatal(err)
	}
	if v2.Version != 2 {
		t.Fatalf("second version = %d", v2.Version)
	}
	latest, _ := r.Latest("xrd")
	if latest.Version != 2 {
		t.Fatal("Latest not updated")
	}
	if _, ok := r.Get("xrd", 1); !ok {
		t.Fatal("old version lost")
	}
}

func TestSchemaEvolutionIncompatible(t *testing.T) {
	r := NewSchemaRegistry()
	if _, err := r.Register(Schema{Name: "s", Fields: []Field{
		{Name: "x", Type: TypeNumber, Required: true},
	}}); err != nil {
		t.Fatal(err)
	}
	// Removing a required field fails.
	if _, err := r.Register(Schema{Name: "s", Fields: []Field{
		{Name: "y", Type: TypeNumber},
	}}); !errors.Is(err, ErrIncompatible) {
		t.Fatalf("removal: err = %v, want ErrIncompatible", err)
	}
	// Retyping fails.
	if _, err := r.Register(Schema{Name: "s", Fields: []Field{
		{Name: "x", Type: TypeString, Required: true},
	}}); !errors.Is(err, ErrIncompatible) {
		t.Fatalf("retype: err = %v, want ErrIncompatible", err)
	}
	// New required field fails.
	if _, err := r.Register(Schema{Name: "s", Fields: []Field{
		{Name: "x", Type: TypeNumber, Required: true},
		{Name: "z", Type: TypeNumber, Required: true},
	}}); !errors.Is(err, ErrIncompatible) {
		t.Fatalf("new required: err = %v, want ErrIncompatible", err)
	}
}

func TestSchemaValidateRecord(t *testing.T) {
	s := &Schema{Name: "s", Fields: []Field{
		{Name: "x", Type: TypeNumber, Required: true},
		{Name: "label", Type: TypeString},
		{Name: "flag", Type: TypeBool},
	}}
	if err := s.Validate(Record{"x": 1.5, "label": "ok", "flag": true}); err != nil {
		t.Fatal(err)
	}
	if err := s.Validate(Record{"x": 2}); err != nil {
		t.Fatalf("int should satisfy number: %v", err)
	}
	if err := s.Validate(Record{"label": "no-x"}); !errors.Is(err, ErrBadRecord) {
		t.Fatalf("missing required: %v", err)
	}
	if err := s.Validate(Record{"x": "str"}); !errors.Is(err, ErrBadRecord) {
		t.Fatalf("wrong type: %v", err)
	}
	if err := s.Validate(Record{"x": 1, "unknown": 9}); err != nil {
		t.Fatalf("open-world fields should pass: %v", err)
	}
}

func TestFAIRScoring(t *testing.T) {
	_, m := testMesh(t)
	n := m.Node("ornl")
	sch, _ := m.Schemas.Register(Schema{Name: "plqy", Fields: []Field{
		{Name: "plqy", Type: TypeNumber, Unit: "ratio", Required: true},
	}})
	ref := n.Put([]byte("data"))
	ent := m.Prov.AddEntity("e1", nil)
	act := m.Prov.AddActivity("a1", 0, 0)
	m.Prov.WasGeneratedBy(ent, act)

	full := n.Publish(Dataset{
		ID: "good", Title: "Good dataset", Domain: "materials",
		Keywords: []string{"a", "b", "c"}, SchemaID: sch.ID(),
		License: "MIT", AccessURL: "aisle://x", ProvRef: "e1",
		Objects:  []Ref{ref},
		Metadata: map[string]string{"k1": "v", "k2": "v", "k3": "v", "k4": "v"},
	})
	bare := n.Publish(Dataset{ID: "bare"})

	fullScore := m.ScoreFAIR(full)
	bareScore := m.ScoreFAIR(bare)
	if fullScore.Overall() < 0.95 {
		t.Fatalf("complete dataset scores %v", fullScore)
	}
	if bareScore.Overall() > 0.4 {
		t.Fatalf("bare dataset scores %v, should be poor", bareScore)
	}
}

func TestCuratorRaisesFAIR(t *testing.T) {
	_, m := testMesh(t)
	n := m.Node("ornl")
	for i := 0; i < 10; i++ {
		n.Publish(Dataset{
			ID:    fmtID("raw", i),
			Title: "Uncurated perovskite synthesis run", Domain: "materials",
		})
	}
	c := &Curator{Mesh: m}
	rep := c.Curate(n)
	if rep.Datasets != 10 {
		t.Fatalf("curated %d datasets", rep.Datasets)
	}
	if rep.MeanAfter <= rep.MeanBefore {
		t.Fatalf("curation did not improve FAIR: %v -> %v", rep.MeanBefore, rep.MeanAfter)
	}
	if rep.MeanAfter < 0.6 {
		t.Fatalf("post-curation mean %v too low", rep.MeanAfter)
	}
	if rep.Repairs == 0 {
		t.Fatal("no repairs recorded")
	}
	// Curated keywords should make datasets findable.
	if len(m.Search("perovskite")) == 0 {
		t.Fatal("curated datasets not searchable")
	}
}

func fmtID(prefix string, i int) string {
	return prefix + "-" + string(rune('a'+i))
}
