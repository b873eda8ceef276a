// Package fabric implements AISLE's agent-driven data management layer
// (dimension 2, milestones M5-M7): a federated data mesh in which every
// laboratory runs a data node with a content-addressed object store,
// dataset records with registered schemas, a global discovery index,
// pass-by-reference proxy objects (the ProxyStore pattern), replication,
// FAIR scoring with autonomous curation, PROV-O provenance, and a
// near-real-time stream processor with automated quality assessment.
package fabric

import (
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"sort"
	"strings"

	"github.com/aisle-sim/aisle/internal/netsim"
	"github.com/aisle-sim/aisle/internal/sim"
	"github.com/aisle-sim/aisle/internal/telemetry"
)

// Errors surfaced by mesh operations.
var (
	ErrNoObject    = errors.New("fabric: object not found")
	ErrNoDataset   = errors.New("fabric: dataset not found")
	ErrNoNode      = errors.New("fabric: no data node at site")
	ErrUnreachable = errors.New("fabric: site unreachable")
)

// ObjectID is the content address (SHA-256) of a stored object.
type ObjectID string

// Ref is a pass-by-reference handle to an object held at a site. Moving a
// Ref between agents costs ~100 bytes; resolving it moves the data.
type Ref struct {
	ID   ObjectID
	Site netsim.SiteID
	Size int
}

// Dataset is a catalog record describing a collection of objects.
type Dataset struct {
	ID        string
	Title     string
	Domain    string // "materials", "chemistry", "biology", ...
	Keywords  []string
	SchemaID  string
	License   string
	AccessURL string
	ProvRef   string // provenance entity ID
	Origin    netsim.SiteID
	CreatedAt sim.Time
	Objects   []Ref
	Metadata  map[string]string
}

// TotalSize sums the object sizes.
func (d *Dataset) TotalSize() int {
	var n int
	for _, o := range d.Objects {
		n += o.Size
	}
	return n
}

func (d *Dataset) clone() *Dataset {
	c := *d
	c.Keywords = append([]string(nil), d.Keywords...)
	c.Objects = append([]Ref(nil), d.Objects...)
	c.Metadata = make(map[string]string, len(d.Metadata))
	for k, v := range d.Metadata {
		c.Metadata[k] = v
	}
	return &c
}

// Node is one site's data plane: object store plus dataset catalog.
type Node struct {
	site     netsim.SiteID
	mesh     *Mesh
	objects  map[ObjectID][]byte
	datasets map[string]*Dataset
}

// Put stores bytes content-addressed and returns a Ref.
func (n *Node) Put(data []byte) Ref {
	sum := sha256.Sum256(data)
	id := ObjectID(hex.EncodeToString(sum[:8]))
	if _, ok := n.objects[id]; !ok {
		n.objects[id] = append([]byte(nil), data...)
		n.mesh.metrics.Counter("fabric.objects").Inc()
		n.mesh.metrics.Counter("fabric.bytes_stored").Add(int64(len(data)))
	}
	return Ref{ID: id, Site: n.site, Size: len(data)}
}

// GetLocal returns an object held at this node.
func (n *Node) GetLocal(id ObjectID) ([]byte, error) {
	d, ok := n.objects[id]
	if !ok {
		return nil, fmt.Errorf("%w: %s at %s", ErrNoObject, id, n.site)
	}
	return d, nil
}

// Has reports whether the node holds the object.
func (n *Node) Has(id ObjectID) bool {
	_, ok := n.objects[id]
	return ok
}

// Publish registers a dataset in the local catalog and the global index.
func (n *Node) Publish(d Dataset) *Dataset {
	d.Origin = n.site
	d.CreatedAt = n.mesh.eng.Now()
	c := d.clone()
	n.datasets[d.ID] = c
	n.mesh.index.add(c)
	n.mesh.metrics.Counter("fabric.datasets").Inc()
	return c
}

// Dataset fetches a catalog record by ID.
func (n *Node) Dataset(id string) (*Dataset, error) {
	d, ok := n.datasets[id]
	if !ok {
		return nil, fmt.Errorf("%w: %s at %s", ErrNoDataset, id, n.site)
	}
	return d, nil
}

// Datasets lists local dataset IDs, sorted.
func (n *Node) Datasets() []string {
	out := make([]string, 0, len(n.datasets))
	for id := range n.datasets {
		out = append(out, id)
	}
	sort.Strings(out)
	return out
}

// Mesh is the federation of data nodes plus the global discovery index.
type Mesh struct {
	net     *netsim.Network
	eng     *sim.Engine
	metrics *telemetry.Registry
	nodes   map[netsim.SiteID]*Node
	index   *index

	// Schemas is the federated schema registry.
	Schemas *SchemaRegistry
	// Prov is the federation-wide provenance graph.
	Prov *ProvGraph
}

// NewMesh builds an empty mesh over the network.
func NewMesh(net *netsim.Network) *Mesh {
	return &Mesh{
		net:     net,
		eng:     net.Engine(),
		metrics: net.Metrics(),
		nodes:   make(map[netsim.SiteID]*Node),
		index:   newIndex(),
		Schemas: NewSchemaRegistry(),
		Prov:    NewProvGraph(),
	}
}

// Metrics exposes mesh telemetry: the network's registry, which the mesh
// counts into.
func (m *Mesh) Metrics() *telemetry.Registry { return m.metrics }

// AddNode creates the data node for a site.
func (m *Mesh) AddNode(site netsim.SiteID) *Node {
	n := &Node{
		site:     site,
		mesh:     m,
		objects:  make(map[ObjectID][]byte),
		datasets: make(map[string]*Dataset),
	}
	m.nodes[site] = n
	return n
}

// Node returns the data node at a site, or nil.
func (m *Mesh) Node(site netsim.SiteID) *Node { return m.nodes[site] }

// Fetch resolves a Ref from anywhere in the federation to the requesting
// site. The request travels as a small message; the response carries the
// object's bytes, so WAN bandwidth and latency apply. cb receives the data
// or an error.
func (m *Mesh) Fetch(at netsim.SiteID, ref Ref, cb func([]byte, error)) {
	src, ok := m.nodes[ref.Site]
	if !ok {
		cb(nil, fmt.Errorf("%w: %s", ErrNoNode, ref.Site))
		return
	}
	if ref.Site == at {
		data, err := src.GetLocal(ref.ID)
		m.eng.Schedule(0, func() { cb(data, err) })
		return
	}
	m.metrics.Counter("fabric.fetches").Inc()
	// Request hop.
	err := m.net.Send(netsim.Message{From: at, To: ref.Site, Service: "fabric", Size: 100},
		func(netsim.Message) {
			data, gerr := src.GetLocal(ref.ID)
			if gerr != nil {
				// Error response is small.
				_ = m.net.Send(netsim.Message{From: ref.Site, To: at, Service: "fabric", Size: 100},
					func(netsim.Message) { cb(nil, gerr) })
				return
			}
			// Data hop at full size.
			m.metrics.Counter("fabric.bytes_moved").Add(int64(len(data)))
			serr := m.net.Send(netsim.Message{From: ref.Site, To: at, Service: "fabric", Size: len(data)},
				func(netsim.Message) { cb(append([]byte(nil), data...), nil) })
			if serr != nil {
				cb(nil, fmt.Errorf("%w: %v", ErrUnreachable, serr))
			}
		})
	if err != nil {
		cb(nil, fmt.Errorf("%w: %v", ErrUnreachable, err))
	}
}

// SearchResult is one discovery hit.
type SearchResult struct {
	Dataset *Dataset
	Score   float64
}

// Search queries the global discovery index. Matching is keyword- and
// domain-based with TF-style scoring; results are sorted by score then ID.
func (m *Mesh) Search(query string) []SearchResult {
	m.metrics.Counter("fabric.searches").Inc()
	return m.index.search(query)
}

// index is the global discovery index: inverted keyword map.
type index struct {
	byToken map[string][]*Dataset
}

func newIndex() *index { return &index{byToken: make(map[string][]*Dataset)} }

func tokens(s string) []string {
	fields := strings.FieldsFunc(strings.ToLower(s), func(r rune) bool {
		return !('a' <= r && r <= 'z' || '0' <= r && r <= '9')
	})
	return fields
}

func (ix *index) add(d *Dataset) {
	seen := map[string]bool{}
	addTok := func(t string) {
		if t == "" || seen[t] {
			return
		}
		seen[t] = true
		ix.byToken[t] = append(ix.byToken[t], d)
	}
	for _, t := range tokens(d.Title) {
		addTok(t)
	}
	for _, k := range d.Keywords {
		for _, t := range tokens(k) {
			addTok(t)
		}
	}
	addTok(strings.ToLower(d.Domain))
	addTok(strings.ToLower(d.ID))
}

func (ix *index) search(query string) []SearchResult {
	scores := map[*Dataset]float64{}
	for _, t := range tokens(query) {
		for _, d := range ix.byToken[t] {
			scores[d]++
		}
	}
	out := make([]SearchResult, 0, len(scores))
	for d, s := range scores {
		out = append(out, SearchResult{Dataset: d, Score: s})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Score != out[j].Score {
			return out[i].Score > out[j].Score
		}
		return out[i].Dataset.ID < out[j].Dataset.ID
	})
	return out
}
