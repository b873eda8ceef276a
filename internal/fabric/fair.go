package fabric

import (
	"fmt"
	"sort"
	"strings"
)

// FAIRScore grades a dataset against the four FAIR principles, each 0..1.
type FAIRScore struct {
	Findable      float64
	Accessible    float64
	Interoperable float64
	Reusable      float64
}

// Overall averages the four principles.
func (s FAIRScore) Overall() float64 {
	return (s.Findable + s.Accessible + s.Interoperable + s.Reusable) / 4
}

// String renders "F=0.75 A=1.00 I=0.50 R=0.25 (0.62)".
func (s FAIRScore) String() string {
	return fmt.Sprintf("F=%.2f A=%.2f I=%.2f R=%.2f (%.2f)",
		s.Findable, s.Accessible, s.Interoperable, s.Reusable, s.Overall())
}

// ScoreFAIR assesses one dataset in the context of the mesh (schema registry
// and provenance graph participate in the I and R principles).
//
// The rubric mirrors the published FAIR indicators at the granularity a
// machine can check:
//
//	Findable:      persistent ID, title, >=3 keywords, indexed domain
//	Accessible:    access URL, license string, objects retrievable
//	Interoperable: registered schema, units on numeric fields
//	Reusable:      provenance link resolves, rich metadata (>=4 keys), license
func (m *Mesh) ScoreFAIR(d *Dataset) FAIRScore {
	var s FAIRScore

	// Findable.
	f := 0.0
	if d.ID != "" {
		f += 0.25
	}
	if d.Title != "" {
		f += 0.25
	}
	if len(d.Keywords) >= 3 {
		f += 0.25
	}
	if d.Domain != "" {
		f += 0.25
	}
	s.Findable = f

	// Accessible.
	a := 0.0
	if d.AccessURL != "" {
		a += 0.4
	}
	if d.License != "" {
		a += 0.2
	}
	if len(d.Objects) > 0 {
		present := 0
		for _, ref := range d.Objects {
			if node := m.Node(ref.Site); node != nil && node.Has(ref.ID) {
				present++
			}
		}
		a += 0.4 * float64(present) / float64(len(d.Objects))
	}
	s.Accessible = a

	// Interoperable.
	i := 0.0
	if d.SchemaID != "" {
		if sch, ok := m.schemaByID(d.SchemaID); ok {
			i += 0.5
			numeric, withUnit := 0, 0
			for _, fld := range sch.Fields {
				if fld.Type == TypeNumber {
					numeric++
					if fld.Unit != "" {
						withUnit++
					}
				}
			}
			if numeric == 0 {
				i += 0.5
			} else {
				i += 0.5 * float64(withUnit) / float64(numeric)
			}
		}
	}
	s.Interoperable = i

	// Reusable.
	r := 0.0
	if d.License != "" {
		r += 0.3
	}
	if d.ProvRef != "" && m.Prov.HasEntity(EntityID(d.ProvRef)) {
		r += 0.4
	}
	if len(d.Metadata) >= 4 {
		r += 0.3
	} else {
		r += 0.3 * float64(len(d.Metadata)) / 4
	}
	s.Reusable = r

	return s
}

// schemaByID parses "name@vN" registry keys.
func (m *Mesh) schemaByID(id string) (*Schema, bool) {
	at := strings.LastIndex(id, "@v")
	if at < 0 {
		return m.Schemas.Latest(id)
	}
	name := id[:at]
	var version int
	if _, err := fmt.Sscanf(id[at:], "@v%d", &version); err != nil {
		return nil, false
	}
	return m.Schemas.Get(name, version)
}

// Curator is the autonomous FAIR-governance agent of milestone M6: it walks
// a node's catalog, repairs the deficiencies it can repair mechanically, and
// reports the score movement.
type Curator struct {
	Mesh *Mesh
	// DefaultLicense is applied to unlicensed datasets.
	DefaultLicense string
}

// CurationReport summarises one curation pass.
type CurationReport struct {
	Datasets     int
	Repairs      int
	MeanBefore   float64
	MeanAfter    float64
	PerPrinciple map[string]float64 // mean deltas
}

// Curate runs one pass over a node's datasets.
func (c *Curator) Curate(n *Node) CurationReport {
	rep := CurationReport{PerPrinciple: map[string]float64{}}
	lic := c.DefaultLicense
	if lic == "" {
		lic = "CC-BY-4.0"
	}
	ids := n.Datasets()
	for _, id := range ids {
		d := n.datasets[id]
		before := c.Mesh.ScoreFAIR(d)
		rep.MeanBefore += before.Overall()

		// Keyword enrichment from title and domain tokens.
		if len(d.Keywords) < 3 {
			have := map[string]bool{}
			for _, k := range d.Keywords {
				have[strings.ToLower(k)] = true
			}
			for _, t := range tokens(d.Title + " " + d.Domain) {
				if len(d.Keywords) >= 5 {
					break
				}
				if len(t) > 2 && !have[t] {
					d.Keywords = append(d.Keywords, t)
					have[t] = true
					rep.Repairs++
				}
			}
		}
		if d.License == "" {
			d.License = lic
			rep.Repairs++
		}
		if d.AccessURL == "" {
			d.AccessURL = fmt.Sprintf("aisle://%s/datasets/%s", d.Origin, d.ID)
			rep.Repairs++
		}
		if len(d.Metadata) < 4 {
			if d.Metadata == nil {
				d.Metadata = map[string]string{}
			}
			fill := map[string]string{
				"curated_by": "fair-agent",
				"origin":     string(d.Origin),
				"domain":     d.Domain,
				"size_bytes": fmt.Sprintf("%d", d.TotalSize()),
			}
			for k, v := range fill {
				if _, ok := d.Metadata[k]; !ok && len(d.Metadata) < 6 {
					d.Metadata[k] = v
					rep.Repairs++
				}
			}
		}
		// Implicit schema inference: datasets published without a schema
		// get the domain's generic schema (registered on first use) — the
		// paper's "AI agents can leverage implicit data schemas" repair.
		if d.SchemaID == "" {
			name := "generic-" + d.Domain
			if name == "generic-" {
				name = "generic-untyped"
			}
			sch, ok := c.Mesh.Schemas.Latest(name)
			if !ok {
				sch, _ = c.Mesh.Schemas.Register(Schema{Name: name, Fields: []Field{
					{Name: "value", Type: TypeNumber, Unit: "arb", Required: true},
					{Name: "sample_id", Type: TypeString, Required: true},
					{Name: "timestamp", Type: TypeNumber, Unit: "s"},
				}})
			}
			if sch != nil {
				d.SchemaID = sch.ID()
				rep.Repairs++
			}
		}
		// Provenance anchor: if missing, record an entity for the dataset
		// so its lineage is at least anchored.
		if d.ProvRef == "" {
			d.ProvRef = string(c.Mesh.Prov.AddEntity("dataset:" + d.ID))
			rep.Repairs++
		}

		after := c.Mesh.ScoreFAIR(d)
		rep.MeanAfter += after.Overall()
		rep.PerPrinciple["findable"] += after.Findable - before.Findable
		rep.PerPrinciple["accessible"] += after.Accessible - before.Accessible
		rep.PerPrinciple["interoperable"] += after.Interoperable - before.Interoperable
		rep.PerPrinciple["reusable"] += after.Reusable - before.Reusable
		// Re-index with enriched keywords.
		c.Mesh.index.add(d)
	}
	rep.Datasets = len(ids)
	if rep.Datasets > 0 {
		rep.MeanBefore /= float64(rep.Datasets)
		rep.MeanAfter /= float64(rep.Datasets)
		keys := make([]string, 0, len(rep.PerPrinciple))
		for k := range rep.PerPrinciple {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			rep.PerPrinciple[k] /= float64(rep.Datasets)
		}
	}
	return rep
}
