package fabric

// EntityID names a provenance entity.
type EntityID string

// ProvGraph is the federation's provenance store: the entities a dataset's
// ProvRef can anchor its lineage to. FAIR scoring counts a dataset as
// reusable only when its ProvRef names a recorded entity.
type ProvGraph struct {
	entities map[EntityID]bool
}

// NewProvGraph returns an empty graph.
func NewProvGraph() *ProvGraph {
	return &ProvGraph{entities: make(map[EntityID]bool)}
}

// AddEntity records an entity (idempotent by ID).
func (g *ProvGraph) AddEntity(id string) EntityID {
	eid := EntityID(id)
	g.entities[eid] = true
	return eid
}

// HasEntity reports whether the entity exists.
func (g *ProvGraph) HasEntity(id EntityID) bool { return g.entities[id] }
