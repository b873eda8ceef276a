package fabric

import (
	"errors"
	"fmt"
)

// FieldType enumerates schema field types.
type FieldType string

// Field types.
const (
	TypeNumber FieldType = "number"
	TypeString FieldType = "string"
	TypeBool   FieldType = "bool"
)

// Field is one column of a dataset schema.
type Field struct {
	Name     string
	Type     FieldType
	Unit     string
	Required bool
}

// Schema describes a dataset's record structure. Versions of the same Name
// form an evolution chain governed by compatibility rules.
type Schema struct {
	Name    string
	Version int
	Fields  []Field
}

// ID renders the registry key "name@vN".
func (s *Schema) ID() string { return fmt.Sprintf("%s@v%d", s.Name, s.Version) }

// Field looks up a field by name.
func (s *Schema) Field(name string) (Field, bool) {
	for _, f := range s.Fields {
		if f.Name == name {
			return f, true
		}
	}
	return Field{}, false
}

// Errors from schema registration and validation.
var (
	ErrIncompatible  = errors.New("fabric: incompatible schema evolution")
	ErrUnknownSchema = errors.New("fabric: unknown schema")
	ErrBadRecord     = errors.New("fabric: record does not match schema")
)

// SchemaRegistry stores schema versions and enforces compatible evolution:
// a new version may add optional fields and relax requiredness, but may not
// remove or retype fields that existing consumers rely on. This is the
// "dynamic schema evolution without manual intervention" mechanism of the
// paper's data-management dimension: agents submit schema candidates, the
// registry accepts or rejects mechanically.
type SchemaRegistry struct {
	versions map[string][]*Schema // name -> ordered versions
}

// NewSchemaRegistry returns an empty registry.
func NewSchemaRegistry() *SchemaRegistry {
	return &SchemaRegistry{versions: make(map[string][]*Schema)}
}

// Latest returns the newest version of the named schema.
func (r *SchemaRegistry) Latest(name string) (*Schema, bool) {
	vs := r.versions[name]
	if len(vs) == 0 {
		return nil, false
	}
	return vs[len(vs)-1], true
}

// Get fetches a specific version.
func (r *SchemaRegistry) Get(name string, version int) (*Schema, bool) {
	for _, s := range r.versions[name] {
		if s.Version == version {
			return s, true
		}
	}
	return nil, false
}

// Register adds a schema. The first version of a name always succeeds;
// subsequent versions must be backward compatible with the latest.
func (r *SchemaRegistry) Register(s Schema) (*Schema, error) {
	prev, ok := r.Latest(s.Name)
	if ok {
		if err := compatible(prev, &s); err != nil {
			return nil, err
		}
		s.Version = prev.Version + 1
	} else {
		s.Version = 1
	}
	c := s
	c.Fields = append([]Field(nil), s.Fields...)
	r.versions[s.Name] = append(r.versions[s.Name], &c)
	return &c, nil
}

// compatible checks backward compatibility of next against prev.
func compatible(prev, next *Schema) error {
	for _, pf := range prev.Fields {
		nf, ok := next.Field(pf.Name)
		if !ok {
			if pf.Required {
				return fmt.Errorf("%w: required field %q removed", ErrIncompatible, pf.Name)
			}
			continue
		}
		if nf.Type != pf.Type {
			return fmt.Errorf("%w: field %q retyped %s -> %s", ErrIncompatible, pf.Name, pf.Type, nf.Type)
		}
		if nf.Unit != pf.Unit && pf.Unit != "" {
			return fmt.Errorf("%w: field %q unit changed %q -> %q", ErrIncompatible, pf.Name, pf.Unit, nf.Unit)
		}
	}
	// New fields must be optional: existing producers don't emit them.
	for _, nf := range next.Fields {
		if _, ok := prev.Field(nf.Name); !ok && nf.Required {
			return fmt.Errorf("%w: new field %q must be optional", ErrIncompatible, nf.Name)
		}
	}
	return nil
}

// Record is a loosely-typed data row validated against a schema.
type Record map[string]any

// Validate checks rec against the schema: required fields present, types
// correct, unknown fields tolerated (open-world).
func (s *Schema) Validate(rec Record) error {
	for _, f := range s.Fields {
		v, ok := rec[f.Name]
		if !ok {
			if f.Required {
				return fmt.Errorf("%w: missing required field %q", ErrBadRecord, f.Name)
			}
			continue
		}
		switch f.Type {
		case TypeNumber:
			switch v.(type) {
			case float64, int:
			default:
				return fmt.Errorf("%w: field %q want number, got %T", ErrBadRecord, f.Name, v)
			}
		case TypeString:
			if _, ok := v.(string); !ok {
				return fmt.Errorf("%w: field %q want string, got %T", ErrBadRecord, f.Name, v)
			}
		case TypeBool:
			if _, ok := v.(bool); !ok {
				return fmt.Errorf("%w: field %q want bool, got %T", ErrBadRecord, f.Name, v)
			}
		}
	}
	return nil
}
