// Package param defines the parameter-space vocabulary shared by digital
// twins, instruments, and optimizers: named dimensions with bounds, optional
// discretization, unit-cube mapping for Gaussian-process models, and
// cardinality accounting (how the paper's "10^13 possible synthesis
// conditions" is counted).
package param

import (
	"fmt"
	"math"
	"slices"
	"strconv"

	"github.com/aisle-sim/aisle/internal/rng"
)

// Dim is one parameter dimension. Step == 0 means continuous; Step > 0
// discretizes [Lo, Hi] into a lattice anchored at Lo.
type Dim struct {
	Name string
	Lo   float64
	Hi   float64
	Step float64
	Unit string
}

// Levels reports the number of lattice points for a discrete dimension,
// or 0 for a continuous one.
func (d Dim) Levels() int {
	if d.Step <= 0 {
		return 0
	}
	return int(math.Floor((d.Hi-d.Lo)/d.Step+1e-9)) + 1
}

// Snap rounds v onto the dimension's lattice (identity when continuous) and
// clips to bounds.
func (d Dim) Snap(v float64) float64 {
	if v < d.Lo {
		v = d.Lo
	}
	if v > d.Hi {
		v = d.Hi
	}
	if d.Step > 0 {
		k := math.Round((v - d.Lo) / d.Step)
		v = d.Lo + k*d.Step
		if v > d.Hi {
			v -= d.Step
		}
	}
	return v
}

// Point is an assignment of values to dimension names.
type Point map[string]float64

// Clone copies the point.
func (p Point) Clone() Point {
	c := make(Point, len(p))
	for k, v := range p {
		c[k] = v
	}
	return c
}

// Space is an ordered list of dimensions.
type Space []Dim

// Names returns dimension names in order.
func (s Space) Names() []string {
	out := make([]string, len(s))
	for i, d := range s {
		out[i] = d.Name
	}
	return out
}

// Dim returns the named dimension and whether it exists.
func (s Space) Dim(name string) (Dim, bool) {
	for _, d := range s {
		if d.Name == name {
			return d, true
		}
	}
	return Dim{}, false
}

// Validate checks that p assigns an in-range value to every dimension.
func (s Space) Validate(p Point) error {
	for _, d := range s {
		v, ok := p[d.Name]
		if !ok {
			return fmt.Errorf("param: missing dimension %q", d.Name)
		}
		if v < d.Lo-1e-12 || v > d.Hi+1e-12 {
			return fmt.Errorf("param: %s=%g outside [%g,%g]", d.Name, v, d.Lo, d.Hi)
		}
	}
	return nil
}

// Snap projects p onto the space: clipped to bounds and rounded to lattices.
func (s Space) Snap(p Point) Point {
	out := make(Point, len(s))
	for _, d := range s {
		out[d.Name] = d.Snap(p[d.Name])
	}
	return out
}

// Sample draws a uniform random point (lattice-respecting).
func (s Space) Sample(r *rng.Stream) Point {
	p := make(Point, len(s))
	for _, d := range s {
		p[d.Name] = d.sample(r)
	}
	return p
}

// SampleValues draws a uniform random point into dst in dimension order
// (len(dst) >= len(s)), consuming the stream exactly as Sample does. Hot
// loops (candidate pools) draw straight into flat rows this way and build
// a Point only for the winner.
func (s Space) SampleValues(r *rng.Stream, dst []float64) {
	for i, d := range s {
		dst[i] = d.sample(r)
	}
}

// sample draws one uniform value: a lattice level for a discrete
// dimension, a point of [Lo, Hi) for a continuous one.
func (d Dim) sample(r *rng.Stream) float64 {
	if n := d.Levels(); n > 0 {
		return d.Lo + float64(r.Intn(n))*d.Step
	}
	return r.Range(d.Lo, d.Hi)
}

// PointOf builds the point whose values, in dimension order, are vals.
func (s Space) PointOf(vals []float64) Point {
	p := make(Point, len(s))
	for i, d := range s {
		p[d.Name] = vals[i]
	}
	return p
}

// SampleLHS draws n stratified points via Latin hypercube sampling.
func (s Space) SampleLHS(r *rng.Stream, n int) []Point {
	unit := r.LatinHypercube(n, len(s))
	out := make([]Point, n)
	for i := range out {
		out[i] = s.FromUnit(unit[i])
	}
	return out
}

// Cardinality reports the number of distinct lattice points, or +Inf if any
// dimension is continuous. This is the quantity behind the paper's "10^13
// possible synthesis conditions".
func (s Space) Cardinality() float64 {
	total := 1.0
	for _, d := range s {
		n := d.Levels()
		if n == 0 {
			return math.Inf(1)
		}
		total *= float64(n)
	}
	return total
}

// ToUnit maps p into [0,1]^d in dimension order.
func (s Space) ToUnit(p Point) []float64 {
	u := make([]float64, len(s))
	s.ToUnitInto(p, u)
	return u
}

// ToUnitInto maps p into [0,1]^d writing into u (len(u) >= len(s)),
// the allocation-free form batch scoring loops use.
func (s Space) ToUnitInto(p Point, u []float64) {
	for i, d := range s {
		u[i] = d.unit(p[d.Name])
	}
}

// ValuesToUnit is ToUnitInto for a point held as values in dimension
// order: u[i] is vals[i] mapped into [0,1].
func (s Space) ValuesToUnit(vals, u []float64) {
	for i, d := range s {
		u[i] = d.unit(vals[i])
	}
}

// unit maps v into [0,1] (0 for a degenerate dimension).
func (d Dim) unit(v float64) float64 {
	if d.Hi == d.Lo {
		return 0
	}
	return (v - d.Lo) / (d.Hi - d.Lo)
}

// FromUnit maps a unit-cube vector back to a (snapped) point.
func (s Space) FromUnit(u []float64) Point {
	p := make(Point, len(s))
	for i, d := range s {
		v := d.Lo + u[i]*(d.Hi-d.Lo)
		p[d.Name] = d.Snap(v)
	}
	return p
}

// Key renders a canonical string identity for a point (sorted names),
// suitable for dedup caches and knowledge-base keys. One allocation: the
// returned string.
func (p Point) Key() string {
	var buf [128]byte
	return string(p.AppendKey(buf[:0]))
}

// AppendKey appends the canonical identity — "name=value" pairs in name
// order, comma-separated, values as %.6g — to dst and returns the extended
// slice. Up to eight dimensions are sorted on the stack.
func (p Point) AppendKey(dst []byte) []byte {
	var stack [8]string
	names := stack[:0]
	for k := range p {
		names = append(names, k)
	}
	slices.Sort(names)
	for i, k := range names {
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = append(dst, k...)
		dst = append(dst, '=')
		dst = strconv.AppendFloat(dst, p[k], 'g', 6, 64)
	}
	return dst
}
