package knowledge

import (
	"fmt"
	"testing"
	"testing/quick"

	"github.com/aisle-sim/aisle/internal/netsim"
	"github.com/aisle-sim/aisle/internal/param"
	"github.com/aisle-sim/aisle/internal/rng"
	"github.com/aisle-sim/aisle/internal/simtest"
)

// Property: merge is order-independent — two bases that receive the same
// set of insights in different orders converge to identical stores.
func TestPropertyMergeOrderIndependent(t *testing.T) {
	f := func(seed uint32, raw []uint8) bool {
		if len(raw) == 0 {
			return true
		}
		r := rng.New(uint64(seed))
		// Build a batch of insights with overlapping keys from two origins.
		var insights []*Insight
		for i, v := range raw {
			if i > 24 {
				break
			}
			key := fmt.Sprintf("d/obs/k%d", int(v)%6)
			// Origins a and b hold clock entries 0 and 1; the receiving base
			// below is a one-site federation, so merging grows its clock.
			src := netsim.SiteID("a")
			clock := VectorClock{uint64(i + 1)}
			if v%2 == 0 {
				src = "b"
				clock = VectorClock{0, uint64(i + 1)}
			}
			insights = append(insights, &Insight{
				Key: key, Kind: KindObservation, Domain: "d",
				Point: param.Point{"x": float64(v)}, Value: float64(v),
				Source: src, Clock: clock,
			})
		}

		mkBase := func() *Base {
			st := simtest.New(rng.New(1), netsim.Link{}, "z")
			return NewFederation(st.Fab, st.Sites, false).Base("z")
		}
		b1 := mkBase()
		b2 := mkBase()
		for _, ins := range insights {
			b1.merge(ins)
		}
		perm := r.Perm(len(insights))
		for _, i := range perm {
			b2.merge(insights[i])
		}
		if b1.Size() != b2.Size() {
			return false
		}
		for k, v := range b1.insights {
			w, ok := b2.insights[k]
			if !ok || w.Value != v.Value || w.Source != v.Source {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// Property: vector-clock dominance is a strict partial order — irreflexive
// and antisymmetric.
func TestPropertyClockPartialOrder(t *testing.T) {
	f := func(a, b [3]uint8) bool {
		va := VectorClock{uint64(a[0]), uint64(a[1]), uint64(a[2])}
		vb := VectorClock{uint64(b[0]), uint64(b[1]), uint64(b[2])}
		if va.Dominates(va.Copy()) {
			return false // irreflexive
		}
		if va.Dominates(vb) && vb.Dominates(va) {
			return false // antisymmetric
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
