package topology

import "fmt"

// Pseudosphere is the complex φ(Π; V_1, …, V_n) of Def 4.5: color i may take
// any view in Views[i], and every choice of at most one view per color is a
// simplex. Colors with an empty view set simply do not appear.
//
// Pseudospheres are stored symbolically (one view list per color) because
// their facet count is the product of the view-set sizes; the symbolic form
// supports the intersection lemma and connectivity facts without
// materializing facets.
type Pseudosphere[V comparable] struct {
	views [][]V // per color, deduplicated, in insertion order
}

// NewPseudosphere builds φ(Π; views[0], …, views[n-1]). Duplicate views
// within a color are removed.
func NewPseudosphere[V comparable](views [][]V) *Pseudosphere[V] {
	ps := &Pseudosphere[V]{views: make([][]V, len(views))}
	for i, vs := range views {
		seen := make(map[V]bool, len(vs))
		for _, v := range vs {
			if !seen[v] {
				seen[v] = true
				ps.views[i] = append(ps.views[i], v)
			}
		}
	}
	return ps
}

// NumColors returns the number of colors (including ones with empty view
// sets).
func (ps *Pseudosphere[V]) NumColors() int { return len(ps.views) }

// Views returns a copy of the view set of the given color.
func (ps *Pseudosphere[V]) Views(color int) []V {
	out := make([]V, len(ps.views[color]))
	copy(out, ps.views[color])
	return out
}

// NonemptyColors returns the number of colors with at least one view.
func (ps *Pseudosphere[V]) NonemptyColors() int {
	n := 0
	for _, vs := range ps.views {
		if len(vs) > 0 {
			n++
		}
	}
	return n
}

// IsVoid reports whether the pseudosphere has no vertices at all.
func (ps *Pseudosphere[V]) IsVoid() bool { return ps.NonemptyColors() == 0 }

// FacetCount returns the number of facets: the product of the nonempty
// view-set sizes.
func (ps *Pseudosphere[V]) FacetCount() int {
	count := 1
	for _, vs := range ps.views {
		if len(vs) > 0 {
			count *= len(vs)
		}
	}
	if ps.IsVoid() {
		return 0
	}
	return count
}

// ConnectivityBound returns the paper's Lemma 4.7 ([HKR13] Cor 13.3.7)
// guarantee: the pseudosphere is (m − 2)-connected, where m is the number
// of colors with nonempty view sets.
func (ps *Pseudosphere[V]) ConnectivityBound() int { return ps.NonemptyColors() - 2 }

// Intersect applies Lemma 4.6 ([HKR13] Fact 13.3.4): the intersection of two
// pseudospheres on the same colors is the pseudosphere of the per-color view
// intersections.
func (ps *Pseudosphere[V]) Intersect(other *Pseudosphere[V]) (*Pseudosphere[V], error) {
	if len(ps.views) != len(other.views) {
		return nil, fmt.Errorf("topology: intersecting pseudospheres on %d vs %d colors",
			len(ps.views), len(other.views))
	}
	views := make([][]V, len(ps.views))
	for i := range ps.views {
		inOther := make(map[V]bool, len(other.views[i]))
		for _, v := range other.views[i] {
			inOther[v] = true
		}
		for _, v := range ps.views[i] {
			if inOther[v] {
				views[i] = append(views[i], v)
			}
		}
	}
	return NewPseudosphere(views), nil
}

// Facets calls f on every facet (one view per nonempty color). Enumeration
// stops early if f returns false.
func (ps *Pseudosphere[V]) Facets(f func(Simplex[V]) bool) {
	colors := make([]int, 0, len(ps.views))
	for c, vs := range ps.views {
		if len(vs) > 0 {
			colors = append(colors, c)
		}
	}
	if len(colors) == 0 {
		return
	}
	choice := make([]int, len(colors))
	for {
		facet := make(Simplex[V], len(colors))
		for i, c := range colors {
			facet[i] = Vertex[V]{Color: c, View: ps.views[c][choice[i]]}
		}
		if !f(facet) {
			return
		}
		// Advance the mixed-radix counter.
		i := len(colors) - 1
		for i >= 0 {
			choice[i]++
			if choice[i] < len(ps.views[colors[i]]) {
				break
			}
			choice[i] = 0
			i--
		}
		if i < 0 {
			return
		}
	}
}

// PseudosphereComplex materializes φ(Π; V_1,…,V_n) with |V_i| = views[i]
// anonymous views as an abstract complex: vertex (color c, view v) gets id
// offset(c)+v and the facets are every one-view-per-color choice. The result
// is the join of n discrete point sets — (n−2)-connected with
// β̃_{n−1} = Π(views[i]−1) — which makes it the standard scale/correctness
// instance for the homology engines (benchmarks, race tests).
func PseudosphereComplex(views []int) (*AbstractComplex, error) {
	offsets := make([]int, len(views)+1)
	for i, v := range views {
		if v < 1 {
			return nil, fmt.Errorf("topology: pseudosphere color %d has %d views", i, v)
		}
		offsets[i+1] = offsets[i] + v
	}
	if len(views) == 0 {
		return NewAbstract(0, nil)
	}
	choice := make([]int, len(views))
	facets := make([][]int, 0, 64)
	for {
		f := make([]int, len(views))
		for c := range views {
			f[c] = offsets[c] + choice[c]
		}
		facets = append(facets, f)
		i := len(views) - 1
		for i >= 0 {
			choice[i]++
			if choice[i] < views[i] {
				break
			}
			choice[i] = 0
			i--
		}
		if i < 0 {
			break
		}
	}
	return NewAbstract(offsets[len(views)], facets)
}

// ToComplex materializes the pseudosphere as a colored complex.
func (ps *Pseudosphere[V]) ToComplex() *Complex[V] {
	c := NewComplex[V]()
	c.addPseudosphere(ps)
	return c
}

// ContainsFacet reports whether the simplex (restricted to full support over
// the nonempty colors) is a facet of the pseudosphere.
func (ps *Pseudosphere[V]) ContainsFacet(s Simplex[V]) bool {
	if len(s) != ps.NonemptyColors() {
		return false
	}
	for _, v := range s {
		if v.Color < 0 || v.Color >= len(ps.views) {
			return false
		}
		found := false
		for _, view := range ps.views[v.Color] {
			if view == v.View {
				found = true
				break
			}
		}
		if !found {
			return false
		}
	}
	return true
}
