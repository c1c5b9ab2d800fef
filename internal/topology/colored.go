package topology

import (
	"fmt"
	"slices"
	"sort"
	"strconv"
	"strings"

	"ksettop/internal/bits"
)

// Vertex is a colored vertex: a process (color) paired with its view
// (Def 4.1). The view type is generic so the same machinery serves
// uninterpreted complexes (views are process sets) and interpreted ones
// (views are process→value maps).
type Vertex[V comparable] struct {
	Color int
	View  V
}

// Simplex is a colored simplex: at most one vertex per color, stored sorted
// by color (Def 4.1).
type Simplex[V comparable] []Vertex[V]

// NewSimplex builds a colored simplex from vertices, validating color
// uniqueness and sorting by color.
func NewSimplex[V comparable](vertices ...Vertex[V]) (Simplex[V], error) {
	s := make(Simplex[V], len(vertices))
	copy(s, vertices)
	sort.Slice(s, func(i, j int) bool { return s[i].Color < s[j].Color })
	for i := 1; i < len(s); i++ {
		if s[i].Color == s[i-1].Color {
			return nil, fmt.Errorf("topology: duplicate color %d in simplex", s[i].Color)
		}
	}
	return s, nil
}

// Dimension returns |σ| − 1.
func (s Simplex[V]) Dimension() int { return len(s) - 1 }

// Colors returns the color set of the simplex (names(σ) in the paper).
func (s Simplex[V]) Colors() []int {
	out := make([]int, len(s))
	for i, v := range s {
		out[i] = v.Color
	}
	return out
}

// ViewOf returns the view of the given color, if present (view_σ(p)).
func (s Simplex[V]) ViewOf(color int) (V, bool) {
	for _, v := range s {
		if v.Color == color {
			return v.View, true
		}
	}
	var zero V
	return zero, false
}

// Key returns a canonical map key for the simplex: "color:view|" per
// vertex, with views rendered as fmt's %v would.
func (s Simplex[V]) Key() string { return string(s.appendKey(nil)) }

func (s Simplex[V]) appendKey(b []byte) []byte {
	for _, v := range s {
		b = append(v.appendKey(b), '|')
	}
	return b
}

// appendKey appends the vertex key "color:view" to b; Vertices sorts by it.
func (v Vertex[V]) appendKey(b []byte) []byte {
	b = strconv.AppendInt(b, int64(v.Color), 10)
	b = append(b, ':')
	switch view := any(v.View).(type) {
	case IView:
		return view.AppendString(b)
	case bits.Set:
		return view.AppendString(b)
	}
	return fmt.Append(b, v.View)
}

// IsFaceOf reports whether every vertex of s appears in t.
func (s Simplex[V]) IsFaceOf(t Simplex[V]) bool {
	for _, v := range s {
		view, ok := t.ViewOf(v.Color)
		if !ok || view != v.View {
			return false
		}
	}
	return true
}

// Intersect returns the simplex of vertices common to s and t.
func (s Simplex[V]) Intersect(t Simplex[V]) Simplex[V] {
	var out Simplex[V]
	for _, v := range s {
		if view, ok := t.ViewOf(v.Color); ok && view == v.View {
			out = append(out, v)
		}
	}
	return out
}

// Complex is a colored simplicial complex given by generating facets
// (Def 4.2). The zero value is not usable; construct with NewComplex.
type Complex[V comparable] struct {
	facets         map[string]Simplex[V]
	minDim, maxDim int
	keyBuf         []byte // AddFacet's key scratch
}

// NewComplex returns an empty colored complex.
func NewComplex[V comparable]() *Complex[V] {
	return &Complex[V]{facets: make(map[string]Simplex[V]), minDim: -1, maxDim: -1}
}

// AddFacet inserts a generating simplex. Faces of existing facets are
// absorbed; existing facets that become faces of the new simplex are
// dropped, so Facets always returns maximal simplexes.
//
// When every facet added so far has the same dimension as s (the common case
// for the pure complexes this repository builds), domination is impossible
// and insertion is a plain map write; otherwise a full scan runs.
func (c *Complex[V]) AddFacet(s Simplex[V]) {
	if len(s) == 0 {
		return
	}
	c.keyBuf = s.appendKey(c.keyBuf[:0])
	if _, ok := c.facets[string(c.keyBuf)]; ok {
		return
	}
	key := string(c.keyBuf)
	d := s.Dimension()
	if len(c.facets) == 0 || (d == c.minDim && d == c.maxDim) {
		c.facets[key] = s
		if len(c.facets) == 1 {
			c.minDim, c.maxDim = d, d
		}
		return
	}
	for k, f := range c.facets {
		if s.IsFaceOf(f) {
			return
		}
		if f.IsFaceOf(s) {
			delete(c.facets, k)
		}
	}
	c.facets[key] = s
	if d < c.minDim {
		c.minDim = d
	}
	if d > c.maxDim {
		c.maxDim = d
	}
}

// Facets returns the maximal simplexes in canonical key order.
func (c *Complex[V]) Facets() []Simplex[V] {
	keys := make([]string, 0, len(c.facets))
	for k := range c.facets {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	out := make([]Simplex[V], len(keys))
	for i, k := range keys {
		out[i] = c.facets[k]
	}
	return out
}

// FacetCount returns the number of maximal simplexes.
func (c *Complex[V]) FacetCount() int { return len(c.facets) }

// IsEmpty reports whether the complex has no simplexes.
func (c *Complex[V]) IsEmpty() bool { return len(c.facets) == 0 }

// Dimension returns the maximum facet dimension, or -1 when empty.
func (c *Complex[V]) Dimension() int {
	d := -1
	for _, f := range c.facets {
		if f.Dimension() > d {
			d = f.Dimension()
		}
	}
	return d
}

// IsPure reports whether all facets have the complex's dimension.
func (c *Complex[V]) IsPure() bool {
	d := c.Dimension()
	for _, f := range c.facets {
		if f.Dimension() != d {
			return false
		}
	}
	return true
}

// ContainsSimplex reports whether s is a face of some facet.
func (c *Complex[V]) ContainsSimplex(s Simplex[V]) bool {
	for _, f := range c.facets {
		if s.IsFaceOf(f) {
			return true
		}
	}
	return false
}

// Vertices returns the distinct vertices of the complex, sorted by vertex
// key ("color:view", compared as strings).
func (c *Complex[V]) Vertices() []Vertex[V] {
	seen := make(map[Vertex[V]]struct{})
	for _, f := range c.facets {
		for _, v := range f {
			seen[v] = struct{}{}
		}
	}
	type keyed struct {
		key string
		v   Vertex[V]
	}
	ks := make([]keyed, 0, len(seen))
	var buf []byte
	for v := range seen {
		buf = v.appendKey(buf[:0])
		ks = append(ks, keyed{string(buf), v})
	}
	slices.SortFunc(ks, func(a, b keyed) int { return strings.Compare(a.key, b.key) })
	out := make([]Vertex[V], len(ks))
	for i, k := range ks {
		out[i] = k.v
	}
	return out
}

// Union merges the facets of other into c.
func (c *Complex[V]) Union(other *Complex[V]) {
	for _, f := range other.Facets() {
		c.AddFacet(f)
	}
}

// Intersection returns the complex of simplexes lying in both c and other.
// Its generating simplexes are the pairwise facet intersections.
func (c *Complex[V]) Intersection(other *Complex[V]) *Complex[V] {
	out := NewComplex[V]()
	for _, f := range c.facets {
		for _, g := range other.facets {
			if inter := f.Intersect(g); len(inter) > 0 {
				out.AddFacet(inter)
			}
		}
	}
	return out
}

// ToAbstract forgets colors: vertices are indexed in the order returned by
// Vertices, and facets become integer vertex lists. The vertex table is
// returned alongside so callers can map abstract vertices back.
func (c *Complex[V]) ToAbstract() (*AbstractComplex, []Vertex[V], error) {
	verts := c.Vertices()
	index := make(map[Vertex[V]]int, len(verts))
	for i, v := range verts {
		index[v] = i
	}
	gens := make([][]int, 0, len(c.facets))
	for _, f := range c.facets {
		gen := make([]int, len(f))
		for i, v := range f {
			gen[i] = index[v]
		}
		gens = append(gens, gen)
	}
	ac, err := NewAbstract(len(verts), gens)
	if err != nil {
		return nil, nil, err
	}
	return ac, verts, nil
}
