package topology

import (
	"bytes"
	"cmp"
	"fmt"
	"slices"
	"sort"
	"strconv"
	"strings"

	"ksettop/internal/bits"
	"ksettop/internal/par"
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
// (Def 4.2). Vertices are interned: each distinct vertex gets an id, its
// index in the vertex table, and facets are stored as id tuples in color
// order, back to back in one arena. Every vertex in the table lies in some
// facet. The zero value is not usable; construct with NewComplex.
type Complex[V comparable] struct {
	verts          []Vertex[V]         // vertex table, in interning order
	ids            map[Vertex[V]]int32 // vertex → its index in verts
	arena          []int32             // facet id tuples, back to back
	starts         []int32             // facet i is arena[starts[i]:starts[i+1]]
	slots          []int32             // open-addressing set of facets by id tuple: index+1, 0 = free
	minDim, maxDim int
	walk           []int32 // addProduct's scratch
}

// NewComplex returns an empty colored complex.
func NewComplex[V comparable]() *Complex[V] {
	return &Complex[V]{
		ids:    make(map[Vertex[V]]int32),
		starts: []int32{0},
		minDim: -1,
		maxDim: -1,
	}
}

// intern returns v's id, adding v to the vertex table if it is new. Callers
// intern only vertices of a facet they then add.
func (c *Complex[V]) intern(v Vertex[V]) int32 {
	id, ok := c.ids[v]
	if !ok {
		id = int32(len(c.verts))
		c.verts = append(c.verts, v)
		c.ids[v] = id
	}
	return id
}

// facet returns the id tuple of facet i.
func (c *Complex[V]) facet(i int) []int32 { return c.arena[c.starts[i]:c.starts[i+1]] }

// AddFacet inserts a generating simplex. Faces of existing facets are
// absorbed; existing facets that become faces of the new simplex are
// dropped, so Facets always returns maximal simplexes.
func (c *Complex[V]) AddFacet(s Simplex[V]) {
	if len(s) == 0 {
		return
	}
	t := make([]int32, len(s))
	for i, v := range s {
		t[i] = c.intern(v)
	}
	c.addIDs(t)
}

// addIDs inserts the facet with id tuple t (in color order). When every
// facet added so far has the same dimension as t (the common case for the
// pure complexes this repository builds), domination is impossible and
// insertion is a set lookup and an append; otherwise a full scan runs.
func (c *Complex[V]) addIDs(t []int32) {
	slot, found := c.lookup(t)
	if found {
		return
	}
	d := len(t) - 1
	dropped := false
	if !c.IsEmpty() && (d != c.minDim || d != c.maxDim) {
		for i := range c.FacetCount() {
			if isIDFace(t, c.facet(i)) {
				return
			}
		}
		dropped = c.dropFacesOf(t)
	}
	c.arena = append(c.arena, t...)
	c.starts = append(c.starts, int32(len(c.arena)))
	if dropped || 2*c.FacetCount() > len(c.slots) {
		c.rehash()
	} else {
		c.slots[slot] = int32(c.FacetCount())
	}
	if c.FacetCount() == 1 {
		c.minDim, c.maxDim = d, d
	}
	c.minDim, c.maxDim = min(c.minDim, d), max(c.maxDim, d)
}

// dropFacesOf removes every facet that is a face of t, compacting the arena
// in place, and reports whether it removed any: the facet set then needs a
// rehash.
func (c *Complex[V]) dropFacesOf(t []int32) bool {
	kept, lo := 0, int32(0)
	for i := range c.FacetCount() {
		hi := c.starts[i+1]
		f := c.arena[lo:hi]
		lo = hi
		if isIDFace(f, t) {
			continue
		}
		at := c.starts[kept]
		c.starts[kept+1] = at + int32(copy(c.arena[at:], f))
		kept++
	}
	dropped := kept < c.FacetCount()
	c.starts = c.starts[:kept+1]
	c.arena = c.arena[:c.starts[kept]]
	return dropped
}

// hashIDs hashes an id tuple for the facet set.
func hashIDs(t []int32) uint64 {
	h := uint64(len(t))
	for _, id := range t {
		h = (h ^ uint64(uint32(id))) * 0x9e3779b97f4a7c15
	}
	return h ^ h>>29
}

// lookup finds id tuple t in the facet set: the slot holding it, or the
// free slot where it would go.
func (c *Complex[V]) lookup(t []int32) (slot int, found bool) {
	if len(c.slots) == 0 {
		return 0, false
	}
	mask := len(c.slots) - 1
	for i := int(hashIDs(t)) & mask; ; i = (i + 1) & mask {
		f := c.slots[i]
		if f == 0 {
			return i, false
		}
		if slices.Equal(c.facet(int(f-1)), t) {
			return i, true
		}
	}
}

// rehash rebuilds the facet set at no more than half load.
func (c *Complex[V]) rehash() {
	size := 16
	for size < 2*c.FacetCount() {
		size *= 2
	}
	c.slots = make([]int32, size)
	for i := range c.FacetCount() {
		slot, _ := c.lookup(c.facet(i))
		c.slots[slot] = int32(i + 1)
	}
}

// isIDFace reports whether every id of s appears in t.
func isIDFace(s, t []int32) bool {
	for _, id := range s {
		if !slices.Contains(t, id) {
			return false
		}
	}
	return true
}

// addProduct adds every facet of the pseudosphere whose color c may take any
// vertex in ids[c] (one id per nonempty color), walking the choices with a
// mixed-radix counter. poll, when non-nil, runs before each facet; the walk
// stops and reports false once it returns false.
func (c *Complex[V]) addProduct(ids [][]int32, poll func() bool) bool {
	c.walk = slices.Grow(c.walk[:0], 3*len(ids))
	colors := c.walk[:0]
	for col, vs := range ids {
		if len(vs) > 0 {
			colors = append(colors, int32(col))
		}
	}
	if len(colors) == 0 {
		return true
	}
	// Presize for the walk, capped: a walk too large to finish in memory is
	// one that poll cancels.
	total := 1
	for _, col := range colors {
		total = min(total*len(ids[col]), par.PollMask+1)
	}
	c.arena = slices.Grow(c.arena, total*len(colors))
	c.starts = slices.Grow(c.starts, total)
	choice := c.walk[len(colors) : 2*len(colors)]
	clear(choice)
	t := c.walk[2*len(colors) : 3*len(colors)]
	for {
		if poll != nil && !poll() {
			return false
		}
		for i, col := range colors {
			t[i] = ids[col][choice[i]]
		}
		c.addIDs(t)
		i := len(colors) - 1
		for i >= 0 {
			choice[i]++
			if int(choice[i]) < len(ids[colors[i]]) {
				break
			}
			choice[i] = 0
			i--
		}
		if i < 0 {
			return true
		}
	}
}

// addPseudosphere adds every facet of ps, interning each color's views once.
func (c *Complex[V]) addPseudosphere(ps *Pseudosphere[V]) {
	ids := make([][]int32, len(ps.views))
	for col, views := range ps.views {
		for _, view := range views {
			ids[col] = append(ids[col], c.intern(Vertex[V]{Color: col, View: view}))
		}
	}
	c.addProduct(ids, nil)
}

// Facets returns the maximal simplexes in canonical key order.
func (c *Complex[V]) Facets() []Simplex[V] {
	_, rank, prefixFree := c.vertexOrder()
	order := make([]int, c.FacetCount())
	for i := range order {
		order[i] = i
	}
	if prefixFree {
		// No vertex key is a prefix of another, so facet keys compare as
		// the tuples of their vertices' key ranks.
		slices.SortFunc(order, func(a, b int) int {
			return slices.CompareFunc(c.facet(a), c.facet(b), func(x, y int32) int { return cmp.Compare(rank[x], rank[y]) })
		})
	}
	flat := make([]Vertex[V], len(c.arena))
	out := make([]Simplex[V], len(order))
	at := 0
	for i, fi := range order {
		f := c.facet(fi)
		s := flat[at : at+len(f) : at+len(f)]
		for j, id := range f {
			s[j] = c.verts[id]
		}
		out[i] = s
		at += len(f)
	}
	if !prefixFree {
		slices.SortFunc(out, func(a, b Simplex[V]) int { return strings.Compare(a.Key(), b.Key()) })
	}
	return out
}

// FacetCount returns the number of maximal simplexes.
func (c *Complex[V]) FacetCount() int { return len(c.starts) - 1 }

// IsEmpty reports whether the complex has no simplexes.
func (c *Complex[V]) IsEmpty() bool { return c.FacetCount() == 0 }

// Dimension returns the maximum facet dimension, or -1 when empty. Only a
// larger facet drops a facet, so maxDim is exact.
func (c *Complex[V]) Dimension() int { return c.maxDim }

// IsPure reports whether all facets have the complex's dimension.
func (c *Complex[V]) IsPure() bool {
	for i := range c.FacetCount() {
		if len(c.facet(i))-1 != c.maxDim {
			return false
		}
	}
	return true
}

// ContainsSimplex reports whether s is a face of some facet.
func (c *Complex[V]) ContainsSimplex(s Simplex[V]) bool {
	t := make([]int32, len(s))
	for i, v := range s {
		id, ok := c.ids[v]
		if !ok {
			return false
		}
		t[i] = id
	}
	for i := range c.FacetCount() {
		if isIDFace(t, c.facet(i)) {
			return true
		}
	}
	return false
}

// vertexOrder sorts the vertex table by vertex key ("color:view", compared
// as strings), rendering each key once. It returns the sorted vertices,
// each id's rank among them, and whether no key is a prefix of another
// (true for IView and bits.Set views, whose keys end in their only '}').
func (c *Complex[V]) vertexOrder() (sorted []Vertex[V], rank []int32, prefixFree bool) {
	buf := make([]byte, 0, 24*len(c.verts))
	ends := make([]int, len(c.verts)+1)
	for i, v := range c.verts {
		buf = v.appendKey(buf)
		ends[i+1] = len(buf)
	}
	key := func(id int32) []byte { return buf[ends[id]:ends[id+1]] }
	order := make([]int32, len(c.verts))
	for i := range order {
		order[i] = int32(i)
	}
	slices.SortFunc(order, func(a, b int32) int { return bytes.Compare(key(a), key(b)) })
	sorted = make([]Vertex[V], len(order))
	rank = make([]int32, len(order))
	prefixFree = true
	for r, id := range order {
		sorted[r] = c.verts[id]
		rank[id] = int32(r)
		// Sorted keys that share a prefix are adjacent, so checking
		// neighbours covers every pair.
		if r > 0 && bytes.HasPrefix(key(id), key(order[r-1])) {
			prefixFree = false
		}
	}
	return sorted, rank, prefixFree
}

// Vertices returns the distinct vertices of the complex, sorted by vertex
// key ("color:view", compared as strings).
func (c *Complex[V]) Vertices() []Vertex[V] {
	sorted, _, _ := c.vertexOrder()
	return sorted
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
	theirs := other.Facets()
	for _, f := range c.Facets() {
		for _, g := range theirs {
			if inter := f.Intersect(g); len(inter) > 0 {
				out.AddFacet(inter)
			}
		}
	}
	return out
}

// ToAbstract forgets colors: vertices are indexed in the order returned by
// Vertices, and facets become integer vertex lists. The vertex table is
// returned alongside so callers can map abstract vertices back. The facets
// are already distinct and maximal, so the complex is built directly: each
// id tuple is relabelled by vertex rank and sorted, and the list is put in
// simplex-key order (compareSimplexKeys), as NewAbstract would.
func (c *Complex[V]) ToAbstract() (*AbstractComplex, []Vertex[V], error) {
	verts, rank, _ := c.vertexOrder()
	flat := make([]int, len(c.arena))
	for i, id := range c.arena {
		flat[i] = int(rank[id])
	}
	facets := make([][]int, c.FacetCount())
	for i := range facets {
		lo, hi := c.starts[i], c.starts[i+1]
		facets[i] = flat[lo:hi:hi]
		slices.Sort(facets[i])
	}
	slices.SortFunc(facets, compareSimplexKeys)
	return &AbstractComplex{numVertices: len(verts), facets: facets}, verts, nil
}
