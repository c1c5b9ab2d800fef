// Package topology implements the combinatorial-topology machinery of the
// paper's §4: colored simplexes and complexes, pseudospheres (Def 4.5) with
// the intersection lemma (Lemma 4.6) and their connectivity (Lemma 4.7),
// uninterpreted complexes of graphs and models (Def 4.3/4.4, Lemma 4.8,
// Thm 4.12), interpretation on input complexes (Def 4.13/4.14), nerve
// complexes (Def 4.10), shellability (§4.4), and machine-checkable
// connectivity via reduced homology over GF(2).
package topology

import (
	"cmp"
	"fmt"
	"math/bits"
	"slices"
	"sort"
)

// AbstractComplex is an abstract simplicial complex: vertices are integers
// 0..NumVertices-1 and the complex is the downward closure of its facets.
// Unlike the colored complexes used for protocol states, abstract complexes
// carry no color discipline; they are the common currency for homology,
// shellability and nerve computations.
type AbstractComplex struct {
	numVertices int
	facets      [][]int // sorted vertex lists, mutually incomparable
}

// NewAbstract builds a complex from generating simplexes. Vertices must lie
// in [0, numVertices). Generators that are faces of other generators are
// absorbed; duplicates are removed.
func NewAbstract(numVertices int, generators [][]int) (*AbstractComplex, error) {
	if numVertices < 0 {
		return nil, fmt.Errorf("topology: negative vertex count %d", numVertices)
	}
	norm := make([][]int, 0, len(generators))
	for _, gen := range generators {
		s, err := normalizeSimplex(gen, numVertices)
		if err != nil {
			return nil, err
		}
		if len(s) == 0 {
			continue
		}
		norm = append(norm, s)
	}
	// maximalSimplexes deduplicates, so generators need no seen-map here.
	return &AbstractComplex{numVertices: numVertices, facets: maximalSimplexes(norm)}, nil
}

func normalizeSimplex(gen []int, numVertices int) ([]int, error) {
	for _, v := range gen {
		if v < 0 || v >= numVertices {
			return nil, fmt.Errorf("topology: vertex %d outside [0,%d)", v, numVertices)
		}
	}
	s := slices.Clone(gen)
	slices.Sort(s)
	return slices.Compact(s), nil
}

// maximalSimplexes removes duplicates and every simplex that is a face of
// another, returning the survivors in simplex-key order (compareSimplexKeys).
// After deduplication a simplex can only be dominated by a strictly larger
// one, so processing in descending size order lets the containment scan stop
// at the first equal-or-smaller accepted simplex. Pure inputs (every simplex
// the same size — pseudospheres, protocol complexes) therefore skip the
// quadratic scan entirely. The input slice is reordered.
func maximalSimplexes(simplexes [][]int) [][]int {
	slices.SortFunc(simplexes, compareSimplexKeys)
	uniq := slices.CompactFunc(simplexes, slices.Equal)
	slices.SortFunc(uniq, func(a, b []int) int { return cmp.Compare(len(b), len(a)) })
	var out [][]int
	for _, s := range uniq {
		dominated := false
		for _, big := range out {
			if len(big) <= len(s) {
				break // out is in descending size order: no later candidate is larger
			}
			if isSubset(s, big) {
				dominated = true
				break
			}
		}
		if !dominated {
			out = append(out, s)
		}
	}
	slices.SortFunc(out, compareSimplexKeys)
	return out
}

// isSubset reports whether sorted slice a ⊆ sorted slice b.
func isSubset(a, b []int) bool {
	i := 0
	for _, v := range b {
		if i < len(a) && a[i] == v {
			i++
		}
	}
	return i == len(a)
}

// compareSimplexKeys orders sorted vertex lists as their keys — the
// decimal vertices joined by ',' — compare as strings, without building
// them. ',' sorts below every digit, so the keys compare vertex by vertex
// as decimal strings, a shorter list that is a prefix of a longer one first.
// Vertices are non-negative.
func compareSimplexKeys(a, b []int) int {
	for i := 0; i < len(a) && i < len(b); i++ {
		if a[i] != b[i] {
			return compareDecimal(uint64(a[i]), uint64(b[i]))
		}
	}
	return cmp.Compare(len(a), len(b))
}

// pow10[i] is 10^i; every uint64 below 10^19 has at most 19 digits.
var pow10 = [...]uint64{
	1, 1e1, 1e2, 1e3, 1e4, 1e5, 1e6, 1e7, 1e8, 1e9,
	1e10, 1e11, 1e12, 1e13, 1e14, 1e15, 1e16, 1e17, 1e18, 1e19,
}

// compareDecimal orders x, y ≤ MaxInt64 as their decimal strings compare,
// by arithmetic. The number with fewer digits is scaled up to the
// other's digit count (no overflow: the product stays below 10^19); if the
// scaled value equals the other number, its string is a proper prefix of
// the other's and sorts first.
func compareDecimal(x, y uint64) int {
	dx, dy := decimalDigits(x), decimalDigits(y)
	switch {
	case dx < dy:
		if x*pow10[dy-dx] <= y {
			return -1
		}
		return 1
	case dx > dy:
		if y*pow10[dx-dy] <= x {
			return 1
		}
		return -1
	}
	return cmp.Compare(x, y)
}

// decimalDigits returns the number of decimal digits of x < 10^19.
// bits.Len64·1233/4096 approximates log10 from below by at most one.
func decimalDigits(x uint64) int {
	t := bits.Len64(x|1) * 1233 >> 12
	if x|1 < pow10[t] {
		return t
	}
	return t + 1
}

// NumVertices returns the size of the ambient vertex set.
func (c *AbstractComplex) NumVertices() int { return c.numVertices }

// Facets returns the maximal simplexes, each a sorted vertex list. The
// returned slices are shared; callers must not mutate them.
func (c *AbstractComplex) Facets() [][]int { return c.facets }

// FacetCount returns the number of maximal simplexes.
func (c *AbstractComplex) FacetCount() int { return len(c.facets) }

// IsEmpty reports whether the complex has no simplexes at all.
func (c *AbstractComplex) IsEmpty() bool { return len(c.facets) == 0 }

// Dimension returns the dimension of the complex (max facet size − 1), or
// -1 for the empty complex.
func (c *AbstractComplex) Dimension() int {
	d := -1
	for _, f := range c.facets {
		if len(f)-1 > d {
			d = len(f) - 1
		}
	}
	return d
}

// IsPure reports whether all facets share the complex's dimension (Def 4.2).
// The empty complex is vacuously pure.
func (c *AbstractComplex) IsPure() bool {
	d := c.Dimension()
	for _, f := range c.facets {
		if len(f)-1 != d {
			return false
		}
	}
	return true
}

// VertexSet returns the sorted list of vertices that appear in some simplex.
func (c *AbstractComplex) VertexSet() []int {
	seen := make(map[int]bool)
	for _, f := range c.facets {
		for _, v := range f {
			seen[v] = true
		}
	}
	out := make([]int, 0, len(seen))
	for v := range seen {
		out = append(out, v)
	}
	sort.Ints(out)
	return out
}

// Simplexes returns all simplexes of dimension dim (vertex count dim+1),
// sorted lexicographically. dim = -1 yields the empty simplex when the
// complex is nonempty.
func (c *AbstractComplex) Simplexes(dim int) [][]int {
	if dim < -1 {
		return nil
	}
	if dim == -1 {
		if c.IsEmpty() {
			return nil
		}
		return [][]int{{}}
	}
	size := dim + 1
	buf := make([]int, size)
	// Collect every size-subset of every facet into one flat arena, then
	// sort-and-dedup. Facets sharing faces produce duplicates, but avoiding
	// a keyed set keeps this allocation-light: one arena, one index sort.
	var arena []int
	for _, f := range c.facets {
		if len(f) < size {
			continue
		}
		combinationsOf(f, size, buf, 0, 0, func(s []int) {
			arena = append(arena, s...)
		})
	}
	total := len(arena) / size
	all := make([][]int, total)
	for i := range all {
		all[i] = arena[i*size : (i+1)*size : (i+1)*size]
	}
	sort.Slice(all, func(i, j int) bool { return lexLess(all[i], all[j]) })
	out := all[:0]
	for i, s := range all {
		if i == 0 || !slices.Equal(s, out[len(out)-1]) {
			out = append(out, s)
		}
	}
	return out
}

func lexLess(a, b []int) bool {
	for i := 0; i < len(a) && i < len(b); i++ {
		if a[i] != b[i] {
			return a[i] < b[i]
		}
	}
	return len(a) < len(b)
}

// combinationsOf enumerates all size-k subsets of sorted slice f into buf.
func combinationsOf(f []int, k int, buf []int, start, depth int, emit func([]int)) {
	if depth == k {
		emit(buf)
		return
	}
	for i := start; i <= len(f)-(k-depth); i++ {
		buf[depth] = f[i]
		combinationsOf(f, k, buf, i+1, depth+1, emit)
	}
}

// SimplexCount returns the number of simplexes of dimension dim.
func (c *AbstractComplex) SimplexCount(dim int) int { return len(c.Simplexes(dim)) }

// ContainsSimplex reports whether the sorted vertex list s is a simplex of c.
func (c *AbstractComplex) ContainsSimplex(s []int) bool {
	for _, f := range c.facets {
		if isSubset(s, f) {
			return true
		}
	}
	return false
}

// Skeleton returns the d-skeleton: all simplexes of dimension ≤ d.
func (c *AbstractComplex) Skeleton(d int) (*AbstractComplex, error) {
	if d < 0 {
		return NewAbstract(c.numVertices, nil)
	}
	var gens [][]int
	for _, f := range c.facets {
		if len(f) <= d+1 {
			gens = append(gens, f)
			continue
		}
		buf := make([]int, d+1)
		combinationsOf(f, d+1, buf, 0, 0, func(s []int) {
			cp := make([]int, len(s))
			copy(cp, s)
			gens = append(gens, cp)
		})
	}
	return NewAbstract(c.numVertices, gens)
}

// EulerCharacteristic returns Σ (−1)^q · (number of q-simplexes).
func (c *AbstractComplex) EulerCharacteristic() int {
	chi := 0
	for q := 0; q <= c.Dimension(); q++ {
		if q%2 == 0 {
			chi += c.SimplexCount(q)
		} else {
			chi -= c.SimplexCount(q)
		}
	}
	return chi
}

// String summarizes the complex.
func (c *AbstractComplex) String() string {
	return fmt.Sprintf("complex(dim=%d, facets=%d, vertices=%d)",
		c.Dimension(), len(c.facets), len(c.VertexSet()))
}
