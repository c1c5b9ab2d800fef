package graph

import (
	"cmp"
	"fmt"
	mathbits "math/bits"
	"slices"

	"ksettop/internal/bits"
)

// Permute returns π(g): the graph with edge π(u)→π(v) for every edge u→v of
// g. perm must be a permutation of 0..n-1.
func Permute(g Digraph, perm []int) (Digraph, error) {
	if len(perm) != g.n {
		return Digraph{}, fmt.Errorf("graph: permutation length %d != %d", len(perm), g.n)
	}
	seen := make([]bool, g.n)
	for _, v := range perm {
		if v < 0 || v >= g.n || seen[v] {
			return Digraph{}, fmt.Errorf("graph: %v is not a permutation of 0..%d", perm, g.n-1)
		}
		seen[v] = true
	}
	p := MustNew(g.n)
	permuteRows(g, perm, p.out)
	return p, nil
}

// permuteRows writes the adjacency rows of π(g) into rows (len n). The
// caller guarantees perm is a valid permutation.
func permuteRows(g Digraph, perm []int, rows []bits.Set) {
	for u := 0; u < g.n; u++ {
		var row bits.Set
		for t := uint64(g.out[u]); t != 0; t &= t - 1 {
			row = row.With(perm[mathbits.TrailingZeros64(t)])
		}
		rows[perm[u]] = row
	}
}

// Permutations calls f on every permutation of 0..n-1 (Heap's algorithm).
// Enumeration stops early if f returns false.
func Permutations(n int, f func(perm []int) bool) {
	perm := make([]int, n)
	for i := range perm {
		perm[i] = i
	}
	var rec func(k int) bool
	rec = func(k int) bool {
		if k == 1 {
			return f(perm)
		}
		for i := 0; i < k; i++ {
			if !rec(k - 1) {
				return false
			}
			if k%2 == 0 {
				perm[i], perm[k-1] = perm[k-1], perm[i]
			} else {
				perm[0], perm[k-1] = perm[k-1], perm[0]
			}
		}
		return true
	}
	if n > 0 {
		rec(n)
	}
}

// digraphSet deduplicates graphs without building per-graph string keys: a
// 64-bit FNV-1a hash over the adjacency rows indexes the first member with
// that hash in all, which holds the members in insertion order, and members
// are compared row-by-row. Later members with the same hash, which only a
// hash collision produces, are listed in overflow.
type digraphSet struct {
	first    map[uint64]int32
	overflow map[uint64][]int32
	all      []Digraph
}

func newDigraphSet() *digraphSet {
	return &digraphSet{first: make(map[uint64]int32), overflow: make(map[uint64][]int32)}
}

func hashRows(rows []bits.Set) uint64 {
	h := bits.Hash64Seed()
	for _, row := range rows {
		h = bits.Hash64Mix(h, uint64(row))
	}
	return h
}

// has reports whether the graph with the given adjacency rows, whose
// hashRows value is h, is in the set.
func (s *digraphSet) has(h uint64, rows []bits.Set) bool {
	equal := func(i int32) bool { return slices.Equal(s.all[i].out, rows) }
	i, ok := s.first[h]
	return ok && (equal(i) || slices.ContainsFunc(s.overflow[h], equal))
}

// addRows inserts a copy of the graph with the given adjacency rows unless
// an equal graph is present.
func (s *digraphSet) addRows(n int, rows []bits.Set) {
	if h := hashRows(rows); !s.has(h, rows) {
		s.insert(h, Digraph{n: n, out: slices.Clone(rows)})
	}
}

// add inserts g (sharing its rows, which must not be mutated afterwards)
// unless an equal graph is present.
func (s *digraphSet) add(g Digraph) {
	if h := hashRows(g.out); !s.has(h, g.out) {
		s.insert(h, g)
	}
}

func (s *digraphSet) insert(h uint64, g Digraph) {
	if _, ok := s.first[h]; ok {
		s.overflow[h] = append(s.overflow[h], int32(len(s.all)))
	} else {
		s.first[h] = int32(len(s.all))
	}
	s.all = append(s.all, g)
}

// graphs returns the members sorted by canonical key.
func (s *digraphSet) graphs() []Digraph {
	out := slices.Clone(s.all)
	sortByKey(out)
	return out
}

// SymClosure returns Sym(S) = {π(G) | G ∈ S, π a permutation} (Def 2.4),
// deduplicated and sorted by canonical key. The transposition (0 1) and the
// n-cycle i ↦ i+1 mod n generate S_n, so Sym(S) is the orbit of S under
// those two permutations: a breadth-first search applies both to every new
// graph until no new graph appears, O(|Sym(S)|) permutations instead of
// n!·|S|. The returned graphs share no rows with gens.
func SymClosure(gens []Digraph) ([]Digraph, error) {
	n, err := symSize(gens)
	if err != nil {
		return nil, err
	}
	set := newDigraphSet()
	for _, g := range gens {
		set.addRows(n, g.out)
	}
	perms := symGenerators(n)
	rows := make([]bits.Set, n)
	for i := 0; i < len(set.all); i++ {
		for _, perm := range perms {
			permuteRows(set.all[i], perm, rows)
			set.addRows(n, rows)
		}
	}
	return set.graphs(), nil
}

// maxSymProcs bounds the process counts SymClosure and IsSymmetric accept:
// an orbit can hold n! graphs, which overflows int64 beyond 20.
const maxSymProcs = 20

// symSize returns the common process count of a generator list, rejecting
// empty and mixed-size lists and process counts beyond maxSymProcs.
func symSize(gens []Digraph) (int, error) {
	if len(gens) == 0 {
		return 0, fmt.Errorf("graph: symmetric closure of empty generator list")
	}
	n := gens[0].n
	for _, g := range gens {
		if g.n != n {
			return 0, fmt.Errorf("graph: mixed sizes %d and %d in generator list", n, g.n)
		}
	}
	if n > maxSymProcs {
		return 0, fmt.Errorf("graph: symmetric closure of %d processes is not enumerable", n)
	}
	return n, nil
}

// symGenerators returns the transposition (0 1) and the n-cycle
// i ↦ i+1 mod n, which together generate S_n.
func symGenerators(n int) [2][]int {
	swap := make([]int, n)
	cycle := make([]int, n)
	for i := range swap {
		swap[i] = i
		cycle[i] = (i + 1) % n
	}
	if n > 1 {
		swap[0], swap[1] = 1, 0
	}
	return [2][]int{swap, cycle}
}

// IsSymmetric reports whether the generator set equals its symmetric closure
// (Def 2.4). A finite set closed under a group's generators is closed under
// the whole group, so the check looks up the two symGenerators images of
// each generator: O(|S|) set probes instead of building the closure.
// Process counts whose closure SymClosure rejects are rejected here too.
func IsSymmetric(gens []Digraph) (bool, error) {
	n, err := symSize(gens)
	if err != nil {
		return false, err
	}
	set := newDigraphSet()
	for _, g := range gens {
		set.add(g)
	}
	perms := symGenerators(n)
	rows := make([]bits.Set, n)
	for _, g := range gens {
		for _, perm := range perms {
			permuteRows(g, perm, rows)
			if !set.has(hashRows(rows), rows) {
				return false, nil
			}
		}
	}
	return true, nil
}

// CompareKeys orders graphs as their Key strings compare, without building
// the strings: Key writes each row low byte first, so comparing byte-reversed
// rows in row order is the same byte-wise comparison.
func CompareKeys(g, h Digraph) int {
	for u := 0; u < g.n && u < h.n; u++ {
		a := mathbits.ReverseBytes64(uint64(g.out[u]))
		b := mathbits.ReverseBytes64(uint64(h.out[u]))
		if a != b {
			return cmp.Compare(a, b)
		}
	}
	return cmp.Compare(g.n, h.n)
}

func sortByKey(gs []Digraph) {
	slices.SortFunc(gs, CompareKeys)
}
