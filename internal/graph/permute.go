package graph

import (
	"cmp"
	"context"
	"fmt"
	mathbits "math/bits"
	"slices"

	"ksettop/internal/bits"
	"ksettop/internal/memo"
	"ksettop/internal/par"
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

// maxRankedPerms bounds the sizes PermutationsRange supports: factorials
// beyond 20! overflow int64 (and could never be enumerated anyway).
const maxRankedPerms = 20

// Factorial returns n! for 0 ≤ n ≤ 20; larger n returns -1 (overflow).
func Factorial(n int) int64 {
	if n < 0 || n > maxRankedPerms {
		return -1
	}
	f := int64(1)
	for i := 2; i <= n; i++ {
		f *= int64(i)
	}
	return f
}

// unrankPermutation writes the rank-th permutation of 0..n-1 in lexicographic
// order into perm (factorial number system / Lehmer code).
func unrankPermutation(n int, rank int64, perm []int) {
	avail := make([]int, n)
	for i := range avail {
		avail[i] = i
	}
	radix := Factorial(n - 1)
	for i := 0; i < n; i++ {
		idx := int64(0)
		if radix > 0 {
			idx = rank / radix
			rank %= radix
		}
		perm[i] = avail[idx]
		avail = append(avail[:idx], avail[idx+1:]...)
		if n-1-i > 0 {
			radix /= int64(n - 1 - i)
		}
	}
}

// nextPermutation steps perm to its lexicographic successor; it reports false
// when perm was the last permutation.
func nextPermutation(perm []int) bool {
	i := len(perm) - 2
	for i >= 0 && perm[i] >= perm[i+1] {
		i--
	}
	if i < 0 {
		return false
	}
	j := len(perm) - 1
	for perm[j] <= perm[i] {
		j--
	}
	perm[i], perm[j] = perm[j], perm[i]
	for l, r := i+1, len(perm)-1; l < r; l, r = l+1, r-1 {
		perm[l], perm[r] = perm[r], perm[l]
	}
	return true
}

// PermutationsRange calls f on the permutations of 0..n-1 with lexicographic
// ranks in [from, to). Enumeration stops early if f returns false. Splitting
// [0, n!) into contiguous rank ranges shards the full sweep. n must be ≤ 20
// (ranks are int64); larger n is an error.
func PermutationsRange(n int, from, to int64, f func(perm []int) bool) error {
	total := Factorial(n)
	if total < 0 {
		return fmt.Errorf("graph: permutation ranks overflow for n = %d (max %d)", n, maxRankedPerms)
	}
	if from < 0 {
		from = 0
	}
	if to > total {
		to = total
	}
	if from >= to || n == 0 {
		return nil
	}
	perm := make([]int, n)
	unrankPermutation(n, from, perm)
	for i := from; i < to; i++ {
		if !f(perm) {
			return nil
		}
		if !nextPermutation(perm) {
			break
		}
	}
	return nil
}

// digraphSet deduplicates graphs without building per-graph string keys: a
// 64-bit FNV-1a hash over the adjacency rows selects a bucket, and bucket
// members are compared row-by-row.
type digraphSet struct {
	buckets map[uint64][]Digraph
	count   int
}

func newDigraphSet() *digraphSet {
	return &digraphSet{buckets: make(map[uint64][]Digraph)}
}

func hashRows(rows []bits.Set) uint64 {
	h := bits.Hash64Seed()
	for _, row := range rows {
		h = bits.Hash64Mix(h, uint64(row))
	}
	return h
}

// inBucket reports whether the graph with the given adjacency rows, whose
// hashRows value is h, is in the set.
func (s *digraphSet) inBucket(h uint64, rows []bits.Set) bool {
	for _, g := range s.buckets[h] {
		if slices.Equal(g.out, rows) {
			return true
		}
	}
	return false
}

// addRows inserts the graph with the given adjacency rows unless an equal
// graph is present; it reports whether an insert happened.
func (s *digraphSet) addRows(n int, rows []bits.Set) bool {
	h := hashRows(rows)
	if s.inBucket(h, rows) {
		return false
	}
	out := make([]bits.Set, n)
	copy(out, rows)
	s.buckets[h] = append(s.buckets[h], Digraph{n: n, out: out})
	s.count++
	return true
}

// add inserts g (sharing its rows, which must not be mutated afterwards).
func (s *digraphSet) add(g Digraph) bool {
	h := hashRows(g.out)
	if s.inBucket(h, g.out) {
		return false
	}
	s.buckets[h] = append(s.buckets[h], g)
	s.count++
	return true
}

func (s *digraphSet) graphs() []Digraph {
	out := make([]Digraph, 0, s.count)
	for _, bucket := range s.buckets {
		out = append(out, bucket...)
	}
	sortByKey(out)
	return out
}

// symCache memoizes SymClosure per canonical (sorted-key) generator set:
// every symmetric-model constructor and orbit count recomputes the n! orbit
// sweep otherwise. Cached slices are shared read-only — callers must not mutate
// the returned generators (the repository-wide convention for generator
// slices).
var symCache = memo.NewCache[[]Digraph](256)

// symKey is the canonical cache key of a generator set for a given
// computation kind.
func symKey(kind string, n int, gens []Digraph) string {
	keys := make([]string, len(gens))
	for i, g := range gens {
		keys[i] = g.Key()
	}
	return memo.Key(kind, n, keys)
}

// SymClosure returns Sym(S) = {π(G) | G ∈ S, π a permutation} (Def 2.4),
// deduplicated and sorted by canonical key. The n! permutation sweep is
// sharded across the par worker pool; each worker deduplicates locally and
// the shard sets are merged afterwards, so the (sorted) result is
// deterministic regardless of scheduling. Exponential in n; intended for the
// small process counts the paper's examples use. Results are memoized per
// canonical generator-set key.
func SymClosure(gens []Digraph) ([]Digraph, error) {
	n, err := genSize(gens)
	if err != nil {
		return nil, err
	}
	return symCache.Do(symKey("sym", n, gens), func() ([]Digraph, error) {
		return symClosure(n, gens)
	})
}

// genSize returns the common process count of a generator list, rejecting
// empty and mixed-size lists.
func genSize(gens []Digraph) (int, error) {
	if len(gens) == 0 {
		return 0, fmt.Errorf("graph: symmetric closure of empty generator list")
	}
	n := gens[0].n
	for _, g := range gens {
		if g.n != n {
			return 0, fmt.Errorf("graph: mixed sizes %d and %d in generator list", n, g.n)
		}
	}
	return n, nil
}

func symClosure(n int, gens []Digraph) ([]Digraph, error) {
	total := Factorial(n)
	if total < 0 {
		return nil, errNotEnumerable(n)
	}

	global := newDigraphSet()
	// locals is presized, so the shard count is fixed here and passed down —
	// ForEachShard recomputing it could disagree if SetParallelism runs
	// concurrently.
	shards := par.NumShards(total)
	locals := make([]*digraphSet, shards)
	if err := par.ForEachShardN(context.Background(), total, shards, &par.Ctl{}, func(shard int, from, to int64, _ *par.Ctl) {
		local := newDigraphSet()
		rows := make([]bits.Set, n)
		// In-range by the guard above.
		_ = PermutationsRange(n, from, to, func(perm []int) bool {
			// permuteRows writes every entry of rows, so no reset is needed.
			for _, g := range gens {
				permuteRows(g, perm, rows)
				local.addRows(n, rows)
			}
			return true
		})
		locals[shard] = local
	}); err != nil {
		return nil, fmt.Errorf("graph: symmetric closure: %w", err)
	}
	for _, local := range locals {
		for _, bucket := range local.buckets {
			for _, g := range bucket {
				global.add(g)
			}
		}
	}
	return global.graphs(), nil
}

// errNotEnumerable is the error for process counts whose n! permutation
// ranks overflow.
func errNotEnumerable(n int) error {
	return fmt.Errorf("graph: symmetric closure of %d processes is not enumerable", n)
}

// IsSymmetric reports whether the generator set equals its symmetric closure
// (Def 2.4). The transposition (0 1) and the n-cycle i ↦ i+1 mod n generate
// S_n, and a finite set closed under a group's generators is closed under
// the whole group, so the check looks up two images per generator: O(|S|)
// set probes instead of the O(n!·|S|) closure. Process counts whose closure
// SymClosure rejects are rejected here too.
func IsSymmetric(gens []Digraph) (bool, error) {
	n, err := genSize(gens)
	if err != nil {
		return false, err
	}
	if Factorial(n) < 0 {
		return false, errNotEnumerable(n)
	}
	set := newDigraphSet()
	for _, g := range gens {
		set.add(g)
	}
	swap := make([]int, n)
	cycle := make([]int, n)
	for i := range swap {
		swap[i] = i
		cycle[i] = (i + 1) % n
	}
	if n > 1 {
		swap[0], swap[1] = 1, 0
	}
	rows := make([]bits.Set, n)
	for _, g := range gens {
		for _, perm := range [][]int{swap, cycle} {
			permuteRows(g, perm, rows)
			if !set.inBucket(hashRows(rows), rows) {
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
