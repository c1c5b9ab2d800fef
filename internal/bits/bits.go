// Package bits provides small fixed-width sets of process indices.
//
// Every object in this repository that ranges over processes — communication
// graphs, dominating sets, simplex color sets, views — is ultimately a set of
// process indices in [0, n) with n ≤ MaxElems. Representing those sets as a
// single machine word keeps the exponential-subset enumerations used by the
// combinatorial numbers (domination, covering, …) cheap and allocation-free.
package bits

import (
	"math/bits"
	"strconv"
)

// MaxElems is the largest universe size supported by Set.
const MaxElems = 64

// Set is a subset of {0, …, 63} stored as a bit mask.
//
// The zero value is the empty set and ready to use.
type Set uint64

// New returns the set containing exactly the given members.
func New(members ...int) Set {
	var s Set
	for _, m := range members {
		s = s.With(m)
	}
	return s
}

// Full returns the set {0, …, n-1}.
func Full(n int) Set {
	if n <= 0 {
		return 0
	}
	if n >= MaxElems {
		return ^Set(0)
	}
	return Set(1)<<uint(n) - 1
}

// Single returns the singleton {i}.
func Single(i int) Set { return Set(1) << uint(i) }

// With returns s ∪ {i}.
func (s Set) With(i int) Set { return s | Set(1)<<uint(i) }

// Without returns s \ {i}.
func (s Set) Without(i int) Set { return s &^ (Set(1) << uint(i)) }

// Has reports whether i ∈ s.
func (s Set) Has(i int) bool { return s&(Set(1)<<uint(i)) != 0 }

// Count returns |s|.
func (s Set) Count() int { return bits.OnesCount64(uint64(s)) }

// IsEmpty reports whether s is the empty set.
func (s Set) IsEmpty() bool { return s == 0 }

// Union returns s ∪ t.
func (s Set) Union(t Set) Set { return s | t }

// Inter returns s ∩ t.
func (s Set) Inter(t Set) Set { return s & t }

// Diff returns s \ t.
func (s Set) Diff(t Set) Set { return s &^ t }

// ContainsAll reports whether t ⊆ s.
func (s Set) ContainsAll(t Set) bool { return t&^s == 0 }

// Intersects reports whether s ∩ t ≠ ∅.
func (s Set) Intersects(t Set) bool { return s&t != 0 }

// Min returns the smallest member of s, or -1 if s is empty.
func (s Set) Min() int {
	if s == 0 {
		return -1
	}
	return bits.TrailingZeros64(uint64(s))
}

// Members returns the members of s in increasing order.
func (s Set) Members() []int {
	out := make([]int, 0, s.Count())
	for t := s; t != 0; t &= t - 1 {
		out = append(out, bits.TrailingZeros64(uint64(t)))
	}
	return out
}

// ForEach calls f on every member of s in increasing order.
func (s Set) ForEach(f func(i int)) {
	for t := s; t != 0; t &= t - 1 {
		f(bits.TrailingZeros64(uint64(t)))
	}
}

// String renders the set as "{0,2,5}".
func (s Set) String() string { return string(s.AppendString(nil)) }

// AppendString appends the String rendering of s to b.
func (s Set) AppendString(b []byte) []byte {
	b = append(b, '{')
	for t := s; t != 0; t &= t - 1 {
		if t != s {
			b = append(b, ',')
		}
		b = strconv.AppendInt(b, int64(bits.TrailingZeros64(uint64(t))), 10)
	}
	return append(b, '}')
}

// Combinations calls f on every k-element subset of {0, …, n-1} in
// lexicographically increasing mask order. Enumeration stops early if f
// returns false. It reports whether enumeration ran to completion.
//
// It uses Gosper's hack to step between same-popcount masks without
// allocation.
func Combinations(n, k int, f func(Set) bool) bool {
	if k < 0 || k > n {
		return true
	}
	if k == 0 {
		return f(0)
	}
	limit := uint64(1) << uint(n)
	v := uint64(1)<<uint(k) - 1
	for v < limit {
		if !f(Set(v)) {
			return false
		}
		// Gosper's hack: next integer with the same popcount.
		c := v & (^v + 1)
		r := v + c
		v = (((v ^ r) >> 2) / c) | r
		if c == 0 { // k == 64 edge: avoid div-by-zero loops
			break
		}
	}
	return true
}

// 64-bit FNV-1a constants, shared by the word-wise interning hashes in
// internal/graph and internal/protocol so the tables stay in sync.
const (
	hashOffset64 = 14695981039346656037
	hashPrime64  = 1099511628211
)

// Hash64Seed returns the initial value for a Hash64Mix chain.
func Hash64Seed() uint64 { return hashOffset64 }

// Hash64Mix folds the word v into the running hash h (FNV-1a, word-wise).
// Collisions are expected and fine: every user compares full contents on
// hash equality.
func Hash64Mix(h, v uint64) uint64 { return (h ^ v) * hashPrime64 }

// binomial[n][k] = C(n,k), saturated at MaxInt64. Pascal's triangle avoids
// the intermediate overflow a multiplicative formula would hit near C(64,32).
var binomial = func() [MaxElems + 1][MaxElems + 1]int64 {
	const maxInt64 = 1<<63 - 1
	var table [MaxElems + 1][MaxElems + 1]int64
	for n := 0; n <= MaxElems; n++ {
		table[n][0] = 1
		for k := 1; k <= n; k++ {
			a, b := table[n-1][k-1], table[n-1][k]
			if a > maxInt64-b {
				table[n][k] = maxInt64
			} else {
				table[n][k] = a + b
			}
		}
	}
	return table
}()

// Binomial returns the binomial coefficient C(n, k) for 0 ≤ n ≤ MaxElems,
// saturated at MaxInt64 (which cannot occur for n ≤ MaxElems) and 0 for
// k outside [0, n].
func Binomial(n, k int) int64 {
	if n < 0 || n > MaxElems || k < 0 || k > n {
		return 0
	}
	return binomial[n][k]
}

// UnrankCombination returns the k-element subset of {0, …, n-1} with the
// given rank in increasing mask order (equivalently: colexicographic order on
// member lists — the order Combinations enumerates). This is the inverse of
// the combinatorial number system: rank = Σ_i C(c_i, i) for members
// c_1 < … < c_k.
func UnrankCombination(n, k int, rank int64) Set {
	var s Set
	c := n - 1
	for i := k; i >= 1; i-- {
		for c >= i-1 && binomial[c][i] > rank {
			c--
		}
		s = s.With(c)
		rank -= binomial[c][i]
		c--
	}
	return s
}

// CombinationsRange calls f on the k-element subsets of {0, …, n-1} with
// ranks in [from, to), in the same increasing mask order as Combinations
// (rank 0 is the lowest mask). Enumeration stops early if f returns false; it
// reports whether enumeration ran to completion.
//
// Splitting [0, C(n,k)) into contiguous rank ranges shards the full sweep:
// the union of the shards visits exactly the sets Combinations visits, once
// each. Unranking costs O(n) per call; stepping inside a shard is Gosper's
// hack, as in Combinations.
func CombinationsRange(n, k int, from, to int64, f func(Set) bool) bool {
	if k < 0 || k > n {
		return true
	}
	total := Binomial(n, k)
	if from < 0 {
		from = 0
	}
	if to > total {
		to = total
	}
	if from >= to {
		return true
	}
	v := uint64(UnrankCombination(n, k, from))
	for i := from; i < to; i++ {
		if !f(Set(v)) {
			return false
		}
		c := v & (^v + 1)
		r := v + c
		if c == 0 { // k == 64 edge: avoid div-by-zero loops
			break
		}
		v = (((v ^ r) >> 2) / c) | r
	}
	return true
}

// Subsets calls f on every subset of s (including the empty set and s
// itself). Enumeration stops early if f returns false. It reports whether
// enumeration ran to completion.
func Subsets(s Set, f func(Set) bool) bool {
	sub := Set(0)
	for {
		if !f(sub) {
			return false
		}
		if sub == s {
			return true
		}
		sub = (sub - s) & s // next subset of s in counting order
	}
}

// SupersetsWithin calls f on every set t with lo ⊆ t ⊆ hi. Enumeration stops
// early if f returns false. It reports whether enumeration ran to completion.
func SupersetsWithin(lo, hi Set, f func(Set) bool) bool {
	if !hi.ContainsAll(lo) {
		return true
	}
	free := hi.Diff(lo)
	return Subsets(free, func(extra Set) bool {
		return f(lo.Union(extra))
	})
}
