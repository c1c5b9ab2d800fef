package model

import (
	"fmt"
	"slices"
	"sort"

	"ksettop/internal/bits"
	"ksettop/internal/graph"
)

// Predicate is a property of communication graphs. Closed-above models
// capture exactly the monotone predicates: properties preserved when edges
// are added (§2.1, "safety properties").
type Predicate func(graph.Digraph) bool

// MinimalGraphs returns the minimal graphs on n processes satisfying a
// monotone predicate — the canonical generator set of the induced
// closed-above model. It enumerates all 2^(n(n-1)) graphs, so n ≤ 5.
func MinimalGraphs(n int, pred Predicate) ([]graph.Digraph, error) {
	if n < 1 || n > 5 {
		return nil, fmt.Errorf("model: minimal-graph search supports n in [1,5], got %d", n)
	}
	clique := cliqueMask(n)
	// Collect satisfying edge masks, then keep the ⊆-minimal ones. Sorting
	// by popcount lets minimality be checked against accepted masks only.
	var satisfying []uint64
	bits.Subsets(bits.Set(clique), func(sub bits.Set) bool {
		if pred(maskGraph(n, uint64(sub))) {
			satisfying = append(satisfying, uint64(sub))
		}
		return true
	})
	sort.Slice(satisfying, func(i, j int) bool {
		return popcount(satisfying[i]) < popcount(satisfying[j])
	})
	var minimal []uint64
	for _, mask := range satisfying {
		dominated := false
		for _, m := range minimal {
			if m&mask == m {
				dominated = true
				break
			}
		}
		if !dominated {
			minimal = append(minimal, mask)
		}
	}
	out := make([]graph.Digraph, len(minimal))
	for i, m := range minimal {
		out[i] = maskGraph(n, m)
	}
	slices.SortFunc(out, graph.CompareKeys)
	return out, nil
}

func popcount(x uint64) int {
	c := 0
	for x != 0 {
		x &= x - 1
		c++
	}
	return c
}

// NonEmptyKernelModel returns the model of the non-empty kernel predicate
// (§2.1: some process broadcasts each round). Its minimal graphs are exactly
// the n stars, so this is the symmetric closure of a single star.
func NonEmptyKernelModel(n int) (*ClosedAbove, error) {
	star, err := graph.Star(n, 0)
	if err != nil {
		return nil, err
	}
	return NewSymmetric([]graph.Digraph{star})
}

// NonSplitModel returns the model of the non-split predicate (§2.1: every
// pair of processes hears from a common process), via minimal-generator
// search. n ≤ 5.
func NonSplitModel(n int) (*ClosedAbove, error) {
	gens, err := MinimalGraphs(n, graph.Digraph.IsNonSplit)
	if err != nil {
		return nil, err
	}
	return New(gens)
}

// UnionOfStarsModel returns the symmetric closed-above model generated by
// unions of s stars with distinct centers (Def 6.12, Thm 6.13).
func UnionOfStarsModel(n, s int) (*ClosedAbove, error) {
	if s < 1 || s > n {
		return nil, fmt.Errorf("model: star count %d outside [1,%d]", s, n)
	}
	centers := make([]int, s)
	for i := range centers {
		centers[i] = i
	}
	g, err := graph.UnionOfStars(n, centers)
	if err != nil {
		return nil, err
	}
	return NewSymmetric([]graph.Digraph{g})
}

// IsTournament reports whether every pair of distinct processes has at
// least one edge between them — the tournament property of Afek and Gafni
// (§2.1), which they prove equivalent to wait-free read-write shared memory.
func IsTournament(g graph.Digraph) bool {
	for u := 0; u < g.N(); u++ {
		for v := u + 1; v < g.N(); v++ {
			if !g.HasEdge(u, v) && !g.HasEdge(v, u) {
				return false
			}
		}
	}
	return true
}

// TournamentModel returns the closed-above model of the tournament property.
// Its minimal generators are exactly the 2^(n(n−1)/2) orientations of the
// complete graph, built directly rather than searched.
func TournamentModel(n int) (*ClosedAbove, error) {
	if n < 2 || n > 5 {
		return nil, fmt.Errorf("model: tournament model supports n in [2,5], got %d", n)
	}
	type pair struct{ u, v int }
	var pairs []pair
	for u := 0; u < n; u++ {
		for v := u + 1; v < n; v++ {
			pairs = append(pairs, pair{u, v})
		}
	}
	total := 1 << uint(len(pairs))
	gens := make([]graph.Digraph, 0, total)
	for mask := 0; mask < total; mask++ {
		g := graph.MustNew(n)
		for i, p := range pairs {
			var err error
			if mask&(1<<uint(i)) != 0 {
				err = g.AddEdge(p.u, p.v)
			} else {
				err = g.AddEdge(p.v, p.u)
			}
			if err != nil {
				return nil, err
			}
		}
		gens = append(gens, g)
	}
	return New(gens)
}

// CycleModel returns the symmetric closed-above model generated by the
// directed n-cycle ("contains a ring" safety property).
func CycleModel(n int) (*ClosedAbove, error) {
	c, err := graph.Cycle(n)
	if err != nil {
		return nil, err
	}
	return NewSymmetric([]graph.Digraph{c})
}
