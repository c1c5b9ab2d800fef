package graph

import (
	"context"
	"fmt"

	"ksettop/internal/par"
)

// Product returns the graph path product g ⊗ h (Def 6.1): edge u→v iff there
// is w with u→w in g and w→v in h. Because both operands carry self-loops,
// the product does too, and E(g) ∪ E(h) ⊆ E(g ⊗ h).
func Product(g, h Digraph) (Digraph, error) {
	if g.n != h.n {
		return Digraph{}, fmt.Errorf("graph: product of mismatched sizes %d and %d", g.n, h.n)
	}
	p := MustNew(g.n)
	for u := 0; u < g.n; u++ {
		// Out_p(u) = ⋃_{w ∈ Out_g(u)} Out_h(w): boolean row-by-matrix product.
		p.out[u] = h.OutSet(g.out[u])
	}
	return p, nil
}

// Power returns g ⊗ g ⊗ … ⊗ g (r factors). Power(g, 1) is a copy of g.
func Power(g Digraph, r int) (Digraph, error) {
	if r < 1 {
		return Digraph{}, fmt.Errorf("graph: power %d must be ≥ 1", r)
	}
	acc := g.Clone()
	for i := 1; i < r; i++ {
		next, err := Product(acc, g)
		if err != nil {
			return Digraph{}, err
		}
		acc = next
	}
	return acc, nil
}

// ProductSet returns all products g1 ⊗ … ⊗ gr with each gi drawn from gens
// (the set S^r used by the §6 multi-round bounds), deduplicated. |S^r| grows
// exponentially in r, so the sweep polls ctx and a cancelled one returns the
// context's cause.
func ProductSet(ctx context.Context, gens []Digraph, r int) ([]Digraph, error) {
	if len(gens) == 0 {
		return nil, fmt.Errorf("graph: product set of empty generator list")
	}
	if r < 1 {
		return nil, fmt.Errorf("graph: product length %d must be ≥ 1", r)
	}
	current := dedup(gens)
	products := 0
	for round := 1; round < r; round++ {
		seen := newDigraphSet()
		for _, g := range current {
			for _, h := range gens {
				if products++; products&par.PollMask == 0 && ctx.Err() != nil {
					return nil, context.Cause(ctx)
				}
				p, err := Product(g, h)
				if err != nil {
					return nil, err
				}
				seen.add(p)
			}
		}
		current = seen.graphs()
	}
	return current, nil
}

// dedup returns the distinct graphs of gs sorted by canonical key.
func dedup(gs []Digraph) []Digraph {
	set := newDigraphSet()
	for _, g := range gs {
		set.add(g)
	}
	return set.graphs()
}
