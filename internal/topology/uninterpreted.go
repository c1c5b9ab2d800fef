package topology

import (
	"fmt"

	"ksettop/internal/bits"
	"ksettop/internal/graph"
)

// UninterpretedSimplex returns σ_G (Def 4.3): the colored simplex with one
// vertex per process p, whose view is In_G(p) — who p heard from in the
// round that used G.
func UninterpretedSimplex(g graph.Digraph) Simplex[bits.Set] {
	s := make(Simplex[bits.Set], g.N())
	for p := 0; p < g.N(); p++ {
		s[p] = Vertex[bits.Set]{Color: p, View: g.In(p)}
	}
	return s
}

// UninterpretedPseudosphere returns the uninterpreted complex of the simple
// closed-above model ↑G in its Lemma 4.8 form: the pseudosphere
// φ(Π; {S | In_G(p) ⊆ S ⊆ Π} | p ∈ Π).
func UninterpretedPseudosphere(g graph.Digraph) *Pseudosphere[bits.Set] {
	n := g.N()
	full := bits.Full(n)
	views := make([][]bits.Set, n)
	for p := 0; p < n; p++ {
		lo := g.In(p)
		bits.SupersetsWithin(lo, full, func(s bits.Set) bool {
			views[p] = append(views[p], s)
			return true
		})
	}
	return NewPseudosphere(views)
}

// UninterpretedCover returns the pseudosphere cover {C_{↑G} | G ∈ gens} of
// the uninterpreted complex of the closed-above model generated by gens —
// the cover the Thm 4.12 nerve argument runs on.
func UninterpretedCover(gens []graph.Digraph) ([]*Pseudosphere[bits.Set], error) {
	if len(gens) == 0 {
		return nil, fmt.Errorf("topology: uninterpreted cover of empty generator set")
	}
	n := gens[0].N()
	cover := make([]*Pseudosphere[bits.Set], len(gens))
	for i, g := range gens {
		if g.N() != n {
			return nil, fmt.Errorf("topology: mixed process counts %d and %d", n, g.N())
		}
		cover[i] = UninterpretedPseudosphere(g)
	}
	return cover, nil
}

// UninterpretedComplex returns C_A (Def 4.4) for the closed-above model
// generated by gens, materialized as the union of the cover pseudospheres.
// Facet counts grow as Π_p 2^(n−|In_G(p)|) per generator; intended for the
// small instances used in verification.
func UninterpretedComplex(gens []graph.Digraph) (*Complex[bits.Set], error) {
	cover, err := UninterpretedCover(gens)
	if err != nil {
		return nil, err
	}
	c := NewComplex[bits.Set]()
	for _, ps := range cover {
		c.addPseudosphere(ps)
	}
	return c, nil
}
