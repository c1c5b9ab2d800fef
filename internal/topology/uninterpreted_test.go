package topology

import (
	"context"
	"testing"

	"ksettop/internal/bits"
	"ksettop/internal/graph"
)

func TestUninterpretedSimplexFigure2(t *testing.T) {
	// Figure 2: p1's view is {p1,p3}, p2's is {p1,p2}, p3's is {p3}
	// (0-indexed: p0 hears p2, p1 hears p0). Graph edges: 2→0, 0→1.
	g, err := graph.FromAdjacency([][]int{{1}, {}, {0}})
	if err != nil {
		t.Fatalf("FromAdjacency: %v", err)
	}
	s := UninterpretedSimplex(g)
	want := []bits.Set{bits.New(0, 2), bits.New(0, 1), bits.New(2)}
	for p, w := range want {
		view, ok := s.ViewOf(p)
		if !ok || view != w {
			t.Errorf("view of p%d = %v, want %v", p, view, w)
		}
	}
	if s.Dimension() != 2 {
		t.Errorf("uninterpreted simplex dim = %d, want n−1 = 2", s.Dimension())
	}
}

func TestUninterpretedPseudosphereLemma48(t *testing.T) {
	// Lemma 4.8: C_{↑G} = φ(Π; {S | In_G(p) ⊆ S ⊆ Π}).
	star, _ := graph.Star(3, 0)
	ps := UninterpretedPseudosphere(star)
	// In sizes: center {0} → 2² = 4 views; leaves {0,p} → 2 views each.
	if got := len(ps.Views(0)); got != 4 {
		t.Errorf("center views = %d, want 4", got)
	}
	for p := 1; p < 3; p++ {
		if got := len(ps.Views(p)); got != 2 {
			t.Errorf("leaf %d views = %d, want 2", p, got)
		}
	}
	if ps.FacetCount() != 16 {
		t.Errorf("facet count = %d, want 4·2·2 = 16", ps.FacetCount())
	}

	// (⊆) every facet is the uninterpreted simplex of some H ∈ ↑G;
	// (⊇) the simplexes of G itself and of the clique are facets.
	ps.Facets(func(s Simplex[bits.Set]) bool {
		h := graph.MustNew(3)
		for _, vert := range s {
			vert.View.ForEach(func(q int) {
				if err := h.AddEdge(q, vert.Color); err != nil {
					t.Fatalf("AddEdge: %v", err)
				}
			})
		}
		if !star.IsSubgraphOf(h) {
			t.Errorf("facet %v corresponds to graph outside ↑G", s)
		}
		return true
	})
	if !ps.ContainsFacet(UninterpretedSimplex(star)) {
		t.Errorf("σ_G must be a facet of C_{↑G}")
	}
	clique, _ := graph.Complete(3)
	if !ps.ContainsFacet(UninterpretedSimplex(clique)) {
		t.Errorf("σ_clique must be a facet of C_{↑G}")
	}
}

func TestUninterpretedComplexClique(t *testing.T) {
	clique, _ := graph.Complete(3)
	c, err := UninterpretedComplex([]graph.Digraph{clique})
	if err != nil {
		t.Fatalf("UninterpretedComplex: %v", err)
	}
	if c.FacetCount() != 1 {
		t.Errorf("↑clique has a single graph, so 1 facet; got %d", c.FacetCount())
	}
}

func TestCorollary49SimpleModelConnectivity(t *testing.T) {
	// Cor 4.9: the uninterpreted complex of a simple closed-above model is
	// (|Π|−2)-connected. Verify homologically for a few generators on n=3,4.
	gens := []graph.Digraph{}
	star3, _ := graph.Star(3, 0)
	cyc3, _ := graph.Cycle(3)
	star4, _ := graph.Star(4, 1)
	cyc4, _ := graph.Cycle(4)
	gens = append(gens, star3, cyc3, star4, cyc4)
	for _, g := range gens {
		c, err := UninterpretedComplex([]graph.Digraph{g})
		if err != nil {
			t.Fatalf("UninterpretedComplex: %v", err)
		}
		ac, _, err := c.ToAbstract()
		if err != nil {
			t.Fatalf("ToAbstract: %v", err)
		}
		k := g.N() - 2
		ok, betti, err := IsHomologicallyKConnected(context.Background(), ac, k)
		if err != nil {
			t.Fatalf("IsHomologicallyKConnected: %v", err)
		}
		if !ok {
			t.Errorf("C_{↑G} for %v should be %d-connected, betti=%v", g, k, betti)
		}
	}
}

func TestTheorem412GeneralModelConnectivity(t *testing.T) {
	// Thm 4.12: the uninterpreted complex of a *general* closed-above model
	// is (|Π|−2)-connected. Use Sym(star) and {star, cycle} on n = 3, 4.
	star3, _ := graph.Star(3, 0)
	sym3, _ := graph.SymClosure([]graph.Digraph{star3})
	cyc3, _ := graph.Cycle(3)
	mixed3 := append([]graph.Digraph{cyc3}, sym3...)

	star4, _ := graph.Star(4, 0)
	sym4, _ := graph.SymClosure([]graph.Digraph{star4})

	for _, gens := range [][]graph.Digraph{sym3, mixed3, sym4} {
		c, err := UninterpretedComplex(gens)
		if err != nil {
			t.Fatalf("UninterpretedComplex: %v", err)
		}
		ac, _, err := c.ToAbstract()
		if err != nil {
			t.Fatalf("ToAbstract: %v", err)
		}
		k := gens[0].N() - 2
		ok, betti, err := IsHomologicallyKConnected(context.Background(), ac, k)
		if err != nil {
			t.Fatalf("IsHomologicallyKConnected: %v", err)
		}
		if !ok {
			t.Errorf("C_A for %d generators should be %d-connected, betti=%v", len(gens), k, betti)
		}
	}
}

func TestTheorem412NerveIsSimplex(t *testing.T) {
	// In the Thm 4.12 proof, every pseudosphere in the cover contains the
	// clique's uninterpreted simplex, so all intersections are nonempty and
	// the nerve is a simplex.
	star, _ := graph.Star(4, 0)
	sym, _ := graph.SymClosure([]graph.Digraph{star})
	cover, err := UninterpretedCover(sym)
	if err != nil {
		t.Fatalf("UninterpretedCover: %v", err)
	}
	// Intersection of ALL cover elements symbolically (Lemma 4.6).
	inter := cover[0]
	for _, ps := range cover[1:] {
		next, err := inter.Intersect(ps)
		if err != nil {
			t.Fatalf("Intersect: %v", err)
		}
		inter = next
	}
	if inter.IsVoid() {
		t.Fatalf("cover intersection must contain the clique simplex")
	}
	clique, _ := graph.Complete(4)
	if !inter.ContainsFacet(UninterpretedSimplex(clique)) {
		t.Errorf("clique simplex must survive full intersection")
	}

	// Abstract nerve: must be a single simplex on all cover elements.
	abstracts := make([]*AbstractComplex, len(cover))
	// Use a shared vertex index across cover elements.
	union := NewComplex[bits.Set]()
	for _, ps := range cover {
		union.Union(ps.ToComplex())
	}
	_, verts, err := union.ToAbstract()
	if err != nil {
		t.Fatalf("ToAbstract: %v", err)
	}
	index := make(map[string]int, len(verts))
	for i, vt := range verts {
		index[vertKey(vt)] = i
	}
	for i, ps := range cover {
		gens := [][]int{}
		ps.Facets(func(s Simplex[bits.Set]) bool {
			gen := make([]int, len(s))
			for j, vt := range s {
				gen[j] = index[vertKey(vt)]
			}
			gens = append(gens, gen)
			return true
		})
		ac, err := NewAbstract(len(verts), gens)
		if err != nil {
			t.Fatalf("NewAbstract: %v", err)
		}
		abstracts[i] = ac
	}
	nerve, err := Nerve(abstracts)
	if err != nil {
		t.Fatalf("Nerve: %v", err)
	}
	if !NerveIsSimplex(nerve) {
		t.Errorf("nerve of the closed-above cover must be a simplex: %v", nerve)
	}
}

func vertKey(v Vertex[bits.Set]) string {
	return v.View.String() + ":" + string(rune('0'+v.Color))
}

func TestUninterpretedCoverErrors(t *testing.T) {
	if _, err := UninterpretedCover(nil); err == nil {
		t.Errorf("empty generator set should fail")
	}
	a := graph.MustNew(3)
	b := graph.MustNew(4)
	if _, err := UninterpretedCover([]graph.Digraph{a, b}); err == nil {
		t.Errorf("mixed process counts should fail")
	}
}
