package experiments

import (
	"context"
	"fmt"

	"ksettop/internal/combinat"
	"ksettop/internal/core"
	"ksettop/internal/graph"
	"ksettop/internal/model"
	"ksettop/internal/topology"
)

// fig1b is the reconstruction of Figure 1(b): broadcaster p1 plus the
// 3-cycle p2→p3→p4→p2, the edge set that realizes the paper's stated
// cov_2 = 3 and γ_eq = 4.
func fig1b() (graph.Digraph, error) {
	return graph.FromAdjacency([][]int{{0, 1, 2, 3}, {2}, {3}, {1}})
}

// E1Figure1 reproduces Figure 1 and the §3.2 discussion: on the star model
// the covering bounds never beat γ_eq; on the second model cov_2 = 3 and
// γ_eq = 4, so the covering upper bound (3-set) wins.
func E1Figure1(ctx context.Context) (*Table, error) {
	t := &Table{
		ID:      "E1",
		Title:   "Figure 1: equal-domination vs covering upper bounds (n=4)",
		Columns: []string{"model", "γ_eq(S)", "cov_1", "cov_2", "cov_3", "γ_eq bound", "best cov bound", "paper", "status"},
	}
	star, err := graph.Star(4, 0)
	if err != nil {
		return nil, err
	}
	b, err := fig1b()
	if err != nil {
		return nil, err
	}
	for _, tc := range []struct {
		name   string
		g      graph.Digraph
		wantEq int
		wantCv int
	}{
		{"Fig 1a (star)", star, 4, 4},
		{"Fig 1b (bcast+3cycle)", b, 4, 3},
	} {
		m, err := model.NewSymmetric([]graph.Digraph{tc.g})
		if err != nil {
			return nil, err
		}
		gens := m.Generators()
		eq, err := combinat.EqualDominationNumberSet(gens)
		if err != nil {
			return nil, err
		}
		covs := make([]int, 3)
		bestCov := eq
		for i := 1; i <= 3 && i < eq; i++ {
			cov, err := combinat.CoveringNumberSet(ctx, gens, i)
			if err != nil {
				return nil, err
			}
			covs[i-1] = cov
			if bound := i + (4 - cov); bound < bestCov {
				bestCov = bound
			}
		}
		paper := fmt.Sprintf("γ_eq=%d best=%d", tc.wantEq, tc.wantCv)
		t.AddRow(tc.name, eq, covs[0], covs[1], covs[2],
			eq, bestCov, paper, check(eq == tc.wantEq && bestCov == tc.wantCv))
	}
	t.AddNote("Fig 1b edge set reconstructed (see DESIGN.md); it realizes the paper's stated cov_2 = 3, γ_eq = 4.")
	return t, nil
}

// E2UninterpretedSimplex reproduces Figure 2: a communication graph and its
// uninterpreted simplex (Def 4.3).
func E2UninterpretedSimplex(ctx context.Context) (*Table, error) {
	t := &Table{
		ID:      "E2",
		Title:   "Figure 2: graph → uninterpreted simplex",
		Columns: []string{"process", "In_G(p) (view)", "paper view", "status"},
	}
	// Figure 2 graph: p1 hears p3, p2 hears p1 (plus self-loops).
	g, err := graph.FromAdjacency([][]int{{1}, {}, {0}})
	if err != nil {
		return nil, err
	}
	sigma := topology.UninterpretedSimplex(g)
	want := []string{"{0,2}", "{0,1}", "{2}"}
	for p := 0; p < 3; p++ {
		view, _ := sigma.ViewOf(p)
		t.AddRow(fmt.Sprintf("p%d", p+1), view, want[p], check(view.String() == want[p]))
	}
	t.AddNote("dimension of σ_G = %d (pure (n−1)-simplex)", sigma.Dimension())
	return t, nil
}

// E3Pseudosphere reproduces Figure 3 and Lemma 4.7: the pseudosphere
// φ(P1,P2,P3; {v1,v2},{v1,v2},{v}) and the (n−2)-connectivity guarantee,
// verified homologically on the 2-view pseudosphere (an octahedron).
func E3Pseudosphere(ctx context.Context) (*Table, error) {
	t := &Table{
		ID:      "E3",
		Title:   "Figure 3 + Lemma 4.7: pseudospheres and their connectivity",
		Columns: []string{"pseudosphere", "facets", "conn bound (m−2)", "verified betti", "status"},
	}
	fig3 := topology.NewPseudosphere([][]int{{0, 1}, {0, 1}, {2}})
	ac3, _, err := fig3.ToComplex().ToAbstract()
	if err != nil {
		return nil, err
	}
	ok3, b3, err := topology.IsHomologicallyKConnected(ctx, ac3, fig3.ConnectivityBound())
	if err != nil {
		return nil, err
	}
	t.AddRow("Fig 3b: φ({v1,v2},{v1,v2},{v})", fig3.FacetCount(), fig3.ConnectivityBound(),
		fmt.Sprint(b3), check(ok3 && fig3.FacetCount() == 4))

	octa := topology.NewPseudosphere([][]int{{0, 1}, {0, 1}, {0, 1}})
	acO, _, err := octa.ToComplex().ToAbstract()
	if err != nil {
		return nil, err
	}
	okO, bO, err := topology.IsHomologicallyKConnected(ctx, acO, octa.ConnectivityBound())
	if err != nil {
		return nil, err
	}
	bettiFull, err := topology.ReducedBettiNumbersCtx(ctx, acO, 2)
	if err != nil {
		return nil, err
	}
	t.AddRow("φ({0,1}³) (octahedron ≅ S²)", octa.FacetCount(), octa.ConnectivityBound(),
		fmt.Sprint(bettiFull), check(okO && len(bO) <= 3 && bettiFull[2] == 1))
	t.AddNote("S² betti [0 0 1] confirms the pseudosphere is a sphere: exactly (n−2)-connected, no more.")
	return t, nil
}

// E4Shellability reproduces Figure 4: the left complex is shellable, the
// right one is not.
func E4Shellability(ctx context.Context) (*Table, error) {
	t := &Table{
		ID:      "E4",
		Title:   "Figure 4: shellable vs non-shellable complexes",
		Columns: []string{"complex", "facets", "shellable", "paper", "status"},
	}
	a, err := topology.NewAbstract(4, [][]int{{0, 1, 2}, {1, 2, 3}})
	if err != nil {
		return nil, err
	}
	okA, err := topology.IsShellable(a)
	if err != nil {
		return nil, err
	}
	t.AddRow("Fig 4a: triangles sharing an edge", a.FacetCount(), okA, true, check(okA))

	b, err := topology.NewAbstract(5, [][]int{{0, 1, 2}, {2, 3, 4}})
	if err != nil {
		return nil, err
	}
	okB, err := topology.IsShellable(b)
	if err != nil {
		return nil, err
	}
	t.AddRow("Fig 4b: triangles sharing a vertex", b.FacetCount(), okB, false, check(!okB))

	// Lemma 4.15 sanity: boundary of Δ³ shellable in any order.
	bd, err := topology.NewAbstract(4, [][]int{{0, 1, 2}, {0, 1, 3}, {0, 2, 3}, {1, 2, 3}})
	if err != nil {
		return nil, err
	}
	okBd, err := topology.IsShellable(bd)
	if err != nil {
		return nil, err
	}
	t.AddRow("∂Δ³ (Lemma 4.15)", bd.FacetCount(), okBd, true, check(okBd))
	return t, nil
}

// E11UninterpretedConnectivity verifies Lemma 4.8, Cor 4.9, and Thm 4.12:
// uninterpreted complexes of closed-above models are (n−2)-connected, and
// the nerve of the pseudosphere cover is a simplex.
func E11UninterpretedConnectivity(ctx context.Context) (*Table, error) {
	t := &Table{
		ID:      "E11",
		Title:   "Thm 4.12: uninterpreted complexes are (n−2)-connected",
		Columns: []string{"model", "n", "generators", "facets", "claimed conn", "status"},
	}
	star3, _ := graph.Star(3, 0)
	cyc3, _ := graph.Cycle(3)
	star4, _ := graph.Star(4, 0)
	b4, err := fig1b()
	if err != nil {
		return nil, err
	}
	cases := []struct {
		name string
		mk   func() (*model.ClosedAbove, error)
	}{
		{"↑star (simple, n=3)", func() (*model.ClosedAbove, error) { return model.Simple(star3) }},
		{"↑cycle (simple, n=3)", func() (*model.ClosedAbove, error) { return model.Simple(cyc3) }},
		{"Sym(star) (n=3)", func() (*model.ClosedAbove, error) { return model.NewSymmetric([]graph.Digraph{star3}) }},
		{"non-split (n=3)", func() (*model.ClosedAbove, error) { return model.NonSplitModel(3) }},
		{"Sym(star) (n=4)", func() (*model.ClosedAbove, error) { return model.NewSymmetric([]graph.Digraph{star4}) }},
		{"Sym(fig1b) (n=4)", func() (*model.ClosedAbove, error) { return model.NewSymmetric([]graph.Digraph{b4}) }},
	}
	for _, c := range cases {
		m, err := c.mk()
		if err != nil {
			return nil, err
		}
		cx, err := core.UninterpretedComplexOf(m)
		if err != nil {
			return nil, err
		}
		connectivity, err := verdict(ctx, core.VerifyUninterpretedConnectivity(ctx, m))
		if err != nil {
			return nil, err
		}
		t.AddRow(c.name, m.N(), m.GeneratorCount(), cx.FacetCount(),
			fmt.Sprintf("%d-connected", m.N()-2), check(connectivity == "ok"))
	}
	return t, nil
}
