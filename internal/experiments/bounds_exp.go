package experiments

import (
	"context"
	"fmt"
	"strings"

	"ksettop/internal/core"
	"ksettop/internal/graph"
	"ksettop/internal/model"
	"ksettop/internal/protocol"
)

// E5SimpleBounds reproduces the simple closed-above characterization
// (Thm 3.2 tight with Thm 5.1, via [6, Thm 5.1]): for each generator family
// γ(G)-set agreement is solvable in one round and (γ(G)−1)-set is not. On
// n ≤ 4 the lower bound is re-proved mechanically by exhaustive decision-map
// search, and the upper bound by exhaustive simulation.
func E5SimpleBounds(ctx context.Context) (*Table, error) {
	t := &Table{
		ID:      "E5",
		Title:   "Thm 3.2 + Thm 5.1: simple closed-above models, tight γ(G) characterization",
		Columns: []string{"generator", "n", "γ(G)", "solvable", "impossible", "tight", "sim", "solver"},
	}
	type tc struct {
		name string
		g    graph.Digraph
	}
	star5, _ := graph.Star(5, 0)
	cyc3, _ := graph.Cycle(3)
	cyc4, _ := graph.Cycle(4)
	cyc6, _ := graph.Cycle(6)
	path4, _ := graph.DirectedPath(4)
	tree7, _ := graph.OutTree(7)
	ring6, _ := graph.BidirectionalRing(6)
	clique4, _ := graph.Complete(4)
	loops4 := graph.MustNew(4)
	cases := []tc{
		{"star(5)", star5},
		{"cycle(3)", cyc3},
		{"cycle(4)", cyc4},
		{"cycle(6)", cyc6},
		{"path(4)", path4},
		{"out-tree(7)", tree7},
		{"bidi-ring(6)", ring6},
		{"clique(4)", clique4},
		{"loops-only(4)", loops4},
	}
	for _, c := range cases {
		m, err := model.Simple(c.g)
		if err != nil {
			return nil, err
		}
		b, err := core.Bounds(ctx, m, 1)
		if err != nil {
			return nil, err
		}
		best := b.Best()
		up, lo := best.Upper, best.Lower

		simStatus, solverStatus := "skipped", "skipped"
		if c.g.N() <= 4 {
			if simStatus, err = verdict(ctx, core.VerifyUpperBySimulationCtx(ctx, m, up, 4_000_000)); err != nil {
				return nil, err
			}
			if solverStatus, err = verdict(ctx, core.VerifyLowerBySolverCtx(ctx, m, lo, protocol.DefaultNodeBudget())); err != nil {
				return nil, err
			}
		}
		t.AddRow(c.name, c.g.N(), b.Gamma,
			fmt.Sprintf("%d-set", up.K), fmt.Sprintf("%d-set", lo.K),
			check(best.Tight && up.K == b.Gamma), simStatus, solverStatus)
	}
	return t, nil
}

// E6GeneralUpper reproduces the Thm 3.4/3.7 upper-bound table for general
// closed-above models: the γ_eq(S) bound next to every covering bound
// i + (n − cov_i(S)).
func E6GeneralUpper(ctx context.Context) (*Table, error) {
	t := &Table{
		ID:      "E6",
		Title:   "Thm 3.4/3.7 (+Cor 3.5/3.8): one-round upper bounds for general models",
		Columns: []string{"model", "n", "γ_eq(S)", "covering bounds (i:k)", "best", "sim"},
	}
	b4, err := fig1b()
	if err != nil {
		return nil, err
	}
	cases := []struct {
		name string
		mk   func() (*model.ClosedAbove, error)
	}{
		{"Sym(star) n=3", func() (*model.ClosedAbove, error) { return model.NonEmptyKernelModel(3) }},
		{"Sym(star) n=4", func() (*model.ClosedAbove, error) { return model.NonEmptyKernelModel(4) }},
		{"Sym(fig1b) n=4", func() (*model.ClosedAbove, error) { return model.NewSymmetric([]graph.Digraph{b4}) }},
		{"2-stars n=4", func() (*model.ClosedAbove, error) { return model.UnionOfStarsModel(4, 2) }},
		{"2-stars n=5", func() (*model.ClosedAbove, error) { return model.UnionOfStarsModel(5, 2) }},
		{"non-split n=3", func() (*model.ClosedAbove, error) { return model.NonSplitModel(3) }},
		{"non-split n=4", func() (*model.ClosedAbove, error) { return model.NonSplitModel(4) }},
	}
	for _, c := range cases {
		m, err := c.mk()
		if err != nil {
			return nil, err
		}
		b, err := core.Bounds(ctx, m, 1)
		if err != nil {
			return nil, err
		}
		// The covering bounds close the list, one per i = 1..γ_eq−1.
		var covBounds []string
		for j, u := range b.Upper[len(b.Upper)-len(b.Covering):] {
			covBounds = append(covBounds, fmt.Sprintf("%d:%d", j+1, u.K))
		}
		best := b.Best().Upper
		simStatus := "skipped"
		if m.N() <= 4 {
			if simStatus, err = verdict(ctx, core.VerifyUpperBySimulationCtx(ctx, m, best, 4_000_000)); err != nil {
				return nil, err
			}
		}
		t.AddRow(c.name, m.N(), b.GammaEq, strings.Join(covBounds, " "), fmt.Sprintf("%d-set (%s)", best.K, best.Theorem), simStatus)
	}
	t.AddNote("Fig 1b row shows the §3.2 crossover: covering bound 3 < γ_eq bound 4.")
	return t, nil
}

// E7GeneralLower reproduces the Thm 5.4 lower-bound table, cross-checked by
// exhaustive decision-map search (full model closure) and, on n=3 models,
// by protocol-complex connectivity.
func E7GeneralLower(ctx context.Context) (*Table, error) {
	t := &Table{
		ID:      "E7",
		Title:   "Thm 5.4 (+Cor 5.5): one-round lower bounds for general models",
		Columns: []string{"model", "n", "γ_dist eff(lit)", "max-cov_t", "M_t", "impossible", "solver", "topology"},
	}
	b4, err := fig1b()
	if err != nil {
		return nil, err
	}
	cases := []struct {
		name     string
		mk       func() (*model.ClosedAbove, error)
		solver   bool
		topology bool
	}{
		{"Sym(star) n=3", func() (*model.ClosedAbove, error) { return model.NonEmptyKernelModel(3) }, true, true},
		{"Sym(star) n=4", func() (*model.ClosedAbove, error) { return model.NonEmptyKernelModel(4) }, true, false},
		{"Sym(fig1b) n=4", func() (*model.ClosedAbove, error) { return model.NewSymmetric([]graph.Digraph{b4}) }, true, false},
		{"2-stars n=4", func() (*model.ClosedAbove, error) { return model.UnionOfStarsModel(4, 2) }, true, false},
		{"non-split n=3", func() (*model.ClosedAbove, error) { return model.NonSplitModel(3) }, true, true},
	}
	for _, c := range cases {
		m, err := c.mk()
		if err != nil {
			return nil, err
		}
		a, err := core.AnalyzeCtx(ctx, m, 1)
		if err != nil {
			return nil, err
		}
		nb, lo := a.PerRound[0].Numbers, a.Best[0].Lower
		var mcs, mts []string
		for j, mc := range nb.MaxCov {
			if mc == 0 {
				break
			}
			mcs = append(mcs, fmt.Sprint(mc))
			mts = append(mts, fmt.Sprint(nb.MaxCoeff[j]))
		}
		solverStatus, topoStatus := "skipped", "skipped"
		if c.solver {
			if solverStatus, err = verdict(ctx, core.VerifyLowerBySolverCtx(ctx, m, lo, protocol.DefaultNodeBudget())); err != nil {
				return nil, err
			}
		}
		if c.topology {
			if topoStatus, err = verdict(ctx, core.VerifyLowerByTopology(ctx, m, lo)); err != nil {
				return nil, err
			}
		}
		t.AddRow(c.name, m.N(), fmt.Sprintf("%d(%d)", nb.GammaEq, a.GammaDistLiteral), strings.Join(mcs, " "), strings.Join(mts, " "),
			fmt.Sprintf("%d-set", lo.K), solverStatus, topoStatus)
	}
	t.AddNote("solver = no oblivious decision map exists over the full closure (one-round full-info is oblivious).")
	t.AddNote("topology = protocol complex over K+1 values is homologically (K−1)-connected.")
	return t, nil
}
