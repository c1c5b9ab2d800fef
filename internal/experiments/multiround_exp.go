package experiments

import (
	"context"
	"fmt"
	"math/rand"

	"ksettop/internal/bits"
	"ksettop/internal/combinat"
	"ksettop/internal/core"
	"ksettop/internal/graph"
	"ksettop/internal/model"
	"ksettop/internal/protocol"
)

// E8CycleProduct reproduces the §6.1 example: the product of the 6-cycle
// with itself, a machine-checked witness that ↑G ⊗ ↑G ⊊ ↑(G ⊗ G) (closure
// above is not invariant by product), and the Lemma 6.2 inclusion.
func E8CycleProduct(ctx context.Context) (*Table, error) {
	t := &Table{
		ID:      "E8",
		Title:   "§6.1: closure-above is not invariant by the graph product",
		Columns: []string{"check", "result", "status"},
	}
	cyc, err := graph.Cycle(6)
	if err != nil {
		return nil, err
	}
	sq, err := graph.Product(cyc, cyc)
	if err != nil {
		return nil, err
	}
	// The squared cycle reaches u, u+1, u+2.
	okSq := true
	for u := 0; u < 6; u++ {
		if sq.Out(u) != bits.New(u, (u+1)%6, (u+2)%6) {
			okSq = false
		}
	}
	t.AddRow("G⊗G is the squared cycle (u→u,u+1,u+2)", okSq, check(okSq))

	// Lemma 6.2: sampled G′ ∈ ↑G, H′ ∈ ↑G have G′⊗H′ ∈ ↑(G⊗G).
	rng := rand.New(rand.NewSource(61))
	mdl, err := model.Simple(cyc)
	if err != nil {
		return nil, err
	}
	lemma := true
	for i := 0; i < 500; i++ {
		g1 := mdl.SampleGraph(rng, rng.Float64()*0.6)
		g2 := mdl.SampleGraph(rng, rng.Float64()*0.6)
		p, err := graph.Product(g1, g2)
		if err != nil {
			return nil, err
		}
		if !sq.IsSubgraphOf(p) {
			lemma = false
			break
		}
	}
	t.AddRow("Lemma 6.2: ↑G ⊗ ↑G ⊆ ↑(G⊗G) (500 samples)", lemma, check(lemma))

	// Witness: (G⊗G) + the paper's chord p2→p6 (distance 4, 0-indexed 1→5)
	// is in ↑(G⊗G) but NOT expressible as G1 ⊗ G2 with cycle ⊆ G1, G2. Any
	// factorization must satisfy G1, G2 ⊆ H (self-loops make each factor a
	// subgraph of the product), so the search over [cycle, H] intervals is
	// exhaustive.
	witness := sq.Clone()
	if err := witness.AddEdge(1, 5); err != nil {
		return nil, err
	}
	expressible, pairs, err := productExpressible(witness, cyc)
	if err != nil {
		return nil, err
	}
	t.AddRow(fmt.Sprintf("witness G²+{p2→p6} expressible as product (searched %d factor pairs)", pairs),
		expressible, check(!expressible))

	// Contrast: a distance-3 chord IS expressible (G1 = C+{0→2} gives
	// exactly G²+{0→3}), showing the witness choice matters.
	easy := sq.Clone()
	if err := easy.AddEdge(0, 3); err != nil {
		return nil, err
	}
	easyOK, _, err := productExpressible(easy, cyc)
	if err != nil {
		return nil, err
	}
	t.AddRow("contrast: G²+{0→3} (distance-3 chord) expressible", easyOK, check(easyOK))
	t.AddNote("confirms §6.1: ↑G⊗↑G ⊊ ↑(G⊗G); the distance-4 chord of the paper's figure cannot be produced.")
	return t, nil
}

// productExpressible reports whether h = g1 ⊗ g2 for some base ⊆ g1, g2.
// It relies on base having self-loops, which forces g1, g2 ⊆ h in any
// factorization, so only edges of h are candidates.
func productExpressible(h, base graph.Digraph) (bool, int, error) {
	n := base.N()
	var free [][2]int
	for u := 0; u < n; u++ {
		for v := 0; v < n; v++ {
			if u != v && h.HasEdge(u, v) && !base.HasEdge(u, v) {
				free = append(free, [2]int{u, v})
			}
		}
	}
	if len(free) > 20 {
		return false, 0, fmt.Errorf("experiments: %d free edges too many to search", len(free))
	}
	build := func(mask int) (graph.Digraph, error) {
		g := base.Clone()
		for i, e := range free {
			if mask&(1<<uint(i)) != 0 {
				if err := g.AddEdge(e[0], e[1]); err != nil {
					return graph.Digraph{}, err
				}
			}
		}
		return g, nil
	}
	pairs := 0
	total := 1 << uint(len(free))
	for m1 := 0; m1 < total; m1++ {
		g1, err := build(m1)
		if err != nil {
			return false, pairs, err
		}
		for m2 := 0; m2 < total; m2++ {
			g2, err := build(m2)
			if err != nil {
				return false, pairs, err
			}
			p, err := graph.Product(g1, g2)
			if err != nil {
				return false, pairs, err
			}
			pairs++
			if p.Equal(h) {
				return true, pairs, nil
			}
		}
	}
	return false, pairs, nil
}

// E9CoveringSequences reproduces Def 6.6/6.8 + Thm 6.7/6.9: the rounds after
// which the i-th covering sequence reaches n, validated by multi-round
// simulation of the min algorithm against the generator adversary.
func E9CoveringSequences(ctx context.Context) (*Table, error) {
	t := &Table{
		ID:      "E9",
		Title:   "Thm 6.7/6.9: covering-number sequences and multi-round solvability",
		Columns: []string{"model", "i", "sequence", "reaches n at", "sim (i-set in r rounds)"},
	}
	cyc4, _ := graph.Cycle(4)
	cyc6, _ := graph.Cycle(6)
	star4, _ := graph.Star(4, 0)
	ring6, _ := graph.BidirectionalRing(6)
	cases := []struct {
		name string
		gens []graph.Digraph
		i    int
	}{
		{"↑cycle(4)", []graph.Digraph{cyc4}, 1},
		{"↑cycle(6)", []graph.Digraph{cyc6}, 1},
		{"↑cycle(6)", []graph.Digraph{cyc6}, 2},
		{"↑cycle(6)", []graph.Digraph{cyc6}, 3},
		{"↑ring(6)", []graph.Digraph{ring6}, 2},
		{"↑star(4)", []graph.Digraph{star4}, 1},
	}
	for _, c := range cases {
		seq, err := combinat.CoveringSequenceSet(ctx, c.gens, c.i)
		if err != nil {
			return nil, err
		}
		reach := "never"
		sim := "n/a"
		if seq.ReachesAll {
			reach = fmt.Sprintf("round %d", seq.Round)
			// Validate: min algorithm over seq.Round rounds against the
			// generator adversary decides ≤ i values.
			res, err := protocol.WorstCase(ctx, c.gens, c.i+1, seq.Round, protocol.MinAlgorithm{R: seq.Round}, 4_000_000)
			if sim, err = verdict(ctx, err); err != nil {
				return nil, err
			}
			if sim == "ok" && res.WorstDistinct > c.i {
				sim = fmt.Sprintf("FAIL: %d distinct", res.WorstDistinct)
			}
		} else {
			// The star's sequence stalls: a leaf may never be heard.
			sim = "stalls (leaf never heard)"
		}
		t.AddRow(c.name, c.i, fmt.Sprint(seq.Values), reach, sim)
	}
	return t, nil
}

// E10StarUnions reproduces Thm 6.13 and the §5 star discussion: the
// symmetric union-of-s-stars model has γ_dist = n−s+1, max-cov_t = t,
// M_t = n−t; (n−s)-set agreement is impossible while (n−s+1)-set is
// solvable. On n ≤ 4 the impossibility is re-proved by decision-map search.
func E10StarUnions(ctx context.Context) (*Table, error) {
	t := &Table{
		ID:      "E10",
		Title:   "Thm 6.13: tight bounds for symmetric unions of s stars",
		Columns: []string{"n", "s", "γ_dist(S)", "impossible", "solvable", "tight", "generic engine", "solver"},
	}
	cases := []struct{ n, s int }{
		{3, 1}, {3, 2}, {4, 1}, {4, 2}, {4, 3}, {5, 1}, {5, 2}, {5, 3}, {5, 4}, {6, 2}, {6, 4},
	}
	for _, c := range cases {
		lo, up, err := core.StarUnionBounds(c.n, c.s)
		if err != nil {
			return nil, err
		}
		genericStatus := "skipped"
		solverStatus := "skipped"
		if c.n <= 5 {
			m, err := model.UnionOfStarsModel(c.n, c.s)
			if err != nil {
				return nil, err
			}
			b, err := core.Bounds(ctx, m, 1)
			if err != nil {
				return nil, err
			}
			genericStatus = check(b.Best().Upper.K == up.K && b.Lower.K == lo.K)
			if c.n <= 4 && lo.K >= 1 {
				bound := core.LowerBound{K: lo.K, Rounds: 1, Theorem: lo.Theorem}
				if solverStatus, err = verdict(ctx, core.VerifyLowerBySolverCtx(ctx, m, bound, protocol.DefaultNodeBudget())); err != nil {
					return nil, err
				}
			}
		}
		t.AddRow(c.n, c.s, c.n-c.s+1,
			fmt.Sprintf("%d-set", lo.K), fmt.Sprintf("%d-set", up.K),
			check(up.K == lo.K+1), genericStatus, solverStatus)
	}
	return t, nil
}

// E12MultiRound reproduces the §6 multi-round bound tables on selected
// models: γ(G^r) for simple models, γ_eq(S^r) and the product-model lower
// bounds for general ones.
func E12MultiRound(ctx context.Context) (*Table, error) {
	t := &Table{
		ID:      "E12",
		Title:   "Thm 6.3–6.5 / 6.10–6.11: multi-round bounds via graph products",
		Columns: []string{"model", "r", "solvable", "impossible", "tight", "sim"},
	}
	cyc4, _ := graph.Cycle(4)
	cyc6, _ := graph.Cycle(6)
	cases := []struct {
		name   string
		mk     func() (*model.ClosedAbove, error)
		rounds int
	}{
		{"↑cycle(4)", func() (*model.ClosedAbove, error) { return model.Simple(cyc4) }, 3},
		{"↑cycle(6)", func() (*model.ClosedAbove, error) { return model.Simple(cyc6) }, 5},
		{"Sym(star) n=4", func() (*model.ClosedAbove, error) { return model.NonEmptyKernelModel(4) }, 3},
		{"2-stars n=4", func() (*model.ClosedAbove, error) { return model.UnionOfStarsModel(4, 2) }, 2},
	}
	for _, c := range cases {
		m, err := c.mk()
		if err != nil {
			return nil, err
		}
		a, err := core.AnalyzeCtx(ctx, m, c.rounds)
		if err != nil {
			return nil, err
		}
		for _, p := range a.Best {
			r, up, lo := p.Rounds, p.Upper, p.Lower
			sim := "skipped"
			if m.N() <= 4 && r <= 3 {
				if sim, err = verdict(ctx, core.VerifyUpperBySimulationCtx(ctx, m, up, 2_000_000)); err != nil {
					return nil, err
				}
			}
			t.AddRow(c.name, r,
				fmt.Sprintf("%d-set (%s)", up.K, up.Theorem),
				fmt.Sprintf("%d-set (%s)", lo.K, lo.Theorem),
				check(p.Tight), sim)
		}
	}
	t.AddNote("star models are product-idempotent: bounds do not improve with rounds (a leaf may stay unheard forever).")
	return t, nil
}
