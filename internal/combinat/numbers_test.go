package combinat

import (
	"context"
	"math/rand"
	"testing"
	"testing/quick"

	"ksettop/internal/bits"
	"ksettop/internal/graph"
)

// bruteEqualDomination is the Def 3.3 oracle: the least i such that every
// i-subset dominates.
func bruteEqualDomination(g graph.Digraph) int {
	n := g.N()
	full := g.Procs()
	for i := 1; i <= n; i++ {
		all := true
		bits.Combinations(n, i, func(p bits.Set) bool {
			if g.OutSet(p) != full {
				all = false
			}
			return all
		})
		if all {
			return i
		}
	}
	return n
}

func TestDominationNumberFamilies(t *testing.T) {
	tests := []struct {
		name string
		g    func() graph.Digraph
		want int
	}{
		{"clique 5", func() graph.Digraph { g, _ := graph.Complete(5); return g }, 1},
		{"star 6", func() graph.Digraph { g, _ := graph.Star(6, 0); return g }, 1},
		{"loops only 4", func() graph.Digraph { return graph.MustNew(4) }, 4},
		{"cycle 4", func() graph.Digraph { g, _ := graph.Cycle(4); return g }, 2},
		{"cycle 5", func() graph.Digraph { g, _ := graph.Cycle(5); return g }, 3},
		{"cycle 6", func() graph.Digraph { g, _ := graph.Cycle(6); return g }, 3},
		{"2 stars on 5", func() graph.Digraph { g, _ := graph.UnionOfStars(5, []int{0, 1}); return g }, 1},
		{"bidi ring 6", func() graph.Digraph { g, _ := graph.BidirectionalRing(6); return g }, 2},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			g := tt.g()
			if got := DominationNumber(g); got != tt.want {
				t.Errorf("γ = %d, want %d", got, tt.want)
			}
			p, size := MinDominatingSet(g)
			if size != tt.want || p.Count() != size {
				t.Errorf("MinDominatingSet size = %d, want %d", size, tt.want)
			}
			if g.OutSet(p) != g.Procs() {
				t.Errorf("MinDominatingSet %v does not dominate", p)
			}
		})
	}
}

func TestEqualDominationFamilies(t *testing.T) {
	tests := []struct {
		name string
		g    func() graph.Digraph
		want int
	}{
		{"clique 5", func() graph.Digraph { g, _ := graph.Complete(5); return g }, 1},
		{"star 5 (center hears only itself)", func() graph.Digraph { g, _ := graph.Star(5, 0); return g }, 5},
		{"cycle 6", func() graph.Digraph { g, _ := graph.Cycle(6); return g }, 5},
		{"loops only 4", func() graph.Digraph { return graph.MustNew(4) }, 4},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			g := tt.g()
			if got := EqualDominationNumber(g); got != tt.want {
				t.Errorf("γ_eq = %d, want %d", got, tt.want)
			}
		})
	}
}

func TestEqualDominationClosedFormMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 80; trial++ {
		g, _ := graph.Random(5, rng.Float64(), rng)
		want := bruteEqualDomination(g)
		if got := EqualDominationNumber(g); got != want {
			t.Fatalf("closed form γ_eq = %d, brute force = %d, graph %v", got, want, g)
		}
	}
}

func TestEqualDominationSet(t *testing.T) {
	star, _ := graph.Star(4, 0)
	clique, _ := graph.Complete(4)
	got, err := EqualDominationNumberSet([]graph.Digraph{star, clique})
	if err != nil {
		t.Fatalf("EqualDominationNumberSet: %v", err)
	}
	if got != 4 {
		t.Errorf("γ_eq(S) = %d, want max(4,1) = 4", got)
	}
	if _, err := EqualDominationNumberSet(nil); err == nil {
		t.Errorf("empty set should fail")
	}
}

func TestCoveringNumberFamilies(t *testing.T) {
	star, _ := graph.Star(5, 0)
	cyc, _ := graph.Cycle(6)

	// Star: leaves are silent, so i leaves cover exactly themselves.
	for i := 1; i <= 4; i++ {
		got, err := CoveringNumber(star, i)
		if err != nil {
			t.Fatalf("CoveringNumber: %v", err)
		}
		if got != i {
			t.Errorf("cov_%d(star) = %d, want %d", i, got, i)
		}
	}
	// cov_n: every size-n set includes the center, so covers everyone.
	if got, _ := CoveringNumber(star, 5); got != 5 {
		t.Errorf("cov_5(star) = %d, want 5", got)
	}

	// Cycle: i consecutive processes cover i+1 processes (for i < n).
	for i := 1; i <= 5; i++ {
		got, _ := CoveringNumber(cyc, i)
		if got != i+1 {
			t.Errorf("cov_%d(cycle6) = %d, want %d", i, got, i+1)
		}
	}
	if got, _ := CoveringNumber(cyc, 6); got != 6 {
		t.Errorf("cov_6(cycle6) = %d, want 6", got)
	}

	if _, err := CoveringNumber(star, 0); err == nil {
		t.Errorf("cov_0 should fail")
	}
	if _, err := CoveringNumber(star, 6); err == nil {
		t.Errorf("cov_{n+1} should fail")
	}
}

func TestCoveringNumberSet(t *testing.T) {
	star, _ := graph.Star(4, 0)
	clique, _ := graph.Complete(4)
	got, err := CoveringNumberSet(context.Background(), []graph.Digraph{clique, star}, 2)
	if err != nil {
		t.Fatalf("CoveringNumberSet: %v", err)
	}
	if got != 2 {
		t.Errorf("cov_2(S) = %d, want min(4,2) = 2", got)
	}
	if _, err := CoveringNumberSet(context.Background(), nil, 1); err == nil {
		t.Errorf("empty set should fail")
	}
}

func TestFigure1Quantities(t *testing.T) {
	// Figure 1(a): the star on 4 processes (symmetric closure).
	star, _ := graph.Star(4, 0)
	symStar, err := graph.SymClosure([]graph.Digraph{star})
	if err != nil {
		t.Fatalf("SymClosure: %v", err)
	}
	eq, _ := EqualDominationNumberSet(symStar)
	if eq != 4 {
		t.Errorf("γ_eq(Sym(star)) = %d, want 4 (= n)", eq)
	}

	// Figure 1(b) (edge set reconstructed from its stated numbers):
	// broadcaster p1 plus 3-cycle p2→p3→p4→p2.
	fig1b, err := graph.FromAdjacency([][]int{{0, 1, 2, 3}, {2}, {3}, {1}})
	if err != nil {
		t.Fatalf("FromAdjacency: %v", err)
	}
	symB, _ := graph.SymClosure([]graph.Digraph{fig1b})
	eqB, _ := EqualDominationNumberSet(symB)
	if eqB != 4 {
		t.Errorf("γ_eq(Sym(fig1b)) = %d, want 4", eqB)
	}
	cov2, _ := CoveringNumberSet(context.Background(), symB, 2)
	if cov2 != 3 {
		t.Errorf("cov_2(Sym(fig1b)) = %d, want 3 (paper §3.2)", cov2)
	}
	// Covering upper bound i + (n − cov_i) = 2 + (4−3) = 3 beats γ_eq = 4.
	if bound := 2 + (4 - cov2); bound != 3 {
		t.Errorf("covering bound = %d, want 3", bound)
	}
}

func TestDistributedDominationSingletonEqualsGammaEq(t *testing.T) {
	// For |S| = 1, Def 5.2 degenerates to Def 3.3.
	rng := rand.New(rand.NewSource(17))
	for trial := 0; trial < 40; trial++ {
		g, _ := graph.Random(5, rng.Float64(), rng)
		gd, err := DistributedDominationNumber(context.Background(), []graph.Digraph{g})
		if err != nil {
			t.Fatalf("DistributedDominationNumber: %v", err)
		}
		if eq := EqualDominationNumber(g); gd != eq {
			t.Fatalf("γ_dist({G}) = %d, γ_eq(G) = %d; must be equal", gd, eq)
		}
	}
}

func TestDistributedDominationStarUnions(t *testing.T) {
	// Paper §5 / Appendix G claim γ_dist(S) = n − s + 1 for the symmetric
	// union-of-s-stars model. That value is reproduced by the *effective*
	// semantics (single-graph failure witnesses, = γ_eq(S)); the literal
	// Def 5.2 (joint domination of exact-size graph subsets) yields smaller
	// values, recorded here as regressions. See
	// DistributedDominationNumberEffective.
	cases := []struct {
		n, s    int
		literal int
	}{
		{4, 1, 3}, {4, 2, 2}, {5, 1, 3}, {5, 2, 3}, {5, 3, 2},
	}
	for _, c := range cases {
		centers := make([]int, c.s)
		for i := range centers {
			centers[i] = i
		}
		g, _ := graph.UnionOfStars(c.n, centers)
		sym, err := graph.SymClosure([]graph.Digraph{g})
		if err != nil {
			t.Fatalf("SymClosure: %v", err)
		}
		gd, err := DistributedDominationNumber(context.Background(), sym)
		if err != nil {
			t.Fatalf("DistributedDominationNumber: %v", err)
		}
		if gd != c.literal {
			t.Errorf("literal γ_dist(Sym(%d stars on %d)) = %d, want %d", c.s, c.n, gd, c.literal)
		}
		eff, err := DistributedDominationNumberEffective(sym)
		if err != nil {
			t.Fatalf("DistributedDominationNumberEffective: %v", err)
		}
		if want := c.n - c.s + 1; eff != want {
			t.Errorf("effective γ_dist(Sym(%d stars on %d)) = %d, want %d (paper)", c.s, c.n, eff, want)
		}
		if eff < gd {
			t.Errorf("effective γ_dist %d < literal %d; effective must dominate", eff, gd)
		}
	}
}

func TestMaxCoveringStarUnions(t *testing.T) {
	// Paper §5: for the star-union model, max-cov_t(S) = t and M_t = n−t
	// for every t < γ_dist(S) = n−s+1 (= 4 here). The effective variants
	// reproduce the paper's range; the literal Def 5.3 agrees wherever it is
	// defined (t < literal γ_dist = 3).
	g, _ := graph.UnionOfStars(5, []int{0, 1})
	sym, _ := graph.SymClosure([]graph.Digraph{g})

	gdLit, _ := DistributedDominationNumber(context.Background(), sym)
	if gdLit != 3 {
		t.Fatalf("literal γ_dist = %d, want 3", gdLit)
	}
	for tIdx := 1; tIdx < gdLit; tIdx++ {
		mc, ok, err := MaxCoveringNumber(context.Background(), sym, tIdx)
		if err != nil || !ok {
			t.Fatalf("MaxCoveringNumber(context.Background(), %d): ok=%v err=%v", tIdx, ok, err)
		}
		if mc != tIdx {
			t.Errorf("literal max-cov_%d = %d, want %d", tIdx, mc, tIdx)
		}
		if m := MaxCoveringCoefficient(5, tIdx, mc); m != 5-tIdx {
			t.Errorf("literal M_%d = %d, want %d", tIdx, m, 5-tIdx)
		}
	}
	if _, ok, _ := MaxCoveringNumber(context.Background(), sym, gdLit); ok {
		t.Errorf("literal max-cov_%d should be undefined at literal γ_dist", gdLit)
	}

	gdEff, _ := DistributedDominationNumberEffective(sym)
	if gdEff != 4 {
		t.Fatalf("effective γ_dist = %d, want 4 (= n−s+1)", gdEff)
	}
	for tIdx := 1; tIdx < gdEff; tIdx++ {
		mc, ok, err := MaxCoveringNumberEffective(context.Background(), sym, tIdx)
		if err != nil || !ok {
			t.Fatalf("MaxCoveringNumberEffective(context.Background(), %d): ok=%v err=%v", tIdx, ok, err)
		}
		if mc != tIdx {
			t.Errorf("effective max-cov_%d = %d, want %d (paper)", tIdx, mc, tIdx)
		}
		if m := MaxCoveringCoefficient(5, tIdx, mc); m != 5-tIdx {
			t.Errorf("effective M_%d = %d, want %d (paper)", tIdx, m, 5-tIdx)
		}
	}
	if _, ok, _ := MaxCoveringNumberEffective(context.Background(), sym, gdEff); ok {
		t.Errorf("effective max-cov_%d should be undefined at γ_eq", gdEff)
	}
}

func TestMaxCoveringCycle(t *testing.T) {
	cyc, _ := graph.Cycle(6)
	// Single cycle: a non-dominating P of size 2 spread apart covers 4.
	mc, ok, err := MaxCoveringNumber(context.Background(), []graph.Digraph{cyc}, 2)
	if err != nil || !ok {
		t.Fatalf("MaxCoveringNumber: ok=%v err=%v", ok, err)
	}
	if mc != 4 {
		t.Errorf("max-cov_2(cycle6) = %d, want 4", mc)
	}
	if _, _, err := MaxCoveringNumber(context.Background(), []graph.Digraph{cyc}, 0); err == nil {
		t.Errorf("index 0 should fail")
	}
	if _, _, err := MaxCoveringNumber(context.Background(), nil, 1); err == nil {
		t.Errorf("empty set should fail")
	}
}

func TestSymClosedForms(t *testing.T) {
	// Star: max-cov_t({star}) = t, so the symmetric closed form stays t and
	// M_t = n − t.
	star, _ := graph.Star(5, 0)
	for tIdx := 1; tIdx <= 3; tIdx++ {
		mc, ok, err := SymMaxCovering(star, tIdx)
		if err != nil || !ok {
			t.Fatalf("SymMaxCovering: ok=%v err=%v", ok, err)
		}
		if mc != tIdx {
			t.Errorf("sym max-cov_%d(star) = %d, want %d", tIdx, mc, tIdx)
		}
		if m := MaxCoveringCoefficient(5, tIdx, mc); m != 5-tIdx {
			t.Errorf("sym M_%d(star) = %d, want %d", tIdx, m, 5-tIdx)
		}
	}

	// Cycle: max-cov_1({cycle6}) = 2 > 1, so formula gives
	// 1 + 1·(2−1) = 2 and M_1 = ⌊(6−1−1)/(1·1)⌋ = 4.
	cyc, _ := graph.Cycle(6)
	mc, ok, _ := SymMaxCovering(cyc, 1)
	if !ok || mc != 2 {
		t.Errorf("sym max-cov_1(cycle6) = %d, want 2", mc)
	}
	if m := MaxCoveringCoefficient(6, 1, mc); m != 4 {
		t.Errorf("sym M_1(cycle6) = %d, want 4", m)
	}
}

func TestStarUnionClosedForm(t *testing.T) {
	q, err := StarUnionClosedForm(6, 2)
	if err != nil {
		t.Fatalf("StarUnionClosedForm: %v", err)
	}
	if q.GammaDist != 5 || q.LowerBoundK != 4 || q.UpperBoundK != 5 {
		t.Errorf("closed form = %+v", q)
	}
	if _, err := StarUnionClosedForm(4, 0); err == nil {
		t.Errorf("s=0 should fail")
	}
	if _, err := StarUnionClosedForm(4, 5); err == nil {
		t.Errorf("s>n should fail")
	}
}

func TestCoveringSequenceCycle(t *testing.T) {
	cyc, _ := graph.Cycle(6)
	seq, err := CoveringSequence(cyc, 1)
	if err != nil {
		t.Fatalf("CoveringSequence: %v", err)
	}
	want := []int{2, 3, 4, 5, 6}
	if len(seq.Values) != len(want) {
		t.Fatalf("sequence = %v, want %v", seq.Values, want)
	}
	for i := range want {
		if seq.Values[i] != want[i] {
			t.Fatalf("sequence = %v, want %v", seq.Values, want)
		}
	}
	if !seq.ReachesAll || seq.Round != 5 {
		t.Errorf("ReachesAll=%v Round=%d, want true/5", seq.ReachesAll, seq.Round)
	}

	seq2, _ := CoveringSequence(cyc, 3)
	if !seq2.ReachesAll || seq2.Round != 3 {
		t.Errorf("i=3: ReachesAll=%v Round=%d, want true/3 (4,5,6)", seq2.ReachesAll, seq2.Round)
	}
}

func TestCoveringSequenceStarNeverReaches(t *testing.T) {
	star, _ := graph.Star(5, 0)
	seq, err := CoveringSequence(star, 1)
	if err != nil {
		t.Fatalf("CoveringSequence: %v", err)
	}
	if seq.ReachesAll {
		t.Errorf("star 1-sequence should stall at 1: %v", seq.Values)
	}
	if len(seq.Values) == 0 || seq.Values[len(seq.Values)-1] != 1 {
		t.Errorf("star 1-sequence = %v, want fixpoint at 1", seq.Values)
	}
}

func TestCoveringSequenceSet(t *testing.T) {
	cycA, _ := graph.Cycle(6)
	sym, _ := graph.SymClosure([]graph.Digraph{cycA})
	seq, err := CoveringSequenceSet(context.Background(), sym, 1)
	if err != nil {
		t.Fatalf("CoveringSequenceSet: %v", err)
	}
	// Covering numbers are permutation invariant: same as single cycle.
	if !seq.ReachesAll || seq.Round != 5 {
		t.Errorf("Sym(cycle6) 1-sequence: ReachesAll=%v Round=%d, want true/5", seq.ReachesAll, seq.Round)
	}
	if _, err := CoveringSequenceSet(context.Background(), nil, 1); err == nil {
		t.Errorf("empty set should fail")
	}
	if _, err := CoveringSequence(cycA, 0); err == nil {
		t.Errorf("i=0 should fail")
	}
}

func TestQuickInvariants(t *testing.T) {
	cfg := &quick.Config{MaxCount: 60, Rand: rand.New(rand.NewSource(23))}

	// cov_i ≥ i and cov monotone in i; γ ≤ γ_eq; γ_dist ≤ γ_eq.
	prop := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		g, _ := graph.Random(5, r.Float64(), r)
		h, _ := graph.Random(5, r.Float64(), r)
		set := []graph.Digraph{g, h}

		prev := 0
		for i := 1; i <= 5; i++ {
			c, err := CoveringNumber(g, i)
			if err != nil || c < i || c < prev {
				return false
			}
			prev = c
		}
		if DominationNumber(g) > EqualDominationNumber(g) {
			return false
		}
		gd, err := DistributedDominationNumber(context.Background(), set)
		if err != nil {
			return false
		}
		eq, _ := EqualDominationNumberSet(set)
		if gd > eq {
			return false
		}
		// max-cov defined exactly below γ_dist, inside [i, n−1].
		for i := 1; i <= 5; i++ {
			mc, ok, err := MaxCoveringNumber(context.Background(), set, i)
			if err != nil {
				return false
			}
			if ok != (i < gd) {
				return false
			}
			if ok && (mc < i || mc > 4) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, cfg); err != nil {
		t.Errorf("combinatorial invariants failed: %v", err)
	}
}

func TestQuickSequencesMonotone(t *testing.T) {
	cfg := &quick.Config{MaxCount: 40, Rand: rand.New(rand.NewSource(29))}
	prop := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		g, _ := graph.Random(5, r.Float64(), r)
		for i := 1; i <= 5; i++ {
			seq, err := CoveringSequence(g, i)
			if err != nil {
				return false
			}
			prev := 0
			for _, v := range seq.Values {
				if v < prev || v > 5 {
					return false
				}
				prev = v
			}
			if seq.ReachesAll != (len(seq.Values) > 0 && seq.Values[len(seq.Values)-1] == 5) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, cfg); err != nil {
		t.Errorf("sequence monotonicity failed: %v", err)
	}
}
