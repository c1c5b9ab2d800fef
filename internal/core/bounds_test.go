package core

import (
	"context"
	"strings"
	"testing"

	"ksettop/internal/graph"
	"ksettop/internal/model"
)

func kernelModel(t *testing.T, n int) *model.ClosedAbove {
	t.Helper()
	m, err := model.NonEmptyKernelModel(n)
	if err != nil {
		t.Fatalf("NonEmptyKernelModel: %v", err)
	}
	return m
}

func fig1bModel(t *testing.T) *model.ClosedAbove {
	t.Helper()
	g, err := graph.FromAdjacency([][]int{{0, 1, 2, 3}, {2}, {3}, {1}})
	if err != nil {
		t.Fatalf("FromAdjacency: %v", err)
	}
	m, err := model.NewSymmetric([]graph.Digraph{g})
	if err != nil {
		t.Fatalf("NewSymmetric: %v", err)
	}
	return m
}

func TestSimpleStarBoundsTight(t *testing.T) {
	// ↑star: γ = 1, so consensus solvable in one round and the Thm 5.1
	// bound is vacuous (k = 0): tight.
	star, _ := graph.Star(4, 0)
	m, _ := model.Simple(star)
	up, err := BestUpperOneRound(m)
	if err != nil {
		t.Fatalf("BestUpperOneRound: %v", err)
	}
	if up.K != 1 || up.Theorem != "Thm 3.2" {
		t.Errorf("best upper = %d (%s), want 1 (Thm 3.2)", up.K, up.Theorem)
	}
	lo, err := BestLowerOneRound(m)
	if err != nil {
		t.Fatalf("BestLowerOneRound: %v", err)
	}
	if lo.K != 0 {
		t.Errorf("best lower = %d, want 0 (vacuous)", lo.K)
	}
}

func TestSimpleCycleBounds(t *testing.T) {
	// ↑cycle on n=5: γ = 3 → 3-set solvable, 2-set impossible: tight.
	cyc, _ := graph.Cycle(5)
	m, _ := model.Simple(cyc)
	up, _ := BestUpperOneRound(m)
	lo, _ := BestLowerOneRound(m)
	if up.K != 3 {
		t.Errorf("upper = %d, want γ(cycle5) = 3", up.K)
	}
	if lo.K != 2 || lo.Theorem != "Thm 5.1" {
		t.Errorf("lower = %d (%s), want 2 (Thm 5.1)", lo.K, lo.Theorem)
	}
	if lo.Scope != AllAlgorithms {
		t.Errorf("one-round lower bounds apply to all algorithms")
	}
}

func TestFigure1aStarModelBounds(t *testing.T) {
	// Figure 1(a) discussion: Sym(star) on n=4 — all one-round upper bounds
	// give 4-set; Thm 5.4 gives 3-set impossible (= Thm 6.13, s=1): tight.
	m := kernelModel(t, 4)
	b, err := Bounds(context.Background(), m, 1)
	if err != nil {
		t.Fatalf("Bounds: %v", err)
	}
	for _, u := range b.Upper {
		if u.K < 4 {
			t.Errorf("star model upper bound %d (%s) below n", u.K, u.Theorem)
		}
	}
	lo, _ := BestLowerOneRound(m)
	if lo.K != 3 {
		t.Errorf("lower = %d, want 3", lo.K)
	}
	up, _ := BestUpperOneRound(m)
	if up.K != 4 || up.K != lo.K+1 {
		t.Errorf("bounds not tight: upper %d lower %d", up.K, lo.K)
	}
}

func TestFigure1bCoveringBeatsEqualDomination(t *testing.T) {
	// Figure 1(b) (§3.2): the covering bound gives 3-set while γ_eq gives
	// only 4-set; and Thm 5.4 shows 2-set impossible: 3 is tight.
	m := fig1bModel(t)
	b, err := Bounds(context.Background(), m, 1)
	if err != nil {
		t.Fatalf("Bounds: %v", err)
	}
	var eqK, covK int
	for _, u := range b.Upper {
		switch u.Theorem {
		case "Cor 3.5":
			eqK = u.K
		case "Cor 3.8":
			if covK == 0 || u.K < covK {
				covK = u.K
			}
		}
	}
	if eqK != 4 {
		t.Errorf("γ_eq bound = %d, want 4", eqK)
	}
	if covK != 3 {
		t.Errorf("best covering bound = %d, want 3", covK)
	}
	lo, _ := BestLowerOneRound(m)
	if lo.K != 2 {
		t.Errorf("lower = %d, want 2", lo.K)
	}
}

func TestCorollary55MatchesTheorem54OnStar(t *testing.T) {
	star, _ := graph.Star(4, 0)
	c55, err := Corollary55(star)
	if err != nil {
		t.Fatalf("Corollary55: %v", err)
	}
	m := kernelModel(t, 4)
	lo, _ := BestLowerOneRound(m)
	if c55.K != lo.K {
		t.Errorf("Cor 5.5 gives %d, Thm 5.4 gives %d; should agree on stars", c55.K, lo.K)
	}
}

func TestStarUnionBounds(t *testing.T) {
	for _, tc := range []struct{ n, s int }{{4, 1}, {5, 2}, {6, 3}, {6, 5}} {
		lo, up, err := StarUnionBounds(tc.n, tc.s)
		if err != nil {
			t.Fatalf("StarUnionBounds(%d,%d): %v", tc.n, tc.s, err)
		}
		if lo.K != tc.n-tc.s {
			t.Errorf("n=%d s=%d: lower = %d, want %d", tc.n, tc.s, lo.K, tc.n-tc.s)
		}
		if up.K != tc.n-tc.s+1 {
			t.Errorf("n=%d s=%d: upper = %d, want %d", tc.n, tc.s, up.K, tc.n-tc.s+1)
		}
	}
	if _, _, err := StarUnionBounds(4, 0); err == nil {
		t.Errorf("s=0 should fail")
	}
}

func TestStarUnionBoundsMatchGenericMachinery(t *testing.T) {
	// The generic Thm 5.4 + Cor 3.5 pipeline must reproduce the Thm 6.13
	// closed forms on expanded star-union models.
	for _, tc := range []struct{ n, s int }{{4, 1}, {4, 2}, {5, 2}} {
		m, err := model.UnionOfStarsModel(tc.n, tc.s)
		if err != nil {
			t.Fatalf("UnionOfStarsModel: %v", err)
		}
		up, _ := BestUpperOneRound(m)
		lo, _ := BestLowerOneRound(m)
		if up.K != tc.n-tc.s+1 {
			t.Errorf("n=%d s=%d: generic upper = %d, want %d", tc.n, tc.s, up.K, tc.n-tc.s+1)
		}
		if lo.K != tc.n-tc.s {
			t.Errorf("n=%d s=%d: generic lower = %d, want %d", tc.n, tc.s, lo.K, tc.n-tc.s)
		}
	}
}

func TestMultiRoundSimpleCycle(t *testing.T) {
	cyc, _ := graph.Cycle(4)
	m, _ := model.Simple(cyc)
	// γ(cycle) = 2, γ(cycle²) = 2 (out-sets are 3 consecutive procs),
	// cycle³ = clique so γ = 1.
	wantUpper := map[int]int{1: 2, 2: 2, 3: 1}
	for r, want := range wantUpper {
		b, err := Bounds(context.Background(), m, r)
		if err != nil {
			t.Fatalf("Bounds(%d): %v", r, err)
		}
		up, lo := b.Best().Upper, b.Lower
		if up.K != want {
			t.Errorf("r=%d: upper = %d (%s), want %d", r, up.K, up.Theorem, want)
		}
		if lo.K != want-1 {
			t.Errorf("r=%d: lower = %d, want %d (tight with upper)", r, lo.K, want-1)
		}
		if r > 1 && lo.Scope != ObliviousAlgorithms {
			t.Errorf("multi-round lower bounds are for oblivious algorithms")
		}
	}
}

func TestMultiRoundCoveringSequenceBound(t *testing.T) {
	// Simple ↑cycle on n=4: the 1st covering sequence is 2,3,4 → consensus
	// solvable in 3 rounds via Thm 6.7 (and γ(cycle³) = 1 via Thm 6.3).
	cyc, _ := graph.Cycle(4)
	m, _ := model.Simple(cyc)
	b, err := Bounds(context.Background(), m, 3)
	if err != nil {
		t.Fatalf("Bounds: %v", err)
	}
	foundSeq := false
	for _, u := range b.Upper {
		if u.Theorem == "Thm 6.7" && u.K == 1 {
			foundSeq = true
		}
	}
	if !foundSeq {
		t.Errorf("expected a Thm 6.7 consensus bound at r=3; got %+v", b.Upper)
	}
}

func TestMultiRoundGuards(t *testing.T) {
	m := kernelModel(t, 3)
	if _, err := Bounds(context.Background(), m, 0); err == nil {
		t.Errorf("r=0 should fail")
	}
}

func TestAnalyzeAndRender(t *testing.T) {
	m := kernelModel(t, 4)
	a, err := Analyze(m, 2)
	if err != nil {
		t.Fatalf("Analyze: %v", err)
	}
	if eq := a.PerRound[0].GammaEq; eq != 4 || a.GammaDistLiteral > eq {
		t.Errorf("γ_eq = effective γ_dist = %d, literal γ_dist %d; want 4 and literal ≤ effective",
			eq, a.GammaDistLiteral)
	}
	if len(a.Best) != 2 || !a.Best[0].Tight {
		t.Errorf("round-1 bounds should be tight: %+v", a.Best)
	}
	text := a.Render()
	for _, want := range []string{"γ_eq", "rounds", "4-set", "3-set"} {
		if !strings.Contains(text, want) {
			t.Errorf("render missing %q:\n%s", want, text)
		}
	}
	if _, err := Analyze(m, 0); err == nil {
		t.Errorf("rounds=0 should fail")
	}
}
