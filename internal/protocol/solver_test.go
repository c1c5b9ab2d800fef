package protocol

import (
	"context"
	"testing"

	"ksettop/internal/graph"
	"ksettop/internal/model"
	"ksettop/internal/par"
)

const solverBudget = 5_000_000

func TestSolverCliqueConsensusSolvable(t *testing.T) {
	clique, _ := graph.Complete(3)
	res, err := SolveOneRoundCtx(context.Background(), []graph.Digraph{clique}, 2, 1, solverBudget)
	if err != nil {
		t.Fatalf("SolveOneRound: %v", err)
	}
	if !res.Solvable {
		t.Fatalf("consensus on the clique model must be solvable in one round")
	}
	// The synthesized map must actually pass the exhaustive checker.
	check, err := WorstCase(context.Background(), []graph.Digraph{clique}, 2, 1, *res.Map, 1_000_000)
	if err != nil {
		t.Fatalf("WorstCase on synthesized map: %v", err)
	}
	if check.WorstDistinct > 1 {
		t.Errorf("synthesized map decides %d values, want 1", check.WorstDistinct)
	}
}

func TestSolverSymStarImpossibility(t *testing.T) {
	// Thm 6.13 with s=1 on n=3: 2-set agreement is impossible in the
	// non-empty-kernel model. Impossibility must be checked against the FULL
	// closure (restricting the adversary to generators weakens it enough
	// that an oblivious map exists — see the companion test below).
	m, err := model.NonEmptyKernelModel(3)
	if err != nil {
		t.Fatalf("NonEmptyKernelModel: %v", err)
	}
	var all []graph.Digraph
	if err := m.EnumerateGraphs(context.Background(), func(g graph.Digraph) bool {
		all = append(all, g)
		return true
	}); err != nil {
		t.Fatalf("EnumerateGraphs: %v", err)
	}
	res, err := SolveOneRoundCtx(context.Background(), all, 3, 2, solverBudget)
	if err != nil {
		t.Fatalf("SolveOneRound: %v", err)
	}
	if res.Solvable {
		t.Fatalf("2-set agreement on Sym(star), n=3, must be impossible (Thm 6.13)")
	}
	if res.Views == 0 || res.Executions != 27*37 {
		t.Errorf("unexpected problem size: %d views, %d executions", res.Views, res.Executions)
	}
}

func TestSolverGeneratorOnlyAdversaryIsWeaker(t *testing.T) {
	// Against the generator-only adversary (3 bare stars) an oblivious
	// 2-set map DOES exist on n=3 — demonstrating why impossibility
	// verification must sweep the whole closure.
	gens := symStars(t, 3)
	res, err := SolveOneRoundCtx(context.Background(), gens, 3, 2, solverBudget)
	if err != nil {
		t.Fatalf("SolveOneRound: %v", err)
	}
	if !res.Solvable {
		t.Fatalf("restricted-adversary instance should be satisfiable")
	}
	check, err := WorstCase(context.Background(), gens, 3, 1, *res.Map, 1_000_000)
	if err != nil {
		t.Fatalf("WorstCase: %v", err)
	}
	if check.WorstDistinct > 2 {
		t.Errorf("map decides %d values on generators, want ≤ 2", check.WorstDistinct)
	}
}

func TestSolverSymStarTrivialKSolvable(t *testing.T) {
	// k = n = 3 is trivially solvable (decide own value). The solver must
	// find a map — over the FULL model closure for a genuine solvability
	// certificate.
	m, err := model.NonEmptyKernelModel(3)
	if err != nil {
		t.Fatalf("NonEmptyKernelModel: %v", err)
	}
	var all []graph.Digraph
	if err := m.EnumerateGraphs(context.Background(), func(g graph.Digraph) bool {
		all = append(all, g)
		return true
	}); err != nil {
		t.Fatalf("EnumerateGraphs: %v", err)
	}
	res, err := SolveOneRoundCtx(context.Background(), all, 2, 3, solverBudget)
	if err != nil {
		t.Fatalf("SolveOneRound: %v", err)
	}
	if !res.Solvable {
		t.Fatalf("3-set agreement with n=3 must be solvable")
	}
	check, err := WorstCase(context.Background(), all, 2, 1, *res.Map, 2_000_000)
	if err != nil {
		t.Fatalf("WorstCase: %v", err)
	}
	if check.WorstDistinct > 3 {
		t.Errorf("map decides %d values, want ≤ 3", check.WorstDistinct)
	}
}

func TestSolverCycleSimpleModel(t *testing.T) {
	// Simple ↑cycle on n=3: γ(cycle) = 2, so (Thm 3.2 / Thm 5.1) 2-set
	// agreement is solvable in one round but consensus is not.
	cyc, _ := graph.Cycle(3)
	m, _ := model.Simple(cyc)
	var all []graph.Digraph
	if err := m.EnumerateGraphs(context.Background(), func(g graph.Digraph) bool {
		all = append(all, g)
		return true
	}); err != nil {
		t.Fatalf("EnumerateGraphs: %v", err)
	}

	imp, err := SolveOneRoundCtx(context.Background(), all, 2, 1, solverBudget)
	if err != nil {
		t.Fatalf("SolveOneRound k=1: %v", err)
	}
	if imp.Solvable {
		t.Errorf("consensus on ↑cycle must be impossible in one round (γ = 2)")
	}

	sol, err := SolveOneRoundCtx(context.Background(), all, 3, 2, solverBudget)
	if err != nil {
		t.Fatalf("SolveOneRound k=2: %v", err)
	}
	if !sol.Solvable {
		t.Errorf("2-set agreement on ↑cycle must be solvable in one round")
	}
	check, err := WorstCase(context.Background(), all, 3, 1, *sol.Map, 5_000_000)
	if err != nil {
		t.Fatalf("WorstCase: %v", err)
	}
	if check.WorstDistinct > 2 {
		t.Errorf("map decides %d values, want ≤ 2", check.WorstDistinct)
	}
}

func TestSolverMultiRoundViaProducts(t *testing.T) {
	// Thm 6.10 route: oblivious r-round impossibility on ↑G is one-round
	// impossibility on ↑(G^r)'s generators. For the 4-cycle, γ(cycle²) = 2,
	// so consensus is still impossible for oblivious algorithms in 2 rounds.
	cyc, _ := graph.Cycle(4)
	sq, err := graph.Power(cyc, 2)
	if err != nil {
		t.Fatalf("Power: %v", err)
	}
	res, err := SolveOneRoundCtx(context.Background(), []graph.Digraph{sq}, 2, 1, solverBudget)
	if err != nil {
		t.Fatalf("SolveOneRound: %v", err)
	}
	if res.Solvable {
		t.Errorf("consensus in 2 rounds on ↑cycle₄ must be impossible for oblivious algorithms")
	}
}

func TestSolverDeterministicAcrossParallelism(t *testing.T) {
	// The whole SolveResult — including the explored node count — is pinned
	// across worker counts on the n=4 star closure (1695 graphs, 256
	// assignments).
	m, err := model.NonEmptyKernelModel(4)
	if err != nil {
		t.Fatalf("NonEmptyKernelModel: %v", err)
	}
	all, err := m.AllGraphs()
	if err != nil {
		t.Fatalf("AllGraphs: %v", err)
	}
	par.SetParallelism(1)
	want, err := SolveOneRoundCtx(context.Background(), all, 4, 3, 50_000_000)
	par.SetParallelism(0)
	if err != nil {
		t.Fatalf("sequential SolveOneRound: %v", err)
	}
	if want.Solvable {
		t.Fatalf("3-set agreement on Sym(star), n=4, must be impossible")
	}
	defer par.SetParallelism(0)
	for _, workers := range []int{2, 5, 8} {
		par.SetParallelism(workers)
		got, err := SolveOneRoundCtx(context.Background(), all, 4, 3, 50_000_000)
		par.SetParallelism(0)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if got != want {
			t.Errorf("workers=%d: SolveResult %+v differs from sequential %+v", workers, got, want)
		}
	}
}

func TestSolverGuards(t *testing.T) {
	star, _ := graph.Star(3, 0)
	if _, err := SolveOneRoundCtx(context.Background(), nil, 2, 1, 1000); err == nil {
		t.Errorf("no graphs should fail")
	}
	if _, err := SolveOneRoundCtx(context.Background(), []graph.Digraph{star}, 1, 1, 1000); err == nil {
		t.Errorf("numValues=1 should fail")
	}
	if _, err := SolveOneRoundCtx(context.Background(), []graph.Digraph{star}, 2, 0, 1000); err == nil {
		t.Errorf("k=0 should fail")
	}
	gens := symStars(t, 3)
	if _, err := SolveOneRoundCtx(context.Background(), gens, 3, 2, 1); err == nil {
		t.Errorf("tiny node budget should trip on an unsatisfiable instance")
	}
}
