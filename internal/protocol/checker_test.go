package protocol

import (
	"context"
	"errors"
	"testing"

	"ksettop/internal/graph"
	"ksettop/internal/model"
)

func symStars(t *testing.T, n int) []graph.Digraph {
	t.Helper()
	star, err := graph.Star(n, 0)
	if err != nil {
		t.Fatalf("Star: %v", err)
	}
	sym, err := graph.SymClosure([]graph.Digraph{star})
	if err != nil {
		t.Fatalf("SymClosure: %v", err)
	}
	return sym
}

func TestWorstCaseMinOnSymStar(t *testing.T) {
	// Upper bound (Cor 3.5): γ_eq = n on the star model, so the one-round
	// min algorithm achieves n-set agreement and no better against the
	// generator adversary: worst case = 3 distinct on n = 3.
	gens := symStars(t, 3)
	res, err := WorstCase(context.Background(), gens, 3, 1, MinAlgorithm{R: 1}, 1_000_000)
	if err != nil {
		t.Fatalf("WorstCase: %v", err)
	}
	if res.WorstDistinct != 3 {
		t.Errorf("worst distinct = %d, want 3", res.WorstDistinct)
	}
	if res.Executions != 27*3 {
		t.Errorf("executions = %d, want 81", res.Executions)
	}
	// The witness must reproduce the worst case.
	r, err := Run(res.Witness, MinAlgorithm{R: 1})
	if err != nil {
		t.Fatalf("witness run: %v", err)
	}
	if r.DistinctCount() != res.WorstDistinct {
		t.Errorf("witness reproduces %d, want %d", r.DistinctCount(), res.WorstDistinct)
	}
}

func TestWorstCaseFullModelEnumeration(t *testing.T) {
	// Sweeping the FULL closure ↑Sym(star) on n=3 must agree with the
	// generator sweep for the min algorithm (more edges only help).
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
	res, err := WorstCase(context.Background(), all, 2, 1, MinAlgorithm{R: 1}, 1_000_000)
	if err != nil {
		t.Fatalf("WorstCase: %v", err)
	}
	gensOnly, err := WorstCase(context.Background(), m.Generators(), 2, 1, MinAlgorithm{R: 1}, 1_000_000)
	if err != nil {
		t.Fatalf("WorstCase(context.Background(), gens): %v", err)
	}
	if res.WorstDistinct != gensOnly.WorstDistinct {
		t.Errorf("full sweep %d vs generator sweep %d", res.WorstDistinct, gensOnly.WorstDistinct)
	}
}

func TestWorstCaseMultiRoundCycle(t *testing.T) {
	// Simple ↑cycle model on n = 4: γ(cycle²) = 2, and the covering
	// sequence reaches n in 3 rounds, so min over 3 rounds achieves
	// consensus... against the fixed-cycle adversary the spread after r
	// rounds is r+1 processes: after 1 round worst = 3-set, after 3 rounds
	// worst = 1 (everyone knows everyone).
	cyc, _ := graph.Cycle(4)
	for _, tc := range []struct {
		rounds int
		want   int
	}{
		{1, 3}, {3, 1},
	} {
		res, err := WorstCase(context.Background(), []graph.Digraph{cyc}, 4, tc.rounds, MinAlgorithm{R: tc.rounds}, 2_000_000)
		if err != nil {
			t.Fatalf("WorstCase r=%d: %v", tc.rounds, err)
		}
		if res.WorstDistinct != tc.want {
			t.Errorf("rounds=%d: worst = %d, want %d", tc.rounds, res.WorstDistinct, tc.want)
		}
	}
}

func TestWorstCaseGuards(t *testing.T) {
	star, _ := graph.Star(3, 0)
	if _, err := WorstCase(context.Background(), nil, 2, 1, MinAlgorithm{R: 1}, 1000); err == nil {
		t.Errorf("no graphs should fail")
	}
	if _, err := WorstCase(context.Background(), []graph.Digraph{star}, 0, 1, MinAlgorithm{R: 1}, 1000); err == nil {
		t.Errorf("numValues=0 should fail")
	}
	if _, err := WorstCase(context.Background(), []graph.Digraph{star}, 2, 2, MinAlgorithm{R: 1}, 1000); err == nil {
		t.Errorf("round mismatch should fail")
	}
	if _, err := WorstCase(context.Background(), []graph.Digraph{star}, 10, 1, MinAlgorithm{R: 1}, 10); err == nil {
		t.Errorf("limit should trip")
	}
}

func TestWorstCaseDetectsValidityViolation(t *testing.T) {
	// A constant decision map violating validity must be reported.
	star, _ := graph.Star(2, 0)
	table := make(map[string]Value)
	for _, views := range allOneRoundViews([]graph.Digraph{star}, 2) {
		table[views] = 1 // always decide 1, even when all inputs are 0
	}
	dm := DecisionMap{R: 1, Table: table}
	if _, err := WorstCase(context.Background(), []graph.Digraph{star}, 2, 1, dm, 1000); err == nil {
		t.Errorf("validity violation should be reported")
	}
}

// allOneRoundViews enumerates the view keys arising in one round.
func allOneRoundViews(gs []graph.Digraph, numValues int) []string {
	n := gs[0].N()
	seen := make(map[string]bool)
	var out []string
	assignment := make([]Value, n)
	for {
		for _, g := range gs {
			for p := 0; p < n; p++ {
				v := NewView(n)
				g.In(p).ForEach(func(q int) { v[q] = assignment[q] })
				key := ViewKey(v)
				if !seen[key] {
					seen[key] = true
					out = append(out, key)
				}
			}
		}
		if !incCounter(assignment, numValues) {
			break
		}
	}
	return out
}

// pollCtx counts its Err calls and reports cancellation from call cancelAt
// on (never when cancelAt is 0): a deterministic stand-in for a cancel
// arriving mid-sweep.
type pollCtx struct {
	context.Context
	polls, cancelAt int
}

func (c *pollCtx) Err() error {
	if c.polls++; c.cancelAt > 0 && c.polls >= c.cancelAt {
		return context.Canceled
	}
	return nil
}

// The worst-case sweep polls its context once per 4096 executions: 3^3
// assignments × 3^6 sequences of the three stars is 19683 executions (4
// polls).
// Cancelled at the second poll the sweep stops there with the cause.
func TestWorstCaseCancellation(t *testing.T) {
	gens := symStars(t, 3)
	algo := MinAlgorithm{R: 6}
	uncancelled := &pollCtx{Context: context.Background()}
	res, err := WorstCase(uncancelled, gens, 3, 6, algo, 1_000_000)
	if err != nil || res.Executions != 19683 || uncancelled.polls != 4 {
		t.Fatalf("uncancelled: %d executions, %d polls, err %v; want 19683 and 4", res.Executions, uncancelled.polls, err)
	}
	cancelled := &pollCtx{Context: context.Background(), cancelAt: 2}
	if _, err := WorstCase(cancelled, gens, 3, 6, algo, 1_000_000); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled at poll 2: err %v, want context.Canceled", err)
	}
}
