package core

import (
	"context"
	"math/rand"
	"testing"
	"testing/quick"

	"ksettop/internal/graph"
	"ksettop/internal/model"
	"ksettop/internal/protocol"
)

// TestQuickRandomModelBoundConsistency is the engine-wide sanity property:
// for random small models, the best upper bound must strictly exceed the
// best lower bound (a k cannot be both solvable and impossible), literal
// γ_dist must not exceed the effective value, and the claimed upper bound
// must survive an exhaustive simulation sweep.
func TestQuickRandomModelBoundConsistency(t *testing.T) {
	cfg := &quick.Config{MaxCount: 25, Rand: rand.New(rand.NewSource(2020))}
	prop := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 3 + r.Intn(2) // n in {3,4}
		numGens := 1 + r.Intn(3)
		gens := make([]graph.Digraph, numGens)
		for i := range gens {
			g, err := graph.Random(n, 0.2+0.5*r.Float64(), r)
			if err != nil {
				return false
			}
			gens[i] = g
		}
		m, err := model.New(gens)
		if err != nil {
			return false
		}
		up, err := BestUpperOneRound(m)
		if err != nil {
			return false
		}
		lo, err := BestLowerOneRound(m)
		if err != nil {
			return false
		}
		if up.K <= lo.K {
			t.Logf("seed %d: upper %d ≤ lower %d on %v", seed, up.K, lo.K, m)
			return false
		}
		if up.K < 1 || up.K > n {
			return false
		}
		if err := VerifyUpperBySimulation(m, up, 2_000_000); err != nil {
			t.Logf("seed %d: %v", seed, err)
			return false
		}
		return true
	}
	if err := quick.Check(prop, cfg); err != nil {
		t.Errorf("random-model consistency failed: %v", err)
	}
}

// TestQuickRandomSimpleModelSolverAgreesWithGamma: on random simple models
// with n = 3 the exhaustive solver must agree exactly with the γ(G)
// characterization (Thm 3.2 + Thm 5.1): k-set agreement solvable in one
// round iff k ≥ γ(G).
func TestQuickRandomSimpleModelSolverAgreesWithGamma(t *testing.T) {
	if testing.Short() {
		t.Skip("solver sweeps skipped in -short mode")
	}
	cfg := &quick.Config{MaxCount: 10, Rand: rand.New(rand.NewSource(404))}
	prop := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		g, err := graph.Random(3, r.Float64(), r)
		if err != nil {
			return false
		}
		m, err := model.Simple(g)
		if err != nil {
			return false
		}
		up, err := BestUpperOneRound(m)
		if err != nil {
			return false
		}
		gamma := up.K // Thm 3.2: best upper for simple models is γ(G)

		var all []graph.Digraph
		if err := m.EnumerateGraphs(context.Background(), func(h graph.Digraph) bool {
			all = append(all, h)
			return true
		}); err != nil {
			return false
		}
		for k := 1; k <= 3; k++ {
			res, err := solveK(all, k)
			if err != nil {
				t.Logf("seed %d k=%d: %v", seed, k, err)
				return false
			}
			if res != (k >= gamma) {
				t.Logf("seed %d: k=%d solvable=%v but γ=%d (graph %v)", seed, k, res, gamma, g)
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, cfg); err != nil {
		t.Errorf("solver/γ agreement failed: %v", err)
	}
}

func solveK(all []graph.Digraph, k int) (bool, error) {
	res, err := protocol.SolveOneRoundCtx(context.Background(), all, k+1, k, 20_000_000)
	if err != nil {
		return false, err
	}
	return res.Solvable, nil
}

func TestVerifyLowerMultiRoundBySolver(t *testing.T) {
	// ↑cycle(4), 2 rounds: γ(G²) = 2, so consensus remains impossible for
	// oblivious algorithms (Thm 6.10).
	cyc, _ := graph.Cycle(4)
	m, _ := model.Simple(cyc)
	b, err := Bounds(context.Background(), m, 2)
	if err != nil {
		t.Fatalf("Bounds: %v", err)
	}
	lo := b.Lower
	if lo.K != 1 {
		t.Fatalf("lower = %d, want 1", lo.K)
	}
	if err := VerifyLowerMultiRoundBySolver(context.Background(), m, lo, 50_000_000); err != nil {
		t.Errorf("multi-round solver verification failed: %v", err)
	}

	// Overclaim: 2-set impossibility in 2 rounds is false (γ(G²) = 2 means
	// 2-set IS solvable); the solver must refute it.
	wrong := lo
	wrong.K = 2
	if err := VerifyLowerMultiRoundBySolver(context.Background(), m, wrong, 50_000_000); err == nil {
		t.Errorf("overclaimed multi-round bound should fail verification")
	}

	// Vacuous bound passes.
	vac := lo
	vac.K = 0
	if err := VerifyLowerMultiRoundBySolver(context.Background(), m, vac, 10); err != nil {
		t.Errorf("vacuous bound should verify: %v", err)
	}

	// Star-union model, 2 rounds (Thm 6.13: impossibility persists).
	sm, _ := model.UnionOfStarsModel(3, 1)
	sb, err := Bounds(context.Background(), sm, 2)
	if err != nil {
		t.Fatalf("Bounds: %v", err)
	}
	slo := sb.Lower
	if slo.K != 2 {
		t.Fatalf("star lower = %d, want 2", slo.K)
	}
	if err := VerifyLowerMultiRoundBySolver(context.Background(), sm, slo, 50_000_000); err != nil {
		t.Errorf("star-union 2-round verification failed: %v", err)
	}
}
