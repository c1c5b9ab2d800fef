package combinat

import (
	"context"
	"testing"

	"ksettop/internal/bits"
	"ksettop/internal/graph"
	"ksettop/internal/par"
)

// bruteCoveringNumberSet is the Def 3.6 oracle with no short-circuits at
// all: min over graphs of min over P of |Out(P)|.
func bruteCoveringNumberSet(gens []graph.Digraph, i int) int {
	best := -1
	for _, g := range gens {
		n := g.N()
		bits.Combinations(n, i, func(p bits.Set) bool {
			if c := g.OutSet(p).Count(); best < 0 || c < best {
				best = c
			}
			return true
		})
	}
	return best
}

// TestCoveringNumberSetFloorShortCircuit is the regression test for the
// floor short-circuit: on a 2-generator model the min over graphs must match
// the oracle in both generator orders — in particular when the FIRST graph
// already attains the floor (the sweep skips the second graph) and when only
// the SECOND one does (the sweep must not stop early).
func TestCoveringNumberSetFloorShortCircuit(t *testing.T) {
	cyc, err := graph.Cycle(6) // cov_2 = 3 > floor
	if err != nil {
		t.Fatal(err)
	}
	star, err := graph.Star(6, 0) // two leaves cover only themselves: cov_2 = 2 = floor
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= 6; i++ {
		want := bruteCoveringNumberSet([]graph.Digraph{cyc, star}, i)
		for _, gens := range [][]graph.Digraph{{cyc, star}, {star, cyc}} {
			got, err := CoveringNumberSet(context.Background(), gens, i)
			if err != nil {
				t.Fatal(err)
			}
			if got != want {
				t.Errorf("cov_%d(%v) = %d, want %d", i, gens, got, want)
			}
		}
	}
}

// TestParallelSweepsDeterministic pins every sharded sweep to its
// single-worker result, on instances big enough to actually fan out
// (C(16,8) = 12870 ranks).
func TestParallelSweepsDeterministic(t *testing.T) {
	ring, err := graph.BidirectionalRing(16)
	if err != nil {
		t.Fatal(err)
	}
	cyc, err := graph.Cycle(16)
	if err != nil {
		t.Fatal(err)
	}
	stars2, err := graph.UnionOfStars(7, []int{0, 1})
	if err != nil {
		t.Fatal(err)
	}
	starGens, err := graph.SymClosure([]graph.Digraph{stars2})
	if err != nil {
		t.Fatal(err)
	}

	type snapshot struct {
		minDom    bits.Set
		gamma     int
		cov       []int
		gammaDist int
		maxCov    []int
		maxCovOK  []bool
	}
	capture := func() snapshot {
		var s snapshot
		s.minDom, s.gamma = MinDominatingSet(ring)
		for i := 1; i <= 16; i += 3 {
			c, err := CoveringNumber(cyc, i)
			if err != nil {
				t.Fatal(err)
			}
			s.cov = append(s.cov, c)
		}
		gd, err := DistributedDominationNumber(context.Background(), starGens)
		if err != nil {
			t.Fatal(err)
		}
		s.gammaDist = gd
		for i := 1; i <= 4; i++ {
			mc, ok, err := MaxCoveringNumberEffective(context.Background(), starGens, i)
			if err != nil {
				t.Fatal(err)
			}
			s.maxCov = append(s.maxCov, mc)
			s.maxCovOK = append(s.maxCovOK, ok)
		}
		return s
	}

	par.SetParallelism(1)
	want := capture()
	par.SetParallelism(0)
	for _, workers := range []int{2, 4, 8} {
		par.SetParallelism(workers)
		got := capture()
		par.SetParallelism(0)
		if got.minDom != want.minDom || got.gamma != want.gamma {
			t.Errorf("workers=%d: MinDominatingSet = (%v,%d), want (%v,%d)",
				workers, got.minDom, got.gamma, want.minDom, want.gamma)
		}
		for i := range want.cov {
			if got.cov[i] != want.cov[i] {
				t.Errorf("workers=%d: cov[%d] = %d, want %d", workers, i, got.cov[i], want.cov[i])
			}
		}
		if got.gammaDist != want.gammaDist {
			t.Errorf("workers=%d: γ_dist = %d, want %d", workers, got.gammaDist, want.gammaDist)
		}
		for i := range want.maxCov {
			if got.maxCov[i] != want.maxCov[i] || got.maxCovOK[i] != want.maxCovOK[i] {
				t.Errorf("workers=%d: max-cov[%d] = (%d,%v), want (%d,%v)",
					workers, i, got.maxCov[i], got.maxCovOK[i], want.maxCov[i], want.maxCovOK[i])
			}
		}
	}
}
