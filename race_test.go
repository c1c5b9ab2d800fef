package ksettop

import (
	"context"
	"sync"
	"testing"

	"ksettop/internal/combinat"
	"ksettop/internal/graph"
	"ksettop/internal/homology"
	"ksettop/internal/model"
	"ksettop/internal/par"
	"ksettop/internal/protocol"
	"ksettop/internal/topology"
)

// TestConcurrentSweepsRaceFree hammers the sharded engine from several
// client goroutines at once: DistributedDominationNumber (par fan-out over
// combination shards) concurrently with SolveOneRound (hash-interned view
// build), SymClosure (orbit search) and ReducedBettiNumbers
// (block-sharded GF(2) column reduction). Run under -race (the CI does)
// this pins the engine's only shared state to its atomics; it also checks
// every result against the single-client answer.
func TestConcurrentSweepsRaceFree(t *testing.T) {
	m, err := model.UnionOfStarsModel(6, 2)
	if err != nil {
		t.Fatal(err)
	}
	gens := m.Generators()
	wantGamma, err := combinat.DistributedDominationNumber(context.Background(), gens)
	if err != nil {
		t.Fatal(err)
	}

	solver, err := model.NonEmptyKernelModel(3)
	if err != nil {
		t.Fatal(err)
	}
	var all []graph.Digraph
	if err := solver.EnumerateGraphs(context.Background(), func(g graph.Digraph) bool {
		all = append(all, g)
		return true
	}); err != nil {
		t.Fatal(err)
	}

	stars, err := graph.UnionOfStars(7, []int{0, 1})
	if err != nil {
		t.Fatal(err)
	}

	// The n=4 star closure with the solver's probe limit forced low: the
	// work-stealing search phase (decomposition, shared frozen clause
	// store, task deque, rank-ordered reduction) genuinely engages, and
	// several clients drive it concurrently with everything else.
	solver4, err := model.NonEmptyKernelModel(4)
	if err != nil {
		t.Fatal(err)
	}
	all4, err := solver4.AllGraphs()
	if err != nil {
		t.Fatal(err)
	}
	protocol.SetSearchProbeLimit(16)
	defer protocol.SetSearchProbeLimit(0)
	wantPar, err := protocol.SolveOneRoundCtx(context.Background(), all4, 4, 3, 50_000_000)
	if err != nil {
		t.Fatal(err)
	}
	if wantPar.Solvable || wantPar.Stats.Tasks == 0 {
		t.Fatalf("expected an UNSAT work-stealing run, got %+v", wantPar)
	}

	// A 7-color × 3-view pseudosphere: the dim-5 level has C(7,6)·3^6 =
	// 5103 simplexes, above the par engine's inline threshold, so with the
	// pinned worker count the hybrid ∂_5 pivot pass and block reduction
	// genuinely fan out — four clients interleave the sharded reduction,
	// the pooled hybrid reducers, the level builders and the other sweeps
	// on the same pool. Join of 7 discrete sets: β̃_0..β̃_4 = 0.
	par.SetParallelism(4)
	defer par.SetParallelism(0)
	psComplex, err := topology.PseudosphereComplex([]int{3, 3, 3, 3, 3, 3, 3})
	if err != nil {
		t.Fatal(err)
	}

	const clients = 4
	var wg sync.WaitGroup
	errs := make(chan error, clients*6)
	for c := 0; c < clients; c++ {
		wg.Add(6)
		go func() {
			defer wg.Done()
			for i := 0; i < 2; i++ {
				res, err := protocol.SolveOneRoundCtx(context.Background(), all4, 4, 3, 50_000_000)
				if err != nil {
					errs <- err
					return
				}
				if res != wantPar {
					t.Errorf("concurrent work-stealing solve %+v differs from pinned %+v", res, wantPar)
				}
			}
		}()
		go func() {
			defer wg.Done()
			for i := 0; i < 3; i++ {
				got, err := combinat.DistributedDominationNumber(context.Background(), gens)
				if err != nil {
					errs <- err
					return
				}
				if got != wantGamma {
					t.Errorf("concurrent γ_dist = %d, want %d", got, wantGamma)
				}
			}
		}()
		go func() {
			defer wg.Done()
			for i := 0; i < 3; i++ {
				res, err := protocol.SolveOneRoundCtx(context.Background(), all, 3, 2, 50_000_000)
				if err != nil {
					errs <- err
					return
				}
				if res.Solvable {
					t.Error("concurrent solver found a decision map; want impossibility")
				}
			}
		}()
		go func() {
			defer wg.Done()
			closure, err := graph.SymClosure([]graph.Digraph{stars})
			if err != nil {
				errs <- err
				return
			}
			if len(closure) != 21 {
				t.Errorf("concurrent SymClosure has %d graphs, want 21", len(closure))
			}
		}()
		go func() {
			defer wg.Done()
			for i := 0; i < 2; i++ {
				// The default hybrid engine: apparent pass + block-sharded
				// hybrid reduction, drawing pooled reducers concurrently
				// with the goroutine below.
				betti, err := topology.ReducedBettiNumbersCtx(context.Background(), psComplex, 4)
				if err != nil {
					errs <- err
					return
				}
				for q, b := range betti {
					if b != 0 {
						t.Errorf("concurrent homology: β̃_%d = %d, want 0", q, b)
					}
				}
			}
		}()
		go func() {
			defer wg.Done()
			// The pure-sparse cross-check engine on the same complex, racing
			// the hybrid clients above for the worker pool: both must agree
			// while the reducer pool recycles state under contention.
			cc, err := homology.NewChainComplex(psComplex, 5)
			if err != nil {
				errs <- err
				return
			}
			betti, err := cc.ReducedBettiSparse(4)
			if err != nil {
				errs <- err
				return
			}
			for q, b := range betti {
				if b != 0 {
					t.Errorf("concurrent sparse homology: β̃_%d = %d, want 0", q, b)
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}
