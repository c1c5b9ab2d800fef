package core

import (
	"context"
	"fmt"
	"maps"
	"math/rand"
	"slices"

	"ksettop/internal/bits"
	"ksettop/internal/combinat"
	"ksettop/internal/graph"
	"ksettop/internal/model"
	"ksettop/internal/protocol"
	"ksettop/internal/topology"
)

// VerifyUpperBySimulation is VerifyUpperBySimulationCtx on
// context.Background(), kept for perfbench.
func VerifyUpperBySimulation(m *model.ClosedAbove, bound UpperBound, limit int) error {
	return VerifyUpperBySimulationCtx(context.Background(), m, bound, limit)
}

// VerifyUpperBySimulationCtx checks an upper bound empirically: it runs the
// paper's algorithm (DominatingSetMin for Thm 3.2 on simple models,
// MinAlgorithm otherwise) over every initial assignment on k+1 values and
// every graph of the FULL model closure for the given rounds, and confirms
// that at most bound.K distinct values are ever decided. The enumeration
// and the sweep poll ctx.
func VerifyUpperBySimulationCtx(ctx context.Context, m *model.ClosedAbove, bound UpperBound, limit int) error {
	var algo protocol.Algorithm
	if bound.Theorem == "Thm 3.2" && m.IsSimple() && bound.Rounds == 1 {
		set, _ := combinat.MinDominatingSet(m.Generators()[0])
		algo = protocol.DominatingSetMin{Dominating: set}
	} else {
		algo = protocol.MinAlgorithm{R: bound.Rounds}
	}
	numValues := bound.K + 1
	if numValues > m.N() {
		numValues = m.N()
	}
	if numValues < 2 {
		numValues = 2
	}

	// Exhaustive sweep over the full closure when feasible; otherwise sweep
	// generator sequences exhaustively and add a randomized sample of full
	// closure executions (extra edges can both merge and split min-decision
	// sets, so generators alone are not provably worst-case).
	all, err := allModelGraphs(ctx, m)
	if err != nil {
		return err
	}
	space := len(all)
	cost := 1
	for i := 0; i < bound.Rounds; i++ {
		cost *= space
		if cost > limit {
			break
		}
	}
	assignments := 1
	for i := 0; i < m.N(); i++ {
		assignments *= numValues
	}
	sweep := all
	if cost > limit || cost*assignments > limit {
		sweep = m.Generators()
	}
	res, err := protocol.WorstCase(ctx, sweep, numValues, bound.Rounds, algo, limit)
	if err != nil {
		return fmt.Errorf("core: simulation sweep: %w", err)
	}
	if res.WorstDistinct > bound.K {
		return fmt.Errorf("core: %s claims %d-set agreement but simulation decided %d values (witness %v)",
			bound.Theorem, bound.K, res.WorstDistinct, res.Witness.Initial)
	}
	if len(sweep) != len(all) {
		if err := randomizedUpperCheck(m, bound, algo, numValues); err != nil {
			return err
		}
	}
	return nil
}

// randomizedUpperCheck samples random full-closure executions when the
// exhaustive sweep had to fall back to generators.
func randomizedUpperCheck(m *model.ClosedAbove, bound UpperBound, algo protocol.Algorithm, numValues int) error {
	rng := rand.New(rand.NewSource(20200612)) // deterministic: this is a test oracle
	n := m.N()
	for trial := 0; trial < 2000; trial++ {
		graphs := make([]graph.Digraph, bound.Rounds)
		for r := range graphs {
			graphs[r] = m.SampleGraph(rng, rng.Float64()*0.5)
		}
		initial := make([]protocol.Value, n)
		for p := range initial {
			initial[p] = rng.Intn(numValues)
		}
		res, err := protocol.Run(protocol.Execution{Graphs: graphs, Initial: initial}, algo)
		if err != nil {
			return fmt.Errorf("core: randomized check: %w", err)
		}
		if d := res.DistinctCount(); d > bound.K {
			return fmt.Errorf("core: %s claims %d-set agreement but a sampled execution decided %d values",
				bound.Theorem, bound.K, d)
		}
	}
	return nil
}

// VerifyLowerBySolver is VerifyLowerBySolverCtx on context.Background(),
// kept for perfbench.
func VerifyLowerBySolver(m *model.ClosedAbove, bound LowerBound, nodeBudget int) error {
	return VerifyLowerBySolverCtx(context.Background(), m, bound, nodeBudget)
}

// VerifyLowerBySolverCtx checks a one-round impossibility exhaustively: no
// oblivious decision map over k+1 values may solve K-set agreement on the
// full closure. Because one-round full-information protocols are oblivious,
// this verifies the bound for all algorithms. A checkpoint runner carried
// by ctx makes the search durable (see protocol.SolveOneRoundCtx).
func VerifyLowerBySolverCtx(ctx context.Context, m *model.ClosedAbove, bound LowerBound, nodeBudget int) error {
	if bound.K < 1 {
		return nil // vacuous bound, nothing to check
	}
	if bound.Rounds != 1 {
		return fmt.Errorf("core: solver verification is one-round only (got %d)", bound.Rounds)
	}
	all, err := allModelGraphs(ctx, m)
	if err != nil {
		return err
	}
	res, err := protocol.SolveOneRoundCtx(ctx, all, bound.K+1, bound.K, nodeBudget)
	if err != nil {
		return fmt.Errorf("core: solver: %w", err)
	}
	if res.Solvable {
		return fmt.Errorf("core: %s claims %d-set agreement impossible, but a decision map exists",
			bound.Theorem, bound.K)
	}
	return nil
}

// VerifyLowerMultiRoundBySolver checks an r-round oblivious impossibility
// (Thm 6.10/6.11) exhaustively. After r rounds an oblivious view is exactly
// the in-neighborhood of the product of the round graphs, so the r-round
// question is the one-round question over product graphs: the
// ProductAdversary sweep.
func VerifyLowerMultiRoundBySolver(ctx context.Context, m *model.ClosedAbove, bound LowerBound, nodeBudget int) error {
	if bound.K < 1 {
		return nil
	}
	if bound.Rounds < 1 {
		return fmt.Errorf("core: bound has no round count")
	}
	if bound.Rounds == 1 {
		return VerifyLowerBySolverCtx(ctx, m, LowerBound{K: bound.K, Rounds: 1, Theorem: bound.Theorem}, nodeBudget)
	}
	effective, err := ProductAdversary(ctx, m, bound.Rounds)
	if err != nil {
		return err
	}
	res, err := protocol.SolveOneRoundCtx(ctx, effective, bound.K+1, bound.K, nodeBudget)
	if err != nil {
		return fmt.Errorf("core: solver: %w", err)
	}
	if res.Solvable {
		return fmt.Errorf("core: %s claims %d-set agreement impossible in %d rounds, but an oblivious decision map exists",
			bound.Theorem, bound.K, bound.Rounds)
	}
	return nil
}

// ProductAdversary is the r-round oblivious adversary of the §6.1
// subcomplex argument: products of r−1 generators with the ENTIRE closure
// as the last factor, deduplicated and sorted by key so the solver input is
// deterministic. It is a subset of the true adversary space, so an
// impossibility over it transfers to the full model a fortiori.
func ProductAdversary(ctx context.Context, m *model.ClosedAbove, rounds int) ([]graph.Digraph, error) {
	prefixes, err := graph.ProductSet(ctx, m.Generators(), rounds-1)
	if err != nil {
		return nil, err
	}
	closure, err := allModelGraphs(ctx, m)
	if err != nil {
		return nil, err
	}
	seen := make(map[string]graph.Digraph, len(prefixes)*len(closure))
	for _, p := range prefixes {
		for _, h := range closure {
			prod, err := graph.Product(p, h)
			if err != nil {
				return nil, err
			}
			seen[prod.Key()] = prod
		}
	}
	keys := slices.Sorted(maps.Keys(seen))
	out := make([]graph.Digraph, len(keys))
	for i, k := range keys {
		out[i] = seen[k]
	}
	return out, nil
}

// VerifyLowerByTopology checks the connectivity premise behind a one-round
// impossibility: the paper derives "K-set agreement unsolvable" from the
// protocol complex being (K−1)-connected ([HKR13] Thm 10.3.1). This builds
// the one-round protocol complex over K+1 input values and verifies
// homological (K−1)-connectivity — a machine-checkable necessary condition
// of the paper's claim: vanishing reduced homology is implied by, but does
// not imply, (K−1)-connectivity, so a pass corroborates the claim and a
// failure would refute it.
func VerifyLowerByTopology(ctx context.Context, m *model.ClosedAbove, bound LowerBound) error {
	if bound.K < 1 {
		return nil
	}
	if bound.Rounds != 1 {
		return fmt.Errorf("core: topology verification is one-round only (got %d)", bound.Rounds)
	}
	pc, err := ProtocolComplexOneRoundCtx(ctx, m, bound.K+1)
	if err != nil {
		return err
	}
	ac, _, err := pc.ToAbstract()
	if err != nil {
		return err
	}
	ok, betti, err := topology.IsHomologicallyKConnected(ctx, ac, bound.K-1)
	if err != nil {
		return err
	}
	if !ok {
		return fmt.Errorf("core: %s expects a %d-connected protocol complex, got betti %v",
			bound.Theorem, bound.K-1, betti)
	}
	return nil
}

// ProtocolComplexOneRound is ProtocolComplexOneRoundCtx on
// context.Background(), kept for perfbench.
func ProtocolComplexOneRound(m *model.ClosedAbove, numValues int) (*topology.Complex[topology.IView], error) {
	return ProtocolComplexOneRoundCtx(context.Background(), m, numValues)
}

// ProtocolComplexOneRoundCtx builds the model's one-round protocol complex
// over numValues input values (the interpretation of the uninterpreted
// complex on the input pseudosphere, Def 4.14). The build polls ctx.
func ProtocolComplexOneRoundCtx(ctx context.Context, m *model.ClosedAbove, numValues int) (*topology.Complex[topology.IView], error) {
	inputs, err := topology.InputAssignments(m.N(), numValues)
	if err != nil {
		return nil, err
	}
	return topology.ProtocolComplexOneRound(ctx, m.Generators(), inputs)
}

// UninterpretedComplexOf builds C_A (Def 4.4) for the model.
func UninterpretedComplexOf(m *model.ClosedAbove) (*topology.Complex[bits.Set], error) {
	return topology.UninterpretedComplex(m.Generators())
}

// VerifyUninterpretedConnectivity checks Thm 4.12 on the model: C_A must be
// homologically (n−2)-connected.
func VerifyUninterpretedConnectivity(ctx context.Context, m *model.ClosedAbove) error {
	c, err := UninterpretedComplexOf(m)
	if err != nil {
		return err
	}
	ac, _, err := c.ToAbstract()
	if err != nil {
		return err
	}
	ok, betti, err := topology.IsHomologicallyKConnected(ctx, ac, m.N()-2)
	if err != nil {
		return err
	}
	if !ok {
		return fmt.Errorf("core: Thm 4.12 expects (n−2)-connectivity, got betti %v", betti)
	}
	return nil
}

// allModelGraphs materializes the model closure through the sharded
// streaming enumeration (rank order, so the slice is identical across
// parallelism settings).
func allModelGraphs(ctx context.Context, m *model.ClosedAbove) ([]graph.Digraph, error) {
	all, err := m.AllGraphsCtx(ctx)
	if err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	return all, nil
}
