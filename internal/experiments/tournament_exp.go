package experiments

import (
	"context"
	"fmt"

	"ksettop/internal/core"
	"ksettop/internal/graph"
	"ksettop/internal/model"
	"ksettop/internal/protocol"
	"ksettop/internal/topology"
)

// E13TournamentGap goes beyond the paper: on the tournament model of Afek
// and Gafni (§2.1; equivalent to wait-free read-write shared memory), the
// Thm 5.4 lower bound is NOT tight. The paper's formula yields only 1-set
// impossibility on n = 3, while exhaustive decision-map search proves 2-set
// agreement impossible in one round — matching the wait-free intuition that
// k-set agreement needs k ≥ n. The protocol complex is homologically
// 1-connected, so the topological route ([HKR13] Thm 10.3.1) does explain
// the stronger impossibility; it is the combinatorial formula that loses
// precision here.
func E13TournamentGap(ctx context.Context) (*Table, error) {
	t := &Table{
		ID:      "E13",
		Title:   "Beyond the paper: Thm 5.4 is not tight on the tournament model (n=3)",
		Columns: []string{"claim", "value", "expected", "status"},
	}
	m, err := model.TournamentModel(3)
	if err != nil {
		return nil, err
	}
	b, err := core.Bounds(ctx, m, 1)
	if err != nil {
		return nil, err
	}
	up, lo := b.Best().Upper, b.Lower
	t.AddRow("best upper bound (Cor 3.5)", fmt.Sprintf("%d-set", up.K), "3-set", check(up.K == 3))
	t.AddRow("Thm 5.4 lower bound", fmt.Sprintf("%d-set", lo.K), "1-set", check(lo.K == 1))

	var all []graph.Digraph
	if err := m.EnumerateGraphs(ctx, func(g graph.Digraph) bool {
		all = append(all, g)
		return true
	}); err != nil {
		return nil, err
	}
	t.AddRow("model closure size", len(all), "27 (= 3 states per pair)", check(len(all) == 27))

	res2, err := protocol.SolveOneRoundCtx(ctx, all, 3, 2, protocol.DefaultNodeBudget())
	if err != nil {
		return nil, err
	}
	t.AddRow("2-set solvable by ANY oblivious map (exhaustive)", res2.Solvable, "false", check(!res2.Solvable))

	res3, err := protocol.SolveOneRoundCtx(ctx, all, 2, 3, protocol.DefaultNodeBudget())
	if err != nil {
		return nil, err
	}
	t.AddRow("3-set solvable (sanity)", res3.Solvable, "true", check(res3.Solvable))

	// The topological route does see the stronger bound: the one-round
	// protocol complex over 3 values is 1-connected.
	inputs, err := topology.InputAssignments(3, 3)
	if err != nil {
		return nil, err
	}
	pc, err := topology.ProtocolComplexOneRound(ctx, m.Generators(), inputs)
	if err != nil {
		return nil, err
	}
	ac, _, err := pc.ToAbstract()
	if err != nil {
		return nil, err
	}
	ok, betti, err := topology.IsHomologicallyKConnected(ctx, ac, 1)
	if err != nil {
		return nil, err
	}
	t.AddRow("protocol complex 1-connected (GF2 betti)", fmt.Sprint(betti), "[0 0]", check(ok))

	okInt, ih, err := topology.IsIntegrallyKConnected(ac, 1)
	if err != nil {
		return nil, err
	}
	t.AddRow("protocol complex 1-connected (ℤ homology)", ih.String(), "trivial up to 1", check(okInt))

	t.AddNote("the gap shows Thm 5.4's max-covering analysis can undercount indistinguishability;")
	t.AddNote("the topological premise (connectivity) and the exhaustive search both certify 2-set impossibility,")
	t.AddNote("consistent with the Afek–Gafni equivalence to wait-free shared memory (k-set needs k ≥ n).")
	return t, nil
}
