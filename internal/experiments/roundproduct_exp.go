package experiments

import (
	"fmt"
	"sort"
	"strings"

	"ksettop/internal/core"
	"ksettop/internal/graph"
	"ksettop/internal/model"
	"ksettop/internal/protocol"
	"ksettop/internal/runctx"
)

// E16RoundProducts exercises the solver's work-stealing learning engine on
// round-product impossibility instances (the Thm 6.10/6.11 reduction:
// r-round oblivious impossibility on a model is one-round impossibility
// over products of r−1 generators with the whole closure). The cycle rows
// machine-check γ(Gʳ)-driven multi-round consensus impossibility; the star
// rows pin the engine's deterministic node accounting on the n=4 product
// sweep and document the gap to the sequential oracle, which exhausts a
// 100k-node budget on an instance the learning engine refutes in a few
// hundred nodes (Nodes and the learned-clause count are identical for
// every -parallelism setting — the tables below render byte-identically at
// any worker count).
func E16RoundProducts() (*Table, error) {
	t := &Table{
		ID:      "E16",
		Title:   "Round-product impossibility instances on the parallel solver engine",
		Columns: []string{"instance", "value", "expected", "status"},
	}

	// Oblivious multi-round consensus impossibility on directed cycles:
	// γ(C_n^r) stays ≥ 2 for these rounds, so consensus remains unsolvable.
	for _, row := range []struct {
		n, rounds int
	}{
		{4, 2},
		{5, 2},
		{5, 3},
	} {
		cyc, err := graph.Cycle(row.n)
		if err != nil {
			return nil, err
		}
		m, err := model.Simple(cyc)
		if err != nil {
			return nil, err
		}
		bound := core.LowerBound{K: 1, Rounds: row.rounds, Theorem: "Thm 6.10"}
		status := "impossible"
		if err := core.VerifyLowerMultiRoundBySolver(m, bound, protocol.DefaultNodeBudget()); err != nil {
			status = "FAIL: " + err.Error()
		}
		t.AddRow(fmt.Sprintf("↑C%d, %d-round oblivious consensus (product sweep)", row.n, row.rounds),
			status, "impossible", check(status == "impossible"))
	}

	// The n=4 star model under the 2-round product sweep: products of the
	// star generators with the full closure. The product graphs' in-set
	// structure collapses to the one-round instance (624 views), and 3-set
	// agreement stays impossible.
	star4, err := model.NonEmptyKernelModel(4)
	if err != nil {
		return nil, err
	}
	prods, err := productAdversary(star4, 2)
	if err != nil {
		return nil, err
	}
	res, err := protocol.SolveOneRound(prods, 4, 3, protocol.DefaultNodeBudget())
	if err != nil {
		return nil, err
	}
	t.AddRow("star n=4, 2-round products: 3-set solvable", res.Solvable, "false", check(!res.Solvable))
	t.AddRow("star n=4 products: distinct views", res.Views, "624 (= one-round instance)", check(res.Views == 624))
	t.AddRow("parallel engine: search nodes (deterministic)", res.Nodes, "≤ 1000 (conflict learning)", check(res.Nodes > 0 && res.Nodes <= 1000))
	t.AddRow("parallel engine: learned conflict clauses", res.Stats.SharedNogoods+res.Stats.TaskNogoods, "> 0", check(res.Stats.SharedNogoods+res.Stats.TaskNogoods > 0))

	// The same instance on the sequential oracle with a 100k-node budget:
	// plain backtracking exhausts it — the learning engine is the
	// difference between milliseconds and (extrapolated) minutes here.
	_, seqErr := protocol.SolveOneRoundSeq(runctx.Base(), prods, 4, 3, 100_000)
	oracleCapped := seqErr != nil && strings.Contains(seqErr.Error(), "node budget")
	t.AddRow("seq oracle on the same instance, 100k-node budget", fmt.Sprint(seqErr), "budget exhausted", check(oracleCapped))

	// Cross-check: on a product instance the oracle CAN finish (the 2-round
	// ↑C5 sweep propagates to refutation almost immediately), both engines
	// agree.
	cyc5, err := graph.Cycle(5)
	if err != nil {
		return nil, err
	}
	c5m, err := model.Simple(cyc5)
	if err != nil {
		return nil, err
	}
	c5prods, err := productAdversary(c5m, 2)
	if err != nil {
		return nil, err
	}
	seqRes, err := protocol.SolveOneRoundSeq(runctx.Base(), c5prods, 2, 1, protocol.DefaultNodeBudget())
	if err != nil {
		return nil, err
	}
	parRes, err := protocol.SolveOneRound(c5prods, 2, 1, protocol.DefaultNodeBudget())
	if err != nil {
		return nil, err
	}
	agree := seqRes.Solvable == parRes.Solvable
	t.AddRow("↑C5 r=2: engines agree (seq vs parallel)", agree, "true", check(agree))

	t.AddNote("product sweeps follow §6.1: prefixes of r−1 generators × the full closure, a subset of the true")
	t.AddNote("adversary, so impossibility transfers a fortiori; node counts are pinned across -parallelism.")
	return t, nil
}

// productAdversary builds the deduplicated, deterministically-ordered
// product sweep of r−1 generator prefixes with the model's full closure
// (the VerifyLowerMultiRoundBySolver adversary, exposed for direct solver
// runs).
func productAdversary(m *model.ClosedAbove, rounds int) ([]graph.Digraph, error) {
	prefixes, err := graph.ProductSet(m.Generators(), rounds-1)
	if err != nil {
		return nil, err
	}
	var closure []graph.Digraph
	if err := m.EnumerateGraphs(func(g graph.Digraph) bool {
		closure = append(closure, g)
		return true
	}); err != nil {
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
	keys := make([]string, 0, len(seen))
	for k := range seen {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	out := make([]graph.Digraph, 0, len(keys))
	for _, k := range keys {
		out = append(out, seen[k])
	}
	return out, nil
}
