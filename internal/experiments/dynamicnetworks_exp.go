package experiments

import (
	"context"
	"fmt"

	"ksettop/internal/combinat"
	"ksettop/internal/graph"
	"ksettop/internal/model"
	"ksettop/internal/protocol"
	"ksettop/internal/topology"
)

// E17DynamicRotatingStars machine-checks a small Fraigniaud–Nguyen–Paz-style
// dynamic-network set-agreement family: round-based models whose per-round
// communication graph is a rotating star pattern, so the adversary's power
// comes from WHICH process the rotation can reach, not from message loss at
// large.
//
// Two sub-families, as closed-above (oblivious) models:
//
//   - muted-star: every process broadcasts except one muted process c
//     (out_c = {c}); the generator set rotates c over the first `rot`
//     processes (UnionOfStars(n, [n]∖{c}), Def 6.12 with s = n−1). With a
//     full rotation (rot = n) the model is the symmetric star-union closure:
//     γ_dist(S) = 2 and Thm 6.13 makes consensus impossible — pinned here by
//     the decision-map solver refuting it outright. With a partial rotation
//     (rot < n) some process is never muted, its value reaches everyone
//     every round, and the solver finds a consensus map — the gap between a
//     dynamic adversary that can silence anyone and one that cannot.
//   - out-star: the classic rotating broadcaster (Star(n, c), c < rot): tiny
//     in-sets, so C_A explodes combinatorially (the n = 5, rot = 2 instance
//     has ~127k facets and ~213k distinct simplexes) — the scale row for the
//     homology engines.
//
// Every row checks Thm 4.12 (C_A of a closed-above model is homologically
// (n−2)-connected) on the hybrid engine, cross-checks hybrid against the
// pure-sparse reduction on one shared level table, and — where the row is
// small enough — against the seed packed oracle. The out-star row skips the
// oracle: its dense-column fallback needs minutes on a complex the hybrid
// engine reduces in seconds, which is the regime this engine exists for.
func E17DynamicRotatingStars(ctx context.Context) (*Table, error) {
	t := &Table{
		ID:      "E17",
		Title:   "FNP-style dynamic rotating-star models: set agreement + Thm 4.12 across homology engines",
		Columns: []string{"family", "n", "rot", "gens", "facets", "verts", "γ_dist(S)", "consensus", "β̃(C_A)", "Thm 4.12", "hybrid=sparse", "oracle"},
	}
	rows := []struct {
		family string
		n, rot int
		solve  bool // run the decision-map solver on the closure
	}{
		{"out-star", 5, 2, false},
		{"muted-star", 5, 3, true},
		{"muted-star", 5, 5, true},
		{"muted-star", 6, 3, true},
		{"muted-star", 6, 6, true},
		{"muted-star", 7, 4, false},
		{"muted-star", 7, 7, false},
	}
	for _, row := range rows {
		gens, err := rotatingStarGenerators(row.family, row.n, row.rot)
		if err != nil {
			return nil, err
		}
		m, err := model.New(gens)
		if err != nil {
			return nil, err
		}
		c, err := topology.UninterpretedComplex(m.Generators())
		if err != nil {
			return nil, err
		}
		ac, _, err := c.ToAbstract()
		if err != nil {
			return nil, err
		}
		gamma, err := combinat.DistributedDominationNumber(ctx, m.Generators())
		if err != nil {
			return nil, err
		}

		// Consensus status: full rotations are symmetric star-union closures
		// (γ_dist = 2 ⇒ consensus impossible, Thm 6.13); partial rotations
		// keep a never-muted broadcaster and admit a map. The solver is the
		// judge on the rows where its one-round sweep is affordable.
		consensus := "skipped (budget)"
		if row.solve {
			all, err := m.AllGraphsCtx(ctx)
			if err != nil {
				return nil, err
			}
			res, err := protocol.SolveOneRoundCtx(ctx, all, row.n, 1, protocol.DefaultNodeBudget())
			if err != nil {
				return nil, err
			}
			wantSolvable := row.rot < row.n
			if res.Solvable {
				consensus = "solvable " + check(wantSolvable)
			} else {
				consensus = "impossible " + check(!wantSolvable)
			}
		}

		maxDim := row.n - 2
		betti, connected, enginesAgree, err := crossCheckedBetti(ctx, ac, maxDim)
		if err != nil {
			return nil, err
		}
		oracleCell := "skipped (size)"
		if row.family != "out-star" {
			if !topology.PackedHomologyCapable(ac, maxDim) {
				oracleCell = "incapable"
			} else {
				oracle, err := topology.ReducedBettiNumbersOracle(ac, maxDim)
				if err != nil {
					return nil, err
				}
				agree := len(oracle) == len(betti)
				for q := range betti {
					if agree && oracle[q] != betti[q] {
						agree = false
					}
				}
				oracleCell = check(agree)
			}
		}
		t.AddRow(row.family, row.n, row.rot, m.GeneratorCount(), ac.FacetCount(), len(ac.VertexSet()),
			gamma, consensus, fmt.Sprint(betti), check(connected), check(enginesAgree), oracleCell)
	}
	t.AddNote("muted-star rot=n is the symmetric (n−1)-star-union closure: Thm 6.13 (γ_dist = 2) forbids consensus; rot<n leaves a")
	t.AddNote("never-muted broadcaster and the solver finds a map. Thm 4.12 is checked on the hybrid engine; the out-star scale row")
	t.AddNote("skips the seed oracle (dense fallback needs minutes there) and pins hybrid against the pure-sparse reduction instead.")
	return t, nil
}

// rotatingStarGenerators builds the rotation orbit: for each muted/center
// process c < rot, the muted-star graph (everyone but c broadcasts) or the
// out-star graph (only c broadcasts).
func rotatingStarGenerators(family string, n, rot int) ([]graph.Digraph, error) {
	gens := make([]graph.Digraph, 0, rot)
	for c := 0; c < rot; c++ {
		var g graph.Digraph
		var err error
		if family == "out-star" {
			g, err = graph.Star(n, c)
		} else {
			centers := make([]int, 0, n-1)
			for p := 0; p < n; p++ {
				if p != c {
					centers = append(centers, p)
				}
			}
			g, err = graph.UnionOfStars(n, centers)
		}
		if err != nil {
			return nil, err
		}
		gens = append(gens, g)
	}
	return gens, nil
}
