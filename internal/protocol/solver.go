package protocol

import (
	"context"
	"fmt"
	"math"

	"ksettop/internal/bits"
	"ksettop/internal/graph"
	"ksettop/internal/obs"
	"ksettop/internal/par"
)

var (
	obsSolves = obs.DefaultRegistry().Counter("kset_solver_solves_total",
		"SolveOneRound invocations")
	obsSolveNodes = obs.DefaultRegistry().Counter("kset_solver_nodes_total",
		"deterministic search nodes accounted across all solves")
)

// This file is the entry layer of the decision-map solver. The engine is
// layered across four files:
//
//	solver.go          input validation, table-build orchestration and the
//	                   SolveOneRound / SolveOneRoundSeq entries
//	solver_tables.go   interning sweeps and flat search tables
//	solver_state.go    backtracking state + nogood store
//	solver_search.go   sequential oracle and learning DFS
//	solver_parallel.go probe / decompose / work-steal / reduce engine
//	                   and the DefaultNodeBudget config

// SolveResult is the outcome of an exhaustive decision-map search.
type SolveResult struct {
	// Solvable reports whether some oblivious one-round decision map solves
	// k-set agreement over the swept executions.
	Solvable bool
	// Map holds a solving decision map when Solvable. Both engines return
	// the lexicographically-first witness under the shared branch order, so
	// the map is identical across engines and parallelism settings.
	Map *DecisionMap
	// Views is the number of distinct flattened views.
	Views int
	// Executions is the number of constraint executions.
	Executions int
	// Nodes is the number of search nodes explored, under the active
	// engine's deterministic accounting (identical for every -parallelism).
	Nodes int
	// Stats details the parallel engine's per-phase accounting.
	Stats SearchStats
}

// SolveOneRoundCtx decides, by exhaustive search over all oblivious decision
// maps, whether k-set agreement is solvable in one round when the adversary
// plays graphs from roundGraphs and initial values range over
// [0, numValues).
//
// Soundness notes:
//   - If the search fails over a SUBSET of the model's graphs, it fails over
//     the model a fortiori, so passing just the generators proves
//     impossibility for the whole closed-above model. Since one-round
//     full-information protocols are oblivious (§5), the impossibility
//     applies to all algorithms.
//   - If the search succeeds, the map solves k-set agreement over exactly
//     the swept graphs; pass the full closure (model.EnumerateGraphs) to
//     certify solvability on the model.
//   - Restricting decisions to values present in the view is WLOG for
//     numValues ≥ 2: any value outside the view fails validity in some
//     execution extending the view.
//
// To verify multi-round *oblivious* impossibility (Thm 6.10/6.11), pass the
// round-r product graphs: after r rounds a flattened view is determined by
// the product graph's in-neighborhoods, so the r-round oblivious question is
// exactly this one-round question on S^r.
//
// The assignments × graphs constraint sweep interns every view once and
// writes every constraint once, in one rank-ordered pass that is the same
// at every parallelism setting, and the search phase runs on the work-stealing
// learning engine, whose rank-ordered reduction keeps the whole SolveResult
// identical to a sequential run of the same engine for every parallelism
// setting (see solver_parallel.go). SolveOneRoundSeq is its sequential
// reference.
//
// The search is exponential; nodeBudget bounds explored nodes (error when
// exhausted). Cancellation or deadline expiry of ctx aborts the search
// cooperatively (the table build within 4096 ranks, the probe and task
// sweep within ~128 nodes) and returns a wrapped context error. Runs that
// complete are byte-identical to uncancelled runs.
func SolveOneRoundCtx(ctx context.Context, roundGraphs []graph.Digraph, numValues, k, nodeBudget int) (SolveResult, error) {
	return solveOneRound(ctx, roundGraphs, numValues, k, nodeBudget, searchLearning)
}

// SolveOneRoundSeq is SolveOneRoundCtx on the seed sequential backtracking
// oracle (searchSeq): plain forward checking, no learning, no
// decomposition. It is the independent reference the learning engine is
// cross-checked against; it shares the table build and honours ctx at the
// same polling granularity. Stats stay zero (Nodes carries the count).
func SolveOneRoundSeq(ctx context.Context, roundGraphs []graph.Digraph, numValues, k, nodeBudget int) (SolveResult, error) {
	return solveOneRound(ctx, roundGraphs, numValues, k, nodeBudget, searchSequential)
}

// searchFunc runs the search phase over the assembled tables and fills in
// res's outcome and node accounting.
type searchFunc func(ctx context.Context, t *solveTables, nodeBudget int, res *SolveResult) error

// searchLearning is the production search phase: the work-stealing
// learning engine of solver_parallel.go.
func searchLearning(ctx context.Context, t *solveTables, nodeBudget int, res *SolveResult) error {
	out, err := solveParallel(ctx, t, nodeBudget)
	res.Nodes = out.nodes
	res.Stats = out.stats
	if err != nil {
		return err
	}
	if out.solved {
		res.Solvable = true
		res.Map = t.decisionMap(out.decided)
	}
	return nil
}

// searchSequential is the reference search phase: the seed sequential
// oracle, polling ctx through a bound Ctl.
func searchSequential(ctx context.Context, t *solveTables, nodeBudget int, res *SolveResult) error {
	s := newCSPState(t, nil, nil)
	var stop func() bool
	if ctx != nil && ctx.Done() != nil {
		seqCtl := &par.Ctl{}
		release := seqCtl.Bind(ctx)
		defer release()
		stop = seqCtl.Stopped
	}
	solved, err := s.searchSeq(&res.Nodes, nodeBudget, stop)
	if err != nil {
		if err == errSolveCancelled {
			return cancelCause(nil, ctx)
		}
		return err
	}
	if solved {
		res.Solvable = true
		res.Map = t.decisionMap(s.decided)
	}
	return nil
}

// MaxSolverValues is the most input values the decision-map solver accepts:
// a view's per-value decision state is a 16-bit mask.
const MaxSolverValues = 16

// solveOneRound validates the input, builds the search tables and runs the
// given search phase over them.
func solveOneRound(ctx context.Context, roundGraphs []graph.Digraph, numValues, k, nodeBudget int, search searchFunc) (SolveResult, error) {
	if len(roundGraphs) == 0 {
		return SolveResult{}, fmt.Errorf("protocol: no graphs to solve over")
	}
	if numValues < 2 {
		return SolveResult{}, fmt.Errorf("protocol: solver needs ≥2 values, got %d", numValues)
	}
	if numValues > MaxSolverValues {
		return SolveResult{}, fmt.Errorf("protocol: solver supports ≤%d values, got %d", MaxSolverValues, numValues)
	}
	if k < 1 {
		return SolveResult{}, fmt.Errorf("protocol: k %d must be ≥ 1", k)
	}
	n := roundGraphs[0].N()
	obsSolves.Inc()
	ctx, solveSpan := obs.StartSpan(ctx, "solver.solve")
	solveSpan.SetInt("graphs", int64(len(roundGraphs)))
	solveSpan.SetInt("values", int64(numValues))
	solveSpan.SetInt("k", int64(k))
	defer solveSpan.End()
	numAssignments := 1
	for i := 0; i < n; i++ {
		numAssignments *= numValues
		if numAssignments > 1<<20 {
			return SolveResult{}, fmt.Errorf("protocol: %d^%d assignments too many", numValues, n)
		}
	}

	// Build the view universe and one execution constraint per rank of the
	// space assignments × lists. What shrinks hard instances is
	// newSolveInput's list dedup; the ranks left are distinct constraints
	// (solver_tables.go says why), so no constraint set is kept. Views
	// intern through 64-bit hashes with full content comparison, and the
	// constraint CSR is sized exactly before the sweep.
	in := newSolveInput(roundGraphs, numValues)
	total := int64(numAssignments) * int64(in.lists.count())
	if entries := int64(numAssignments) * int64(len(in.lists.arena)); entries > math.MaxInt32 {
		return SolveResult{}, fmt.Errorf("protocol: %d constraint entries exceed the solver's int32 table range", entries)
	}
	var views []View
	var consOffs, consViews []int32
	tableCtx, tableSpan := obs.StartSpan(ctx, "solver.tables")
	defer tableSpan.End() // idempotent: records at the explicit End below
	tableCtl := &par.Ctl{}
	if err := par.ForEachShardN(tableCtx, total, 1, tableCtl, func(_ int, _, to int64, ctl *par.Ctl) {
		views, consOffs, consViews = buildSolveTables(in, to, ctl.Stopped)
	}); err != nil || consOffs == nil {
		return SolveResult{}, cancelCause(tableCtl, ctx)
	}

	tableSpan.SetInt("views", int64(len(views)))
	tableSpan.SetInt("constraints", int64(len(consOffs)-1))
	tableSpan.End()

	res := SolveResult{Views: len(views), Executions: numAssignments * len(roundGraphs)}

	t := assembleTables(k, numValues, views, consOffs, consViews)
	if err := search(ctx, t, nodeBudget, &res); err != nil {
		return res, err
	}
	obsSolveNodes.Add(uint64(res.Nodes))
	solveSpan.SetInt("nodes", int64(res.Nodes))
	solveSpan.SetInt("solvable", boolInt(res.Solvable))
	return res, nil
}

// newSolveInput collects the table build's read-only context: the distinct
// in-neighborhoods across roundGraphs and the distinct sorted lists of
// in-set ids that the graphs induce.
func newSolveInput(roundGraphs []graph.Digraph, numValues int) solveInput {
	n := roundGraphs[0].N()
	// The view of process p under graph g depends only on In_g(p) and the
	// assignment, so the distinct in-neighborhoods across all graphs are
	// collected once up front: per assignment, each distinct in-set is
	// flattened and interned exactly once instead of n×|graphs| times.
	//
	// A graph enters a constraint only through its SET of in-neighborhoods:
	// two graphs with the same sorted-unique in-set-id list induce identical
	// constraints under every assignment. Closures are full of such
	// duplicates (e.g. the n=4 star closure has 1695 graphs but only 447
	// distinct lists), so the per-assignment sweep runs over the deduped
	// lists. Dedup preserves first-occurrence order, so the constraint
	// numbering follows the order of roundGraphs.
	inSetID := make(map[bits.Set]int32)
	var inSets []bits.Set
	lists := newListSet()
	ids := make([]int32, n)
	for _, g := range roundGraphs {
		for p := range ids {
			in := g.In(p)
			id, ok := inSetID[in]
			if !ok {
				id = int32(len(inSets))
				inSetID[in] = id
				inSets = append(inSets, in)
			}
			ids[p] = id
		}
		lists.insert(sortDedupInt32(ids))
	}
	return solveInput{n: n, numValues: numValues, inSets: inSets, lists: lists}
}

func boolInt(b bool) int64 {
	if b {
		return 1
	}
	return 0
}
