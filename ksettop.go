// Package ksettop is an executable reproduction of "K-set agreement bounds
// in round-based models through combinatorial topology" (Shimi &
// Castañeda, PODC 2020, arXiv:2003.02869).
//
// It provides:
//
//   - closed-above round-based communication models (Def 2.2–2.4), built
//     from generator graphs, named safety predicates (non-empty kernel,
//     non-split, rings, star unions) or monotone-predicate search;
//   - the paper's combinatorial numbers: domination γ, equal domination
//     γ_eq, covering numbers cov_i, distributed domination γ_dist,
//     max-covering numbers and coefficients, covering-number sequences;
//   - every bound of §3, §5 and §6: one-round and multi-round upper bounds
//     (Thm 3.2/3.4/3.7, 6.3–6.9) and lower bounds (Thm 5.1/5.4, Cor 5.5,
//     6.10/6.11, 6.13), with provenance;
//   - the combinatorial-topology machinery of §4 (pseudospheres,
//     uninterpreted complexes, interpretations, nerves, shellability,
//     GF(2) homology) and verification routines that re-check bounds on
//     concrete instances by simulation, exhaustive decision-map search and
//     protocol-complex connectivity.
//
// # Quick start
//
//	m, _ := ksettop.UnionOfStarsModel(5, 2)
//	a, _ := ksettop.Analyze(context.Background(), m, 3)
//	fmt.Print(a.Render())
//
// Every engine entry point takes a context first: cancelling it stops the
// exponential sweeps (multi-round products, closure enumeration, solver,
// protocol complexes, homology) and returns the context's cause.
//
// See examples/ for runnable programs and internal/experiments (All) for
// the E1–E17 experiment index.
package ksettop

import (
	"ksettop/internal/combinat"
	"ksettop/internal/core"
	"ksettop/internal/graph"
	"ksettop/internal/model"
	"ksettop/internal/protocol"
)

// Re-exported substrate types. The facade keeps examples and downstream
// users on one import path.
type (
	// Digraph is a directed communication graph with mandatory self-loops.
	Digraph = graph.Digraph
	// Model is a closed-above oblivious communication model (Def 2.3).
	Model = model.ClosedAbove
	// UpperBound states K-set agreement is solvable in Rounds rounds.
	UpperBound = core.UpperBound
	// LowerBound states K-set agreement is not solvable in Rounds rounds.
	LowerBound = core.LowerBound
	// Analysis is a full bound report for a model.
	Analysis = core.Analysis
	// RoundBounds are the bounds of one round count.
	RoundBounds = core.RoundBounds
	// Numbers are the graph numbers of S or S^r the bounds are stated in.
	Numbers = core.Numbers
	// BoundPair is a round's best upper and lower bound.
	BoundPair = core.BoundPair
	// Sequence is a covering-number sequence (Def 6.6/6.8).
	Sequence = combinat.Sequence
	// Algorithm is an oblivious round-based algorithm (Def 2.5).
	Algorithm = protocol.Algorithm
	// Execution is a deterministic run: per-round graphs plus inputs.
	Execution = protocol.Execution
	// Result holds final views and decisions of an execution.
	Result = protocol.Result
)

// Graph constructors.
var (
	// NewGraph returns the n-process graph with only self-loops.
	NewGraph = graph.New
	// Star returns the star graph centered at the given process.
	Star = graph.Star
	// UnionOfStars returns the union of stars with the given centers.
	UnionOfStars = graph.UnionOfStars
	// Cycle returns the directed cycle.
	Cycle = graph.Cycle
	// Complete returns the clique.
	Complete = graph.Complete
	// BidirectionalRing returns the two-way ring.
	BidirectionalRing = graph.BidirectionalRing
	// DirectedPath returns the path 0→1→…→n-1.
	DirectedPath = graph.DirectedPath
	// OutTree returns the binary out-tree rooted at 0.
	OutTree = graph.OutTree
	// FromAdjacency builds a graph from out-neighbor lists.
	FromAdjacency = graph.FromAdjacency
	// Product returns the graph path product g ⊗ h (Def 6.1).
	Product = graph.Product
	// Power returns the r-fold product of g with itself.
	Power = graph.Power
)

// Model constructors.
var (
	// NewModel builds the closed-above model generated by gens.
	NewModel = model.New
	// NewSymmetricModel builds the model generated by Sym(gens) (Def 2.4).
	NewSymmetricModel = model.NewSymmetric
	// SimpleModel builds ↑g.
	SimpleModel = model.Simple
	// NonEmptyKernelModel is the "someone broadcasts" safety model.
	NonEmptyKernelModel = model.NonEmptyKernelModel
	// NonSplitModel is the "every pair hears a common process" model.
	NonSplitModel = model.NonSplitModel
	// UnionOfStarsModel is the Thm 6.13 family.
	UnionOfStarsModel = model.UnionOfStarsModel
	// CycleModel is the "contains a ring" symmetric model.
	CycleModel = model.CycleModel
	// TournamentModel is the Afek–Gafni wait-free-equivalent model.
	TournamentModel = model.TournamentModel
	// MinimalGraphs searches the minimal generators of a monotone predicate.
	MinimalGraphs = model.MinimalGraphs
)

// Graph analysis helpers.
var (
	// IsIsomorphic reports whether two graphs differ only by relabeling.
	IsIsomorphic = graph.IsIsomorphic
	// CanonicalKey is a permutation-invariant graph key.
	CanonicalKey = graph.CanonicalKey
	// AutomorphismCount is the order of the graph's automorphism group.
	AutomorphismCount = graph.AutomorphismCount
)

// Combinatorial numbers (§3, §5, §6).
var (
	// DominationNumber is γ(G) (Def 3.1).
	DominationNumber = combinat.DominationNumber
	// MinDominatingSet returns a minimum dominating set and its size.
	MinDominatingSet = combinat.MinDominatingSet
	// EqualDominationNumber is γ_eq(G) (Def 3.3).
	EqualDominationNumber = combinat.EqualDominationNumber
	// CoveringNumber is cov_i(G) (Def 3.6).
	CoveringNumber = combinat.CoveringNumber
	// CoveringSequence is the i-th covering-number sequence (Def 6.6).
	CoveringSequence = combinat.CoveringSequence
	// CoveringSequenceSet is the set variant (Def 6.8).
	CoveringSequenceSet = combinat.CoveringSequenceSet
)

// Bounds (§3, §5, §6).
var (
	// Bounds lists every r-round upper bound and the lower bound, with
	// provenance and the numbers they derive from (§3 and §5 at r = 1, §6
	// at r ≥ 2).
	Bounds = core.Bounds
	// StarUnionBounds returns the tight Thm 6.13 pair.
	StarUnionBounds = core.StarUnionBounds
	// Analyze computes the full bound report for a model.
	Analyze = core.AnalyzeCtx
)

// Verification (the paper's claims, machine-checked on instances).
var (
	// VerifyUpperBySimulation sweeps executions and checks ≤ K decisions.
	VerifyUpperBySimulation = core.VerifyUpperBySimulationCtx
	// VerifyLowerBySolver proves no oblivious decision map exists.
	VerifyLowerBySolver = core.VerifyLowerBySolverCtx
	// VerifyLowerByTopology checks protocol-complex connectivity.
	VerifyLowerByTopology = core.VerifyLowerByTopology
	// VerifyUninterpretedConnectivity checks Thm 4.12 on the model.
	VerifyUninterpretedConnectivity = core.VerifyUninterpretedConnectivity
)

// Simulation.
var (
	// Run executes an algorithm on a concrete execution.
	Run = protocol.Run
	// WorstCase sweeps assignments × graph sequences exhaustively.
	WorstCase = protocol.WorstCase
	// SolveOneRound searches all oblivious one-round decision maps.
	SolveOneRound = protocol.SolveOneRoundCtx
)

// Solver engine configuration.
var (
	// DefaultNodeBudget is the process-wide default solver node budget.
	DefaultNodeBudget = protocol.DefaultNodeBudget
	// SetDefaultNodeBudget overrides it (n ≤ 0 restores the stock 50M).
	SetDefaultNodeBudget = protocol.SetDefaultNodeBudget
)

// MinAlgorithm returns the paper's r-round min-dissemination algorithm.
func MinAlgorithm(rounds int) Algorithm { return protocol.MinAlgorithm{R: rounds} }

// DominatingSetMinAlgorithm returns the Thm 3.2 one-round algorithm for the
// simple model ↑g, deciding the minimum value received from a precomputed
// minimum dominating set of g.
func DominatingSetMinAlgorithm(g Digraph) Algorithm {
	set, _ := combinat.MinDominatingSet(g)
	return protocol.DominatingSetMin{Dominating: set}
}
