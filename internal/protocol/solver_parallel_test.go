package protocol

import (
	"context"
	"strings"
	"testing"

	"ksettop/internal/graph"
	"ksettop/internal/model"
	"ksettop/internal/par"
)

// corpusInstances builds a battery of small instances the sequential oracle
// can finish, spanning SAT and UNSAT, closures and generator subsets.
func corpusInstances(t *testing.T) []struct {
	name   string
	graphs []graph.Digraph
	vals   int
	k      int
} {
	t.Helper()
	var out []struct {
		name   string
		graphs []graph.Digraph
		vals   int
		k      int
	}
	add := func(name string, graphs []graph.Digraph, vals, k int) {
		out = append(out, struct {
			name   string
			graphs []graph.Digraph
			vals   int
			k      int
		}{name, graphs, vals, k})
	}

	clique, _ := graph.Complete(3)
	add("clique3-consensus", []graph.Digraph{clique}, 2, 1)

	star3, err := model.NonEmptyKernelModel(3)
	if err != nil {
		t.Fatal(err)
	}
	star3All, err := star3.AllGraphs()
	if err != nil {
		t.Fatal(err)
	}
	add("star3-closure-k2", star3All, 3, 2)        // UNSAT (Thm 6.13)
	add("star3-closure-k3", star3All, 2, 3)        // SAT (trivial k=n)
	add("star3-gens-k2", star3.Generators(), 3, 2) // SAT (weak adversary)

	cyc3, _ := graph.Cycle(3)
	cyc3m, _ := model.Simple(cyc3)
	cycAll, err := cyc3m.AllGraphs()
	if err != nil {
		t.Fatal(err)
	}
	add("cycle3-closure-k1", cycAll, 2, 1) // UNSAT (γ = 2)
	add("cycle3-closure-k2", cycAll, 3, 2) // SAT

	tour, err := model.TournamentModel(3)
	if err != nil {
		t.Fatal(err)
	}
	tourAll, err := tour.AllGraphs()
	if err != nil {
		t.Fatal(err)
	}
	add("tournament3-k2", tourAll, 3, 2) // UNSAT (wait-free)
	add("tournament3-k3", tourAll, 2, 3) // SAT

	cyc4, _ := graph.Cycle(4)
	sq, err := graph.Power(cyc4, 2)
	if err != nil {
		t.Fatal(err)
	}
	add("cycle4-squared-k1", []graph.Digraph{sq}, 2, 1) // UNSAT (γ(C₄²) = 2)
	return out
}

// sameMap compares witness maps for byte-identical content.
func sameMap(a, b *DecisionMap) bool {
	if (a == nil) != (b == nil) {
		return false
	}
	if a == nil {
		return true
	}
	if a.R != b.R || len(a.Table) != len(b.Table) {
		return false
	}
	for k, v := range a.Table {
		if bv, ok := b.Table[k]; !ok || bv != v {
			return false
		}
	}
	return true
}

// engines pairs the production learning engine with its sequential
// reference, for tests that must hold on both.
var engines = []struct {
	name  string
	solve func(ctx context.Context, gs []graph.Digraph, numValues, k, nodeBudget int) (SolveResult, error)
}{
	{"seq", SolveOneRoundSeq},
	{"parallel", SolveOneRoundCtx},
}

// TestEnginesAgreeOnCorpus is the engine cross-check: on every corpus
// instance the work-stealing learning engine must agree with the sequential
// oracle on Solvable AND return the byte-identical witness map — both
// engines share the branch order, and learned-clause pruning only removes
// solution-free subtrees, so the lexicographically-first witness is the
// same. Checked at several parallelism settings, with the probe limit
// lowered so the decomposition and work-stealing layers actually engage on
// these small instances.
func TestEnginesAgreeOnCorpus(t *testing.T) {
	defer par.SetParallelism(0)
	defer SetSearchProbeLimit(0)
	for _, inst := range corpusInstances(t) {
		par.SetParallelism(1)
		want, err := SolveOneRoundSeq(context.Background(), inst.graphs, inst.vals, inst.k, 50_000_000)
		if err != nil {
			t.Fatalf("%s: seq oracle: %v", inst.name, err)
		}
		for _, probeLim := range []int{0, 4} { // stock, and forced-parallel-phase
			SetSearchProbeLimit(probeLim)
			for _, workers := range []int{1, 2, 8} {
				par.SetParallelism(workers)
				got, err := SolveOneRound(inst.graphs, inst.vals, inst.k, 50_000_000)
				if err != nil {
					t.Fatalf("%s probe=%d workers=%d: %v", inst.name, probeLim, workers, err)
				}
				if got.Solvable != want.Solvable {
					t.Errorf("%s probe=%d workers=%d: Solvable=%v, oracle says %v",
						inst.name, probeLim, workers, got.Solvable, want.Solvable)
				}
				if !sameMap(got.Map, want.Map) {
					t.Errorf("%s probe=%d workers=%d: witness map differs from oracle's",
						inst.name, probeLim, workers)
				}
			}
		}
		SetSearchProbeLimit(0)
	}
}

// TestNogoodStoreCompactAged pins the eviction policy directly: a full
// store keeps its higher-scored half — shorter clauses first (the LBD
// proxy), younger on equal length — renumbered in original relative order,
// with the occurrence index rebuilt to match.
func TestNogoodStoreCompactAged(t *testing.T) {
	ng := newNogoodStore(8, 4, 4, 16)
	ng.evict = true
	// numValues = 4, so literal key k belongs to view k/4.
	clauses := [][]int32{
		{0, 21, 26}, // id 0: len 3 (views 0,5,6) → evicted
		{4, 25},     // id 1: len 2 (views 1,6) → kept
		{8, 22, 30}, // id 2: len 3 (views 2,5,7) → evicted
		{12},        // id 3: len 1 (view 3) → kept (best score)
	}
	for _, cl := range clauses {
		if !ng.add(cl) {
			t.Fatalf("add(%v) rejected", cl)
		}
	}
	if !ng.full() {
		t.Fatal("store should be full at 4 clauses")
	}
	ng.compactAged()
	if got := ng.count(); got != 2 {
		t.Fatalf("compacted count = %d, want 2", got)
	}
	// Kept in original relative order: id 1 ({4,25}) then id 3 ({12}).
	if got := ng.clause(0); len(got) != 2 || got[0] != 4 || got[1] != 25 {
		t.Errorf("clause 0 = %v, want [4 25]", got)
	}
	if got := ng.clause(1); len(got) != 1 || got[0] != 12 {
		t.Errorf("clause 1 = %v, want [12]", got)
	}
	if occ := ng.occ[25]; len(occ) != 1 || occ[0] != 0 {
		t.Errorf("occ[25] = %v, want [0]", occ)
	}
	if occ := ng.occ[21]; len(occ) != 0 {
		t.Errorf("occ[21] = %v, want empty (clause evicted)", occ)
	}
	if ng.hasAny[0] {
		t.Error("hasAny[0] should clear: view 0's only literal was evicted")
	}
	// The store keeps learning after compaction.
	if !ng.add([]int32{11, 12}) {
		t.Error("post-compaction add rejected")
	}
}

// TestClauseBudgetDeterminism pins the SetClauseStoreBudget knob: on every
// corpus instance Solvable and the witness map are invariant across
// budgets — eviction changes how much is pruned, never what is reachable
// first — and at any fixed budget the full SolveResult (nodes and per-phase
// stats included) stays byte-identical across parallelism.
func TestClauseBudgetDeterminism(t *testing.T) {
	defer SetClauseStoreBudget(0)
	defer SetSearchProbeLimit(0)
	defer par.SetParallelism(0)
	for _, inst := range corpusInstances(t) {
		SetClauseStoreBudget(0)
		want, err := SolveOneRound(inst.graphs, inst.vals, inst.k, 50_000_000)
		if err != nil {
			t.Fatalf("%s: stock: %v", inst.name, err)
		}
		for _, budget := range []int{8, 64, 1024} {
			SetClauseStoreBudget(budget)
			// Probe limit forced low so the task sweep (and its budgeted
			// private stores) genuinely engages on these small instances.
			SetSearchProbeLimit(4)
			for _, workers := range []int{1, 8} {
				par.SetParallelism(workers)
				got, err := SolveOneRound(inst.graphs, inst.vals, inst.k, 50_000_000)
				if err != nil {
					t.Fatalf("%s budget=%d workers=%d: %v", inst.name, budget, workers, err)
				}
				if got.Solvable != want.Solvable {
					t.Errorf("%s budget=%d workers=%d: Solvable=%v, stock says %v",
						inst.name, budget, workers, got.Solvable, want.Solvable)
				}
				if !sameMap(got.Map, want.Map) {
					t.Errorf("%s budget=%d workers=%d: witness map differs from stock", inst.name, budget, workers)
				}
			}
			SetSearchProbeLimit(0)
		}
	}

	// A budget that makes the n=4 star-closure task stores (512/4 = 128
	// clauses) fill and evict without crippling the refutation — budgets
	// small enough to strip most learning push this instance toward the
	// multi-million-node honest search across 64 full-cap tasks, which is
	// exactly the documented tasks × budget worst case, not a test-sized
	// workload. The whole SolveResult must be identical at every worker
	// count, and the eviction must have changed the accounting vs stock
	// (otherwise this section pins nothing).
	m, err := model.NonEmptyKernelModel(4)
	if err != nil {
		t.Fatal(err)
	}
	all, err := m.AllGraphs()
	if err != nil {
		t.Fatal(err)
	}
	SetClauseStoreBudget(0)
	SetSearchProbeLimit(16)
	par.SetParallelism(1)
	stock, err := SolveOneRound(all, 4, 3, 50_000_000)
	if err != nil {
		t.Fatal(err)
	}
	SetClauseStoreBudget(512)
	want, err := SolveOneRound(all, 4, 3, 50_000_000)
	if err != nil {
		t.Fatal(err)
	}
	if want.Solvable {
		t.Fatal("3-set agreement on Sym(star), n=4, must be impossible")
	}
	if want.Nodes == stock.Nodes && want.Stats == stock.Stats {
		t.Fatal("budget=512 did not change the accounting; eviction never engaged")
	}
	for _, workers := range []int{2, 5, 8} {
		par.SetParallelism(workers)
		got, err := SolveOneRound(all, 4, 3, 50_000_000)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if got != want {
			t.Errorf("budget=512 workers=%d: SolveResult %+v differs from single-worker %+v", workers, got, want)
		}
	}
}

// TestParallelPhaseDeterministicAcrossParallelism forces the full
// probe → decompose → work-steal → reduce pipeline on the n=4 star-closure
// impossibility and requires the ENTIRE SolveResult (including Nodes and
// the per-phase Stats) to be identical at every worker count.
func TestParallelPhaseDeterministicAcrossParallelism(t *testing.T) {
	m, err := model.NonEmptyKernelModel(4)
	if err != nil {
		t.Fatal(err)
	}
	all, err := m.AllGraphs()
	if err != nil {
		t.Fatal(err)
	}
	SetSearchProbeLimit(16) // force decomposition + task sweep
	defer SetSearchProbeLimit(0)
	defer par.SetParallelism(0)
	par.SetParallelism(1)
	want, err := SolveOneRound(all, 4, 3, 50_000_000)
	if err != nil {
		t.Fatalf("workers=1: %v", err)
	}
	if want.Solvable {
		t.Fatal("3-set agreement on Sym(star), n=4, must be impossible")
	}
	if want.Stats.Tasks == 0 || want.Stats.PrefixNodes == 0 {
		t.Fatalf("parallel phase did not engage: stats %+v", want.Stats)
	}
	for _, workers := range []int{2, 5, 8} {
		par.SetParallelism(workers)
		got, err := SolveOneRound(all, 4, 3, 50_000_000)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if got != want {
			t.Errorf("workers=%d: SolveResult %+v differs from single-worker %+v", workers, got, want)
		}
	}
}

// TestBudgetErrorsAgreeAcrossEnginesAndParallelism pins the node-budget
// error behavior: a tiny budget must fail identically on both engines and
// at every parallelism setting, and the error must name the budget.
func TestBudgetErrorsAgreeAcrossEnginesAndParallelism(t *testing.T) {
	// A SAT instance both engines need several decisions for: the 3 bare
	// stars (the weak-adversary instance). Budget 1 must trip identically.
	// (UNSAT closures are no use here — the learning engine legitimately
	// refutes the n=3 closure within a single branch point.)
	m, err := model.NonEmptyKernelModel(3)
	if err != nil {
		t.Fatal(err)
	}
	gens := m.Generators()
	defer par.SetParallelism(0)
	defer SetSearchProbeLimit(0)
	for _, engine := range engines {
		for _, workers := range []int{1, 8} {
			par.SetParallelism(workers)
			_, err := engine.solve(context.Background(), gens, 3, 2, 1)
			if err == nil || !strings.Contains(err.Error(), "node budget 1 exhausted") {
				t.Errorf("engine=%s workers=%d: want budget error, got %v", engine.name, workers, err)
			}
		}
	}
	// A budget that lands inside the task sweep must also fail identically
	// at every worker count (the rank-ordered reduction makes the trip
	// deterministic).
	SetSearchProbeLimit(4)
	m4, err := model.NonEmptyKernelModel(4)
	if err != nil {
		t.Fatal(err)
	}
	all4, err := m4.AllGraphs()
	if err != nil {
		t.Fatal(err)
	}
	var firstErr string
	var firstNodes int
	for _, workers := range []int{1, 2, 8} {
		par.SetParallelism(workers)
		res, err := SolveOneRound(all4, 4, 3, 60)
		if err == nil {
			t.Fatalf("workers=%d: want a mid-sweep budget error, got %+v", workers, res)
		}
		if workers == 1 {
			firstErr, firstNodes = err.Error(), res.Nodes
			continue
		}
		if err.Error() != firstErr || res.Nodes != firstNodes {
			t.Errorf("workers=%d: budget trip (%q, %d nodes) differs from single-worker (%q, %d nodes)",
				workers, err.Error(), res.Nodes, firstErr, firstNodes)
		}
	}
}

// TestLearningEngineMatchesOracleNodesOnSATPath sanity-checks that the
// parallel engine's witness, run through the exhaustive checker, actually
// solves the instance (guards against unsound pruning in conflict
// analysis).
func TestLearningEngineWitnessSolvesInstance(t *testing.T) {
	for _, inst := range corpusInstances(t) {
		res, err := SolveOneRound(inst.graphs, inst.vals, inst.k, 50_000_000)
		if err != nil {
			t.Fatalf("%s: %v", inst.name, err)
		}
		if !res.Solvable {
			continue
		}
		check, err := WorstCase(inst.graphs, inst.vals, 1, *res.Map, 2_000_000)
		if err != nil {
			t.Fatalf("%s: WorstCase: %v", inst.name, err)
		}
		if check.WorstDistinct > inst.k {
			t.Errorf("%s: witness decides %d values, want ≤ %d", inst.name, check.WorstDistinct, inst.k)
		}
	}
}

// TestPooledStateCleanAfterWitnessTask is the regression test for a pooled
// cspState recycled after a SAT task: the witness path used to leave the
// CBJ frames open, so the released state carried stale frameOf entries
// into the next task and corrupted closeLevel's backjump target. runTask
// must release states with every frameOf cleared and the trail back at the
// facts mark.
func TestPooledStateCleanAfterWitnessTask(t *testing.T) {
	// A tiny hand-built SAT instance: three views sharing one execution,
	// two values, k=1 (consensus on the shared execution — satisfiable by
	// deciding one value everywhere).
	tables := &solveTables{
		k:         1,
		numValues: 2,
		views:     []View{{0}, {0, 1}, {1}},
		execViews: [][]int32{{0, 1, 2}},
		veStarts:  []int32{0, 1, 2, 3},
		veData:    []int32{0, 0, 0},
		initDomains: []uint16{
			0b11, 0b11, 0b11,
		},
		valueOrder: []Value{0, 1},
	}
	// The race detector makes sync.Pool drop a random share of Puts, so
	// re-run the task on a fresh run until the pool hands the released
	// state back.
	var s *cspState
	for attempt := 0; s == nil; attempt++ {
		if attempt == 100 {
			t.Fatal("the state pool never returned the released state")
		}
		pr := &parallelRun{
			tables:   tables,
			shared:   newNogoodStore(len(tables.views), tables.numValues, maxSharedNogoods, maxNogoodLen),
			taskCap:  1000,
			budget:   1000,
			ctl:      &par.Ctl{},
			frontier: make(map[string]searchTask),
		}
		pr.addFrontier(searchTask{})
		pr.runTask(searchTask{}, nil)
		if len(pr.records) != 1 || pr.records[0].status != taskWitness {
			t.Fatalf("expected a witness record, got %+v", pr.records)
		}
		s, _ = pr.statePool.Get().(*cspState)
	}
	for v, f := range s.frameOf {
		if f != -1 {
			t.Errorf("released state has stale frameOf[%d] = %d", v, f)
		}
	}
	if len(s.trail) != s.factsMark {
		t.Errorf("released state trail length %d, want facts mark %d", len(s.trail), s.factsMark)
	}
	for v, d := range s.decided {
		if d != NoValue && onesCount16(tables.initDomains[v]) != 1 {
			t.Errorf("released state still has non-fact view %d decided", v)
		}
	}
}
