// Package bench is the one registry of the repo's benchmarks: the E1–E17
// experiment tables and the micro-benchmarks of the hot paths they are built
// on (subset sweeps, solver, homology, closures, checkpoints, the
// distributed tier). `go test -bench` runs every row as a sub-benchmark of
// BenchmarkAll, and cmd/ksetbench runs the same rows through
// testing.Benchmark to write the BENCH_<n>.json snapshots.
package bench

import (
	"bytes"
	"context"
	"log/slog"
	"math/rand"
	"net/http/httptest"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"ksettop/internal/bits"
	"ksettop/internal/checkpoint"
	"ksettop/internal/cli"
	"ksettop/internal/combinat"
	"ksettop/internal/core"
	"ksettop/internal/dist"
	"ksettop/internal/experiments"
	"ksettop/internal/faultinject"
	"ksettop/internal/graph"
	"ksettop/internal/memo"
	"ksettop/internal/model"
	"ksettop/internal/obs"
	"ksettop/internal/protocol"
	"ksettop/internal/topology"
)

// Row is one named benchmark.
type Row struct {
	Name string
	Fn   func(*testing.B)
}

// All returns every benchmark. The rows of the BENCH_10.json snapshot come
// first and in snapshot order, so each of them runs in the same process
// state (memo caches, heap) as when the snapshot was recorded; rows added
// since follow them.
func All() []Row {
	return []Row{
		{"DominationNumber", dominationNumber},
		{"CoveringNumbers", coveringNumbers},
		{"DistributedDomination", distributedDomination},
		{"SymClosure", symClosure},
		{"HomologyBetti", homologyBetti},
		{"HomologyBetti64k", homologyBetti64k},
		{"HomologyBetti512k", homologyBetti512k},
		{"DecisionMapSolver", decisionMapSolver},
		{"SolveOneRoundParallel", solveOneRoundParallel},
		{"SolveOneRoundSeqCapped", solveOneRoundSeqCapped},
		{"CheckpointOverhead", checkpointOverhead},
		{"ResumeWarm", resumeWarm},
		{"SolveOneRoundClosure", solveOneRoundClosure},
		{"ObsOverhead", obsOverhead},
		{"EnumerateClosure", enumerateClosure},
		{"ModelConstructionMemo", modelConstructionMemo},
		{"ModelConstructionCold", modelConstructionCold},
		{"E10StarUnions", experiment("E10")},
		{"E14StarUnions7", experiment("E14")},
		{"DistSweepCount", distSweep(0)},
		{"DistQuorumVerify", distSweep(1)},
		{"DistRecovery", distRecovery},
		// Rows BENCH_10.json does not have.
		{"EqualDomination", equalDomination},
		{"GraphProductPower", graphProductPower},
		{"ProtocolComplexBuild", protocolComplexBuild},
		{"HomologyBettiOracle", homologyBettiOracle},
		{"ExecutorRun", executorRun},
		{"WorstCaseSweep", worstCaseSweep},
		{"E1Figure1", experiment("E1")},
		{"E2UninterpretedSimplex", experiment("E2")},
		{"E3Pseudosphere", experiment("E3")},
		{"E4Shellability", experiment("E4")},
		{"E5SimpleBounds", experiment("E5")},
		{"E6GeneralUpper", experiment("E6")},
		{"E7GeneralLower", experiment("E7")},
		{"E8CycleProduct", experiment("E8")},
		{"E9CoveringSequences", experiment("E9")},
		{"E11UninterpretedConnectivity", experiment("E11")},
		{"E12MultiRound", experiment("E12")},
		{"E13TournamentGap", experiment("E13")},
		{"E15RandomModels", experiment("E15")},
		{"E16RoundProducts", experiment("E16")},
		{"E17DynamicRotatingStars", experiment("E17")},
		{"BettiCold", bettiCold},
		{"BoundsAnalyze", boundsAnalyze},
		{"ClosureCount", closureCount},
	}
}

// experiment regenerates one table of the experiments.All index per
// iteration and fails on any MISMATCH/FAIL row, so the benchmark run doubles
// as the reproduction harness. The check runs with the timer stopped: the
// row times the experiment, not the rendering.
func experiment(id string) func(*testing.B) {
	return func(b *testing.B) {
		var runners []experiments.Runner
		for _, r := range experiments.All() {
			if r.ID == id {
				runners = append(runners, r)
			}
		}
		if len(runners) == 0 {
			b.Fatalf("unknown experiment %s", id)
		}
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			out := experiments.RunAll(context.Background(), runners)[0]
			table, err := out.Table, out.Err
			if err != nil {
				b.Fatalf("%s: %v", id, err)
			}
			b.StopTimer()
			if text := table.Render(); strings.Contains(text, "MISMATCH") || strings.Contains(text, "FAIL") {
				b.Fatalf("%s has failing rows:\n%s", id, text)
			}
			b.StartTimer()
		}
	}
}

func dominationNumber(b *testing.B) {
	g, err := graph.BidirectionalRing(12)
	must(b, err)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		// Each node covers 3 consecutive ring positions: γ = ⌈12/3⌉ = 4.
		if got := combinat.DominationNumber(g); got != 4 {
			b.Fatalf("γ = %d, want 4", got)
		}
	}
}

func equalDomination(b *testing.B) {
	g, err := graph.Cycle(20)
	must(b, err)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if got := combinat.EqualDominationNumber(g); got != 19 {
			b.Fatalf("γ_eq = %d, want 19", got)
		}
	}
}

func coveringNumbers(b *testing.B) {
	g, err := graph.Cycle(14)
	must(b, err)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		for idx := 1; idx <= 7; idx++ {
			if _, err := combinat.CoveringNumber(g, idx); err != nil {
				b.Fatal(err)
			}
		}
	}
}

func distributedDomination(b *testing.B) {
	m, err := model.UnionOfStarsModel(6, 2)
	must(b, err)
	gens := m.Generators()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := combinat.DistributedDominationNumber(context.Background(), gens); err != nil {
			b.Fatal(err)
		}
	}
}

func graphProductPower(b *testing.B) {
	g, err := graph.Cycle(32)
	must(b, err)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := graph.Power(g, 8); err != nil {
			b.Fatal(err)
		}
	}
}

// symClosure is the two-generator orbit search of Sym(2-stars on 6), 15
// graphs. SymClosure has no cache, so the row needs no memo switch.
func symClosure(b *testing.B) {
	g, err := graph.UnionOfStars(6, []int{0, 1})
	must(b, err)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		closure, err := graph.SymClosure([]graph.Digraph{g})
		if err != nil || len(closure) != 15 {
			b.Fatalf("closure %d graphs, err %v", len(closure), err)
		}
	}
}

// enumerateClosure is the mask-level streaming sweep of the n=5 star closure
// (5·2^16 ranks): the path behind E14's closure cell and the sharded
// collectors, no Digraph materialization.
func enumerateClosure(b *testing.B) {
	m, err := model.NonEmptyKernelModel(5)
	must(b, err)
	e, err := m.Enumeration()
	must(b, err)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		count := 0
		e.RangeMasks(0, e.Size(), func(bits.Words) bool {
			count++
			return true
		})
		if count == 0 {
			b.Fatal("empty enumeration")
		}
	}
}

// closureCount is the branching closure count (/v1/count past parsing) of
// nonsplit:n=5 (1327 generators) and stars:n=7,s=3 (35 generators), both
// past the enumeration budget, with the memo off so every op counts.
func closureCount(b *testing.B) {
	nonsplit, err := model.NonSplitModel(5)
	must(b, err)
	stars, err := model.UnionOfStarsModel(7, 3)
	must(b, err)
	defer memo.SetEnabled(memo.Enabled())
	memo.SetEnabled(false)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, m := range []*model.ClosedAbove{nonsplit, stars} {
			if _, err := m.GraphCountCtx(context.Background()); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// modelConstructionMemo repeats model construction through the
// canonical-key cache.
func modelConstructionMemo(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := model.UnionOfStarsModel(6, 2); err != nil {
			b.Fatal(err)
		}
	}
}

// modelConstructionCold is the same construction with the cache disabled:
// the cold baseline the memo row is measured against.
func modelConstructionCold(b *testing.B) {
	defer memo.SetEnabled(memo.Enabled())
	memo.SetEnabled(false)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := model.UnionOfStarsModel(6, 2); err != nil {
			b.Fatal(err)
		}
	}
}

func protocolComplexBuild(b *testing.B) {
	m, err := model.NonEmptyKernelModel(3)
	must(b, err)
	inputs, err := topology.InputAssignments(3, 3)
	must(b, err)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := topology.ProtocolComplexOneRound(context.Background(), m.Generators(), inputs); err != nil {
			b.Fatal(err)
		}
	}
}

// bettiCold is a query-cold /v1/betti request past parsing: the one-round
// protocol complex of a seeded random n = 5 model (two generators, edge
// probability 0.85) over 2 values, its abstract complex (288 facets), and
// β̃_0..β̃_3 = 3, 36, 0, 0.
func bettiCold(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	gens := make([]graph.Digraph, 2)
	for i := range gens {
		g, err := graph.Random(5, 0.85, rng)
		must(b, err)
		gens[i] = g
	}
	m, err := model.New(gens)
	must(b, err)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		pc, err := core.ProtocolComplexOneRoundCtx(context.Background(), m, 2)
		must(b, err)
		ac, _, err := pc.ToAbstract()
		must(b, err)
		betti, err := topology.ReducedBettiNumbersCtx(context.Background(), ac, 3)
		must(b, err)
		if !slices.Equal(betti, []int{3, 36, 0, 0}) {
			b.Fatalf("betti %v, want [3 36 0 0]", betti)
		}
	}
}

// boundsAnalyze times the bound derivation behind /v1/bounds: AnalyzeCtx on
// nonsplit n=4 at three rounds (S^2 and S^3 are built once each) and on the
// 17 named model families of perfbench's query-hot set at one round.
func boundsAnalyze(b *testing.B) {
	type analysis struct {
		m      *model.ClosedAbove
		rounds int
	}
	m, err := cli.ParseModel("nonsplit:n=4")
	must(b, err)
	cases := []analysis{{m, 3}}
	for _, spec := range []string{
		"star:n=3", "star:n=4", "stars:n=4,s=2", "stars:n=5,s=2",
		"cycle:n=3", "cycle:n=4", "cycle:n=5",
		"simple-star:n=3", "simple-star:n=4", "simple-star:n=5",
		"simple-cycle:n=3", "simple-cycle:n=4", "simple-cycle:n=5",
		"nonsplit:n=3", "nonsplit:n=4", "clique:n=4", "clique:n=5",
	} {
		m, err := cli.ParseModel(spec)
		must(b, err)
		cases = append(cases, analysis{m, 1})
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, c := range cases {
			_, err := core.AnalyzeCtx(context.Background(), c.m, c.rounds)
			must(b, err)
		}
	}
}

// must fails the benchmark on a setup error.
func must(b *testing.B, err error) {
	b.Helper()
	if err != nil {
		b.Fatal(err)
	}
}

// starComplex4 is the uninterpreted complex of the n=4 star closure, the
// HomologyBetti workload.
func starComplex4(b *testing.B) *topology.AbstractComplex {
	m, err := model.NonEmptyKernelModel(4)
	must(b, err)
	c, err := topology.UninterpretedComplex(m.Generators())
	must(b, err)
	ac, _, err := c.ToAbstract()
	must(b, err)
	return ac
}

// bettiZero computes the reduced Betti numbers of ac up to maxDim b.N times
// and fails unless every one is zero.
func bettiZero(b *testing.B, ac *topology.AbstractComplex, maxDim int) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		betti, err := topology.ReducedBettiNumbersCtx(context.Background(), ac, maxDim)
		if err != nil {
			b.Fatal(err)
		}
		for q, v := range betti {
			if v != 0 {
				b.Fatalf("β̃_%d = %d, want 0", q, v)
			}
		}
	}
}

func homologyBetti(b *testing.B) {
	bettiZero(b, starComplex4(b), 2)
}

// homologyBettiOracle drives the HomologyBetti workload through the seed
// packed oracle, apples-to-apples against the production engine.
func homologyBettiOracle(b *testing.B) {
	ac := starComplex4(b)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := topology.ReducedBettiNumbersOracle(ac, 2); err != nil {
			b.Fatal(err)
		}
	}
}

// homologyBetti64k is the 9-color pseudosphere with mixed 3/2 views: 82943
// distinct simplexes (> 64k) with 9-vertex facets. No packing width fits, so
// the seed packed path rejects the instance outright and only the sparse
// levels carry it. Join of discrete sets ⇒ β̃_0..β̃_7 = 0.
func homologyBetti64k(b *testing.B) {
	ac, err := topology.PseudosphereComplex([]int{3, 3, 3, 3, 3, 2, 2, 2, 2})
	must(b, err)
	if topology.PackedHomologyCapable(ac, 7) {
		b.Fatal("instance unexpectedly fits the packed path")
	}
	bettiZero(b, ac, 7)
}

// homologyBetti512k is 12 colors × 2 views: 531440 distinct simplexes
// (> 2^19) with 12-vertex facets. The hybrid engine's packed level keys
// (5-bit fields × 12 vertices) and apparent-pairs pass carry it in seconds;
// the seed packed path rejects it outright. Join of 12 discrete pairs ⇒
// β̃_0..β̃_10 = 0.
func homologyBetti512k(b *testing.B) {
	views := make([]int, 12)
	for i := range views {
		views[i] = 2
	}
	ac, err := topology.PseudosphereComplex(views)
	must(b, err)
	if topology.PackedHomologyCapable(ac, 10) {
		b.Fatal("instance unexpectedly fits the packed path")
	}
	bettiZero(b, ac, 10)
}

func executorRun(b *testing.B) {
	g, err := graph.BidirectionalRing(8)
	must(b, err)
	e := protocol.Execution{
		Graphs:  []graph.Digraph{g, g, g, g},
		Initial: []protocol.Value{7, 3, 5, 1, 0, 6, 2, 4},
	}
	algo := protocol.MinAlgorithm{R: 4}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := protocol.Run(e, algo); err != nil {
			b.Fatal(err)
		}
	}
}

func worstCaseSweep(b *testing.B) {
	m, err := model.NonEmptyKernelModel(3)
	must(b, err)
	gens := m.Generators()
	algo := protocol.MinAlgorithm{R: 1}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		res, err := protocol.WorstCase(context.Background(), gens, 3, 1, algo, 1_000_000)
		if err != nil || res.WorstDistinct != 3 {
			b.Fatalf("worst %d, err %v", res.WorstDistinct, err)
		}
	}
}

// starClosure returns every graph of the n-process star-closure model.
func starClosure(b *testing.B, n int) []graph.Digraph {
	m, err := model.NonEmptyKernelModel(n)
	must(b, err)
	all, err := m.AllGraphsCtx(context.Background())
	must(b, err)
	return all
}

// refute runs SolveOneRound b.N times and fails unless it proves the
// instance unsolvable.
func refute(b *testing.B, all []graph.Digraph, numValues, k int) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		res, err := protocol.SolveOneRoundCtx(context.Background(), all, numValues, k, protocol.DefaultNodeBudget())
		if err != nil || res.Solvable {
			b.Fatalf("solvable=%v err=%v, want impossibility", res.Solvable, err)
		}
	}
}

func decisionMapSolver(b *testing.B) {
	refute(b, starClosure(b, 3), 3, 2)
}

// solveOneRoundClosure is the n=4 star-closure impossibility (1695 graphs ×
// 256 assignments): the sharded assignments × lists sweep plus the flat
// search tables.
func solveOneRoundClosure(b *testing.B) {
	refute(b, starClosure(b, 4), 4, 3)
}

// obsOverhead is SolveOneRoundClosure with the observability layer's gated
// paths (histogram timing; tracing is off by default) switched off. The pair
// bounds what the default-on instrumentation costs on the hot solve path
// (budget ≲ 1%).
func obsOverhead(b *testing.B) {
	all := starClosure(b, 4)
	obs.SetEnabled(false)
	defer obs.SetEnabled(true)
	refute(b, all, 4, 3)
}

// solveOneRoundParallel is the n=4 star-closure impossibility with the probe
// limit forced low, so the full work-stealing pipeline runs: decomposition
// into ~64 value-branch prefixes, the shared task deque, per-task conflict
// learning and the rank-ordered reduction. Results (including node
// statistics) are pinned identical at every -parallelism setting.
func solveOneRoundParallel(b *testing.B) {
	all := starClosure(b, 4)
	protocol.SetSearchProbeLimit(16)
	defer protocol.SetSearchProbeLimit(0)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		res, err := protocol.SolveOneRoundCtx(context.Background(), all, 4, 3, protocol.DefaultNodeBudget())
		if err != nil || res.Solvable || res.Stats.Tasks == 0 {
			b.Fatalf("solvable=%v tasks=%d err=%v, want work-stealing impossibility run",
				res.Solvable, res.Stats.Tasks, err)
		}
	}
}

// solveOneRoundSeqCapped is the sequential-oracle baseline on the same
// instance, capped at 100k nodes, which it always exhausts: the honest
// chronological search needs millions of nodes here, while the learning
// engine refutes the instance in a few hundred. It tracks the oracle's
// per-node cost and records the engine gap in the snapshot.
func solveOneRoundSeqCapped(b *testing.B) {
	all := starClosure(b, 4)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		res, err := protocol.SolveOneRoundSeq(context.Background(), all, 4, 3, 100_000)
		if err == nil || res.Solvable {
			b.Fatalf("want the oracle to exhaust its 100k-node cap, got solvable=%v err=%v", res.Solvable, err)
		}
	}
}

// checkpointOverhead is SolveOneRoundParallel with a live checkpoint runner
// attached: frontier bookkeeping and capture registration during the solve,
// plus one full checkpoint write per iteration. The pair bounds what
// durability costs on the hot solve path (budget < 5%).
func checkpointOverhead(b *testing.B) {
	all := starClosure(b, 4)
	protocol.SetSearchProbeLimit(16)
	defer protocol.SetSearchProbeLimit(0)
	path := filepath.Join(b.TempDir(), "solver.ckpt")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		r := checkpoint.NewRunner(path, "bench", 0)
		ctx := checkpoint.WithRunner(context.Background(), r)
		res, err := protocol.SolveOneRoundCtx(ctx, all, 4, 3, protocol.DefaultNodeBudget())
		if err != nil || res.Solvable {
			b.Fatalf("solvable=%v err=%v, want impossibility", res.Solvable, err)
		}
		if err := r.SaveNow(); err != nil {
			b.Fatal(err)
		}
		if err := r.Remove(); err != nil {
			b.Fatal(err)
		}
	}
}

// resumeWarm is warm-resume latency: a refutation killed at its first
// parallel task leaves a checkpoint behind, and only the resumed completion
// is timed. It tracks how much of a solve a crash re-pays (restored frontier
// tasks are skipped, the rest recomputed).
func resumeWarm(b *testing.B) {
	all := starClosure(b, 4)
	protocol.SetSearchProbeLimit(16)
	defer protocol.SetSearchProbeLimit(0)
	path := filepath.Join(b.TempDir(), "solver.ckpt")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		os.Remove(path)
		r1 := checkpoint.NewRunner(path, "bench", 0)
		faultinject.Enable(42, faultinject.Rule{
			Point:  faultinject.PointSolverTask,
			Nth:    1,
			Action: faultinject.ActionError,
		})
		_, err := protocol.SolveOneRoundCtx(checkpoint.WithRunner(context.Background(), r1),
			all, 4, 3, protocol.DefaultNodeBudget())
		faultinject.Disable()
		if err == nil {
			b.Fatal("injected solver kill did not fire")
		}
		if err := r1.SaveNow(); err != nil {
			b.Fatal(err)
		}
		r2 := checkpoint.NewRunner(path, "bench", 0)
		if !r2.LoadForResume() {
			b.Fatal("checkpoint did not load")
		}
		b.StartTimer()
		res, err := protocol.SolveOneRoundCtx(checkpoint.WithRunner(context.Background(), r2),
			all, 4, 3, protocol.DefaultNodeBudget())
		if err != nil || res.Solvable {
			b.Fatalf("solvable=%v err=%v, want resumed impossibility", res.Solvable, err)
		}
	}
}

// quietLog silences the operational logs of in-process daemons.
var quietLog = slog.New(slog.DiscardHandler)

// distWorkers starts n in-process sweep workers on loopback listeners and
// returns their addresses plus a shutdown func.
func distWorkers(n int) ([]string, func()) {
	addrs := make([]string, n)
	servers := make([]*httptest.Server, n)
	for i := range addrs {
		w := dist.NewWorker(dist.WorkerConfig{Log: quietLog})
		servers[i] = httptest.NewServer(w.Handler())
		addrs[i] = strings.TrimPrefix(servers[i].URL, "http://")
	}
	return addrs, func() {
		for _, ts := range servers {
			ts.Close()
		}
	}
}

// distSweep is a full coordinated count sweep over 3 in-process workers
// (real HTTP on loopback) of the n=5 star closure (5·2^16 ranks, 24 shards):
// ring placement, leases, shard dispatch, CRC verification and the ordered
// merge, checked byte-identical against the sequential engine every
// iteration. With verifyFraction 1 every committed shard is re-executed on
// a distinct replica and byte-compared before the merge; on an honest fleet
// that prices pure cross-validation, not conviction or degraded serving.
func distSweep(verifyFraction float64) func(*testing.B) {
	return func(b *testing.B) {
		workers, stop := distWorkers(3)
		defer stop()
		job := dist.Job{Op: dist.OpCount, Model: "star:n=5"}
		want, err := dist.RunSequential(context.Background(), job)
		must(b, err)
		c := dist.NewCoordinator(dist.CoordConfig{
			Workers:        workers,
			Shards:         24,
			DisableHedging: true,
			VerifyFraction: verifyFraction,
			Log:            quietLog,
		})
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			got, err := c.Run(context.Background(), job)
			if err != nil {
				b.Fatal(err)
			}
			if !bytes.Equal(got, want) {
				b.Fatal("distributed sweep differs from sequential reference")
			}
		}
	}
}

// distRecovery is warm-restart recovery: a coordinator killed after
// journaling 11 of 24 shard commits restarts on the same journal and
// finishes the sweep. Only the resumed run is timed: the row tracks how much
// of the sweep a restart actually pays for (journaled shards are skipped,
// the rest recomputed).
func distRecovery(b *testing.B) {
	workers, stop := distWorkers(3)
	defer stop()
	cfg := dist.CoordConfig{
		Workers:        workers,
		Shards:         24,
		DisableHedging: true,
		JournalPath:    filepath.Join(b.TempDir(), "sweep.journal"),
		Log:            quietLog,
	}
	job := dist.Job{Op: dist.OpEnum, Model: "star:n=4"}
	want, err := dist.RunSequential(context.Background(), job)
	must(b, err)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		os.Remove(cfg.JournalPath)
		faultinject.Enable(1, faultinject.Rule{
			Point:  faultinject.PointDistCommit,
			Nth:    12,
			Action: faultinject.ActionError,
		})
		if _, err := dist.NewCoordinator(cfg).Run(context.Background(), job); err == nil {
			faultinject.Disable()
			b.Fatal("injected coordinator kill did not fire")
		}
		faultinject.Disable()
		c := dist.NewCoordinator(cfg)
		b.StartTimer()
		got, err := c.Run(context.Background(), job)
		if err != nil {
			b.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			b.Fatal("recovered sweep differs from sequential reference")
		}
	}
}
