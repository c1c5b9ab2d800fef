package ksettop

import (
	"bytes"
	"context"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"ksettop/internal/bits"
	"ksettop/internal/checkpoint"
	"ksettop/internal/combinat"
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

// One benchmark per experiment in the experiments.All index (E1–E17). Each
// iteration regenerates the experiment's table and fails the benchmark on
// any MISMATCH/FAIL row, so `go test -bench=.` doubles as the reproduction
// harness.

func benchExperiment(b *testing.B, id string) {
	b.Helper()
	var runner experiments.Runner
	for _, r := range experiments.All() {
		if r.ID == id {
			runner = r
		}
	}
	if runner.Run == nil {
		b.Fatalf("unknown experiment %s", id)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		table, err := runner.Run()
		if err != nil {
			b.Fatalf("%s: %v", id, err)
		}
		if text := table.Render(); strings.Contains(text, "MISMATCH") || strings.Contains(text, "FAIL") {
			b.Fatalf("%s has failing rows:\n%s", id, text)
		}
	}
}

func BenchmarkE1Figure1(b *testing.B)                    { benchExperiment(b, "E1") }
func BenchmarkE2UninterpretedSimplex(b *testing.B)       { benchExperiment(b, "E2") }
func BenchmarkE3Pseudosphere(b *testing.B)               { benchExperiment(b, "E3") }
func BenchmarkE4Shellability(b *testing.B)               { benchExperiment(b, "E4") }
func BenchmarkE5SimpleBounds(b *testing.B)               { benchExperiment(b, "E5") }
func BenchmarkE6GeneralUpper(b *testing.B)               { benchExperiment(b, "E6") }
func BenchmarkE7GeneralLower(b *testing.B)               { benchExperiment(b, "E7") }
func BenchmarkE8CycleProduct(b *testing.B)               { benchExperiment(b, "E8") }
func BenchmarkE9CoveringSequences(b *testing.B)          { benchExperiment(b, "E9") }
func BenchmarkE10StarUnions(b *testing.B)                { benchExperiment(b, "E10") }
func BenchmarkE11UninterpretedConnectivity(b *testing.B) { benchExperiment(b, "E11") }
func BenchmarkE12MultiRound(b *testing.B)                { benchExperiment(b, "E12") }
func BenchmarkE13TournamentGap(b *testing.B)             { benchExperiment(b, "E13") }
func BenchmarkE14StarUnions7(b *testing.B)               { benchExperiment(b, "E14") }
func BenchmarkE15RandomModels(b *testing.B)              { benchExperiment(b, "E15") }
func BenchmarkE16RoundProducts(b *testing.B)             { benchExperiment(b, "E16") }
func BenchmarkE17DynamicRotatingStars(b *testing.B)      { benchExperiment(b, "E17") }

// Micro-benchmarks for the core computations the experiments are built on.

func BenchmarkDominationNumber(b *testing.B) {
	g, err := graph.BidirectionalRing(12)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		// Each node covers 3 consecutive ring positions: γ = ⌈12/3⌉ = 4.
		if got := combinat.DominationNumber(g); got != 4 {
			b.Fatalf("γ = %d, want 4", got)
		}
	}
}

func BenchmarkEqualDomination(b *testing.B) {
	g, err := graph.Cycle(20)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if got := combinat.EqualDominationNumber(g); got != 19 {
			b.Fatalf("γ_eq = %d, want 19", got)
		}
	}
}

func BenchmarkCoveringNumbers(b *testing.B) {
	g, err := graph.Cycle(14)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		for idx := 1; idx <= 7; idx++ {
			if _, err := combinat.CoveringNumber(g, idx); err != nil {
				b.Fatal(err)
			}
		}
	}
}

func BenchmarkDistributedDomination(b *testing.B) {
	m, err := model.UnionOfStarsModel(6, 2)
	if err != nil {
		b.Fatal(err)
	}
	gens := m.Generators()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := combinat.DistributedDominationNumber(gens); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkGraphProductPower(b *testing.B) {
	g, err := graph.Cycle(32)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := graph.Power(g, 8); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSymClosure(b *testing.B) {
	// Memoization off: this tracks the n! sweep itself, not the cache (see
	// BenchmarkModelConstructionMemo for the cached path).
	g, err := graph.UnionOfStars(6, []int{0, 1})
	if err != nil {
		b.Fatal(err)
	}
	defer memo.SetEnabled(memo.Enabled())
	memo.SetEnabled(false)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		closure, err := graph.SymClosure([]graph.Digraph{g})
		if err != nil || len(closure) != 15 {
			b.Fatalf("closure %d graphs, err %v", len(closure), err)
		}
	}
}

func BenchmarkEnumerateClosure(b *testing.B) {
	// Mask-level streaming sweep of the n=5 star closure (5·2^16 ranks).
	m, err := model.NonEmptyKernelModel(5)
	if err != nil {
		b.Fatal(err)
	}
	e, err := m.Enumeration()
	if err != nil {
		b.Fatal(err)
	}
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

func BenchmarkModelConstructionMemo(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := model.UnionOfStarsModel(6, 2); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkModelConstructionCold(b *testing.B) {
	defer memo.SetEnabled(memo.Enabled())
	memo.SetEnabled(false)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := model.UnionOfStarsModel(6, 2); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkProtocolComplexBuild(b *testing.B) {
	m, err := model.NonEmptyKernelModel(3)
	if err != nil {
		b.Fatal(err)
	}
	inputs, err := topology.InputAssignments(3, 3)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := topology.ProtocolComplexOneRound(m.Generators(), inputs); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkHomologyBetti(b *testing.B) {
	m, err := model.NonEmptyKernelModel(4)
	if err != nil {
		b.Fatal(err)
	}
	c, err := topology.UninterpretedComplex(m.Generators())
	if err != nil {
		b.Fatal(err)
	}
	ac, _, err := c.ToAbstract()
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		betti, err := topology.ReducedBettiNumbers(ac, 2)
		if err != nil {
			b.Fatal(err)
		}
		for _, v := range betti {
			if v != 0 {
				b.Fatalf("betti %v, want zeros", betti)
			}
		}
	}
}

func BenchmarkHomologyBettiPseudosphere64k(b *testing.B) {
	// 9 colors, mixed 3/2 views: 82943 distinct simplexes (> 64k) with
	// 9-vertex facets — no packing width fits, so the seed fast path
	// rejects the instance outright and only the sparse engine carries it.
	ac, err := topology.PseudosphereComplex([]int{3, 3, 3, 3, 3, 2, 2, 2, 2})
	if err != nil {
		b.Fatal(err)
	}
	if topology.PackedHomologyCapable(ac, 7) {
		b.Fatal("instance unexpectedly fits the packed path")
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		betti, err := topology.ReducedBettiNumbers(ac, 7)
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

func BenchmarkHomologyBettiSparseVsPacked(b *testing.B) {
	// The seed HomologyBetti workload driven through the sparse engine
	// explicitly (the tracked HomologyBetti benchmark measures whatever the
	// default engine is): apples-to-apples against the packed oracle.
	m, err := model.NonEmptyKernelModel(4)
	if err != nil {
		b.Fatal(err)
	}
	c, err := topology.UninterpretedComplex(m.Generators())
	if err != nil {
		b.Fatal(err)
	}
	ac, _, err := c.ToAbstract()
	if err != nil {
		b.Fatal(err)
	}
	b.Run("sparse", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := topology.ReducedBettiNumbers(ac, 2); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("packed", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := topology.ReducedBettiNumbersOracle(ac, 2); err != nil {
				b.Fatal(err)
			}
		}
	})
}

func BenchmarkHomologyBettiPseudosphere512k(b *testing.B) {
	// 12 colors × 2 views: 531440 distinct simplexes (> 2^19) with 12-vertex
	// facets — the hybrid engine's scale row (packed 5-bit level keys,
	// apparent pairs); the seed packed path rejects it outright.
	views := make([]int, 12)
	for i := range views {
		views[i] = 2
	}
	ac, err := topology.PseudosphereComplex(views)
	if err != nil {
		b.Fatal(err)
	}
	if topology.PackedHomologyCapable(ac, 10) {
		b.Fatal("instance unexpectedly fits the packed path")
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		betti, err := topology.ReducedBettiNumbers(ac, 10)
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

func BenchmarkExecutorRun(b *testing.B) {
	g, err := graph.BidirectionalRing(8)
	if err != nil {
		b.Fatal(err)
	}
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

func BenchmarkWorstCaseSweep(b *testing.B) {
	m, err := model.NonEmptyKernelModel(3)
	if err != nil {
		b.Fatal(err)
	}
	gens := m.Generators()
	algo := protocol.MinAlgorithm{R: 1}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		res, err := protocol.WorstCase(gens, 3, 1, algo, 1_000_000)
		if err != nil || res.WorstDistinct != 3 {
			b.Fatalf("worst %d, err %v", res.WorstDistinct, err)
		}
	}
}

func BenchmarkDecisionMapSolver(b *testing.B) {
	m, err := model.NonEmptyKernelModel(3)
	if err != nil {
		b.Fatal(err)
	}
	all, err := m.AllGraphs()
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		res, err := protocol.SolveOneRound(all, 3, 2, 50_000_000)
		if err != nil || res.Solvable {
			b.Fatalf("solvable=%v err=%v, want impossibility", res.Solvable, err)
		}
	}
}

func BenchmarkSolveOneRoundParallel(b *testing.B) {
	// The n=4 star-closure impossibility with the probe limit forced low,
	// so the full work-stealing pipeline runs: decomposition into ~64
	// value-branch prefixes, the shared task deque, per-task conflict
	// learning and the rank-ordered reduction. Results (including node
	// statistics) are pinned identical at every -parallelism setting.
	m, err := model.NonEmptyKernelModel(4)
	if err != nil {
		b.Fatal(err)
	}
	all, err := m.AllGraphs()
	if err != nil {
		b.Fatal(err)
	}
	protocol.SetSearchProbeLimit(16)
	defer protocol.SetSearchProbeLimit(0)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		res, err := protocol.SolveOneRound(all, 4, 3, 50_000_000)
		if err != nil || res.Solvable || res.Stats.Tasks == 0 {
			b.Fatalf("solvable=%v tasks=%d err=%v, want work-stealing impossibility run",
				res.Solvable, res.Stats.Tasks, err)
		}
	}
}

// BenchmarkCheckpointOverhead mirrors BenchmarkSolveOneRoundParallel with a
// live checkpoint runner attached (frontier bookkeeping, capture
// registration, one full checkpoint write per iteration); the pair bounds
// what durability costs on the hot solve path (budget < 5%).
func BenchmarkCheckpointOverhead(b *testing.B) {
	m, err := model.NonEmptyKernelModel(4)
	if err != nil {
		b.Fatal(err)
	}
	all, err := m.AllGraphs()
	if err != nil {
		b.Fatal(err)
	}
	protocol.SetSearchProbeLimit(16)
	defer protocol.SetSearchProbeLimit(0)
	path := filepath.Join(b.TempDir(), "solver.ckpt")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		r := checkpoint.NewRunner(path, "bench", 0)
		ctx := checkpoint.WithRunner(context.Background(), r)
		res, err := protocol.SolveOneRoundCtx(ctx, all, 4, 3, 50_000_000)
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

// BenchmarkResumeWarm measures only the resumed completion of a refutation
// killed at its first parallel task — how much of a solve a crash re-pays.
func BenchmarkResumeWarm(b *testing.B) {
	m, err := model.NonEmptyKernelModel(4)
	if err != nil {
		b.Fatal(err)
	}
	all, err := m.AllGraphs()
	if err != nil {
		b.Fatal(err)
	}
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
			all, 4, 3, 50_000_000)
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
			all, 4, 3, 50_000_000)
		if err != nil || res.Solvable {
			b.Fatalf("solvable=%v err=%v, want resumed impossibility", res.Solvable, err)
		}
	}
}

func BenchmarkSolveOneRoundSeqCapped(b *testing.B) {
	// The sequential-oracle baseline on the SAME instance, capped at 100k
	// nodes (which it always exhausts — the honest chronological search
	// needs millions of nodes here, while the learning engine above
	// refutes the instance outright in a few hundred). This tracks the
	// oracle's per-node cost and documents the engine gap in the snapshot.
	m, err := model.NonEmptyKernelModel(4)
	if err != nil {
		b.Fatal(err)
	}
	all, err := m.AllGraphs()
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		res, err := protocol.SolveOneRoundSeq(context.Background(), all, 4, 3, 100_000)
		if err == nil || res.Solvable {
			b.Fatalf("want the oracle to exhaust its 100k-node cap, got solvable=%v err=%v", res.Solvable, err)
		}
	}
}

func BenchmarkSolveOneRoundClosure(b *testing.B) {
	// The n=4 star-closure impossibility (1695 graphs × 256 assignments):
	// the sharded assignments × lists sweep plus the flat search tables.
	m, err := model.NonEmptyKernelModel(4)
	if err != nil {
		b.Fatal(err)
	}
	all, err := m.AllGraphs()
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		res, err := protocol.SolveOneRound(all, 4, 3, 50_000_000)
		if err != nil || res.Solvable {
			b.Fatalf("solvable=%v err=%v, want impossibility", res.Solvable, err)
		}
	}
}

// BenchmarkObsOverhead mirrors BenchmarkSolveOneRoundClosure with the
// observability layer's gated paths switched off; the pair bounds the cost
// of the default-on instrumentation on the hot solve path (budget ≲ 1%).
func BenchmarkObsOverhead(b *testing.B) {
	m, err := model.NonEmptyKernelModel(4)
	if err != nil {
		b.Fatal(err)
	}
	all, err := m.AllGraphs()
	if err != nil {
		b.Fatal(err)
	}
	obs.SetEnabled(false)
	defer obs.SetEnabled(true)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		res, err := protocol.SolveOneRound(all, 4, 3, 50_000_000)
		if err != nil || res.Solvable {
			b.Fatalf("solvable=%v err=%v, want impossibility", res.Solvable, err)
		}
	}
}

// BenchmarkDistSweepCount mirrors the ksetbench DistSweepCount row: a full
// coordinated count sweep over 3 in-process workers on the n=5 star closure,
// checked byte-identical against the sequential engine every iteration.
func BenchmarkDistSweepCount(b *testing.B) {
	workers, stop := benchDistWorkers(b, 3)
	defer stop()
	job := dist.Job{Op: dist.OpCount, Model: "star:n=5"}
	want, err := dist.RunSequential(context.Background(), job)
	if err != nil {
		b.Fatal(err)
	}
	c := dist.NewCoordinator(dist.CoordConfig{
		Workers:        workers,
		Shards:         24,
		DisableHedging: true,
		Logf:           func(string, ...any) {},
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

// BenchmarkDistQuorumVerify mirrors the ksetbench DistQuorumVerify row: the
// DistSweepCount sweep with VerifyFraction 1 on an honest fleet — the price
// of re-executing every committed shard on a distinct replica and
// byte-comparing before the merge.
func BenchmarkDistQuorumVerify(b *testing.B) {
	workers, stop := benchDistWorkers(b, 3)
	defer stop()
	job := dist.Job{Op: dist.OpCount, Model: "star:n=5"}
	want, err := dist.RunSequential(context.Background(), job)
	if err != nil {
		b.Fatal(err)
	}
	c := dist.NewCoordinator(dist.CoordConfig{
		Workers:        workers,
		Shards:         24,
		DisableHedging: true,
		VerifyFraction: 1,
		Logf:           func(string, ...any) {},
	})
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		got, err := c.Run(context.Background(), job)
		if err != nil {
			b.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			b.Fatal("verified sweep differs from sequential reference")
		}
	}
}

// BenchmarkDistRecovery mirrors the ksetbench DistRecovery row: the timed
// portion is a coordinator warm-restart on a journal holding 11 of 24 shard
// commits (the untimed setup kills a fresh coordinator at the 12th commit).
func BenchmarkDistRecovery(b *testing.B) {
	workers, stop := benchDistWorkers(b, 3)
	defer stop()
	cfg := dist.CoordConfig{
		Workers:        workers,
		Shards:         24,
		DisableHedging: true,
		JournalPath:    filepath.Join(b.TempDir(), "sweep.journal"),
		Logf:           func(string, ...any) {},
	}
	job := dist.Job{Op: dist.OpEnum, Model: "star:n=4"}
	want, err := dist.RunSequential(context.Background(), job)
	if err != nil {
		b.Fatal(err)
	}
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

func benchDistWorkers(b *testing.B, n int) ([]string, func()) {
	b.Helper()
	addrs := make([]string, n)
	servers := make([]*httptest.Server, n)
	for i := range addrs {
		w := dist.NewWorker(dist.WorkerConfig{Logf: func(string, ...any) {}})
		servers[i] = httptest.NewServer(w.Handler())
		addrs[i] = strings.TrimPrefix(servers[i].URL, "http://")
	}
	return addrs, func() {
		for _, ts := range servers {
			ts.Close()
		}
	}
}
