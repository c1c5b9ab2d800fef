// Command ksetbench runs the core micro-benchmarks in-process and writes a
// machine-readable BENCH_<n>.json snapshot, so the performance trajectory of
// the hot paths (subset sweeps, solver, homology, closures) is recorded
// PR over PR and regressions are diffable.
//
// Usage:
//
//	ksetbench                       # writes BENCH_1.json
//	ksetbench -out BENCH_7.json     # explicit snapshot name
//	ksetbench -parallelism 8        # pin the worker-pool size
//	ksetbench -filter '^Homology'   # re-measure only the matching rows
//	ksetbench -out BENCH_ci.json -against BENCH_3.json
//	                                # also fail when any benchmark shared
//	                                # with the committed snapshot regresses
//	                                # more than -regress (default 25%)
//
// With -filter, only benchmarks whose name matches the regexp run; the
// snapshot then holds just those rows, and the -against gate compares just
// those rows (do not commit a filtered snapshot as the PR baseline).
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"regexp"
	"runtime"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"ksettop/internal/bits"
	"ksettop/internal/checkpoint"
	"ksettop/internal/cli"
	"ksettop/internal/combinat"
	"ksettop/internal/dist"
	"ksettop/internal/experiments"
	"ksettop/internal/faultinject"
	"ksettop/internal/graph"
	"ksettop/internal/memo"
	"ksettop/internal/model"
	"ksettop/internal/obs"
	"ksettop/internal/par"
	"ksettop/internal/protocol"
	"ksettop/internal/serve"
	"ksettop/internal/topology"
)

type benchResult struct {
	Name        string  `json:"name"`
	Iterations  int     `json:"iterations"`
	NsPerOp     float64 `json:"ns_per_op"`
	BytesPerOp  int64   `json:"bytes_per_op"`
	AllocsPerOp int64   `json:"allocs_per_op"`
}

type snapshot struct {
	Timestamp   string        `json:"timestamp"`
	GoVersion   string        `json:"go_version"`
	GOOS        string        `json:"goos"`
	GOARCH      string        `json:"goarch"`
	GOMAXPROCS  int           `json:"gomaxprocs"`
	Parallelism int           `json:"parallelism"`
	Benchmarks  []benchResult `json:"benchmarks"`
}

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "ksetbench:", err)
		os.Exit(1)
	}
}

func run() error {
	out := flag.String("out", "BENCH_1.json", "output JSON path")
	parallelism := flag.Int("parallelism", 0, "worker-pool size (0 = KSETTOP_PARALLELISM or GOMAXPROCS)")
	memoFlag := flag.String("memo", "on", cli.MemoFlagUsage)
	against := flag.String("against", "", "previous snapshot to compare against (fails on regression)")
	regress := flag.Float64("regress", 0.25, "allowed fractional ns/op regression vs -against")
	filter := flag.String("filter", "", "regexp over benchmark names; only matches run (e.g. '^Homology')")
	solverBudget := flag.Int("solver-budget", 0, cli.SolverBudgetFlagUsage)
	clauseBudget := flag.Int("clause-budget", 0, cli.ClauseBudgetFlagUsage)
	logLevel := flag.String("log-level", "info", cli.LogLevelFlagUsage)
	traceOut := flag.String("trace-out", "", cli.TraceOutFlagUsage)
	flag.Parse()
	obs.SetProcessName("ksetbench")
	if err := cli.ApplyLogLevelFlag(*logLevel); err != nil {
		return err
	}
	flushTrace := cli.StartTraceOut(*traceOut)
	defer func() {
		if err := flushTrace(); err != nil {
			fmt.Fprintln(os.Stderr, "ksetbench: trace-out:", err)
		}
	}()
	par.SetParallelism(*parallelism)
	if err := cli.ApplyMemoFlag(*memoFlag); err != nil {
		return err
	}
	if err := cli.ApplySolverBudgetFlag(*solverBudget); err != nil {
		return err
	}
	if err := cli.ApplyClauseBudgetFlag(*clauseBudget); err != nil {
		return err
	}

	var nameRe *regexp.Regexp
	if *filter != "" {
		re, err := regexp.Compile(*filter)
		if err != nil {
			return fmt.Errorf("parsing -filter: %w", err)
		}
		nameRe = re
	}

	snap := snapshot{
		Timestamp:   time.Now().UTC().Format(time.RFC3339),
		GoVersion:   runtime.Version(),
		GOOS:        runtime.GOOS,
		GOARCH:      runtime.GOARCH,
		GOMAXPROCS:  runtime.GOMAXPROCS(0),
		Parallelism: par.Parallelism(),
	}
	for _, b := range benches() {
		if nameRe != nil && !nameRe.MatchString(b.name) {
			continue
		}
		r := testing.Benchmark(b.fn)
		snap.Benchmarks = append(snap.Benchmarks, benchResult{
			Name:        b.name,
			Iterations:  r.N,
			NsPerOp:     float64(r.T.Nanoseconds()) / float64(r.N),
			BytesPerOp:  r.AllocedBytesPerOp(),
			AllocsPerOp: r.AllocsPerOp(),
		})
		fmt.Printf("%-24s %12.0f ns/op %10d B/op %8d allocs/op\n",
			b.name, snap.Benchmarks[len(snap.Benchmarks)-1].NsPerOp,
			r.AllocedBytesPerOp(), r.AllocsPerOp())
	}

	// The service rows measure request latency percentiles, not ns/op of a
	// loop body, so they bypass testing.Benchmark; both come from one load
	// run. -filter applies per row as usual.
	if nameRe == nil || nameRe.MatchString("ServeMixedP50") || nameRe.MatchString("ServeMixedP99") {
		rows, err := serveBench()
		if err != nil {
			return fmt.Errorf("service benchmark: %w", err)
		}
		for _, row := range rows {
			if nameRe != nil && !nameRe.MatchString(row.Name) {
				continue
			}
			snap.Benchmarks = append(snap.Benchmarks, row)
			fmt.Printf("%-24s %12.0f ns/op  (latency percentile over %d requests)\n",
				row.Name, row.NsPerOp, row.Iterations)
		}
	}

	data, err := json.MarshalIndent(snap, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(*out, append(data, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Println("wrote", *out)

	if *against != "" {
		return compareAgainst(snap, *against, *regress)
	}
	return nil
}

// compareAgainst fails when any benchmark present in both snapshots got more
// than the allowed fraction slower — the CI regression gate for the
// perf-trajectory snapshots committed per PR. The baseline snapshot may be
// recorded on a different machine, so with ≥ 5 shared benchmarks every
// ratio is normalized by the suite-median slowdown (floored at 1, see
// below): a uniformly slower runner cancels out and only benchmarks that
// regressed relative to the rest of the suite trip the gate. New and
// removed benchmarks only inform.
func compareAgainst(snap snapshot, path string, allowed float64) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return fmt.Errorf("reading baseline: %w", err)
	}
	var base snapshot
	if err := json.Unmarshal(data, &base); err != nil {
		return fmt.Errorf("parsing baseline %s: %w", path, err)
	}
	baseNs := make(map[string]float64, len(base.Benchmarks))
	for _, b := range base.Benchmarks {
		baseNs[b.Name] = b.NsPerOp
	}
	type comparison struct {
		name  string
		prev  float64
		now   float64
		ratio float64
	}
	var shared []comparison
	for _, b := range snap.Benchmarks {
		prev, ok := baseNs[b.Name]
		if !ok || prev <= 0 {
			fmt.Printf("  %-24s new benchmark, no baseline\n", b.Name)
			continue
		}
		shared = append(shared, comparison{b.Name, prev, b.NsPerOp, b.NsPerOp / prev})
	}
	// speed is the suite-median ratio, floored at 1: a uniformly SLOWER
	// machine (CI runner vs the box that recorded the baseline) is divided
	// out, while a uniformly faster machine — or a broad-improvement PR —
	// never inflates unchanged benchmarks into false regressions. The dual
	// limitation is explicit: a regression uniform across the whole suite is
	// indistinguishable from slow hardware and passes; the committed
	// BENCH_<n>.json trajectory still records it in absolute terms.
	speed := 1.0
	if len(shared) >= 5 {
		ratios := make([]float64, len(shared))
		for i, c := range shared {
			ratios[i] = c.ratio
		}
		sort.Float64s(ratios)
		if med := ratios[len(ratios)/2]; med > 1 {
			speed = med
		}
	}
	fmt.Printf("\nregression check vs %s (threshold +%.0f%%, machine factor %.2fx):\n",
		path, allowed*100, speed)
	var failures []string
	for _, c := range shared {
		normalized := c.ratio / speed
		verdict := "ok"
		if normalized > 1+allowed {
			verdict = "REGRESSION"
			failures = append(failures, fmt.Sprintf("%s %.2fx", c.name, normalized))
		}
		fmt.Printf("  %-24s %.2fx normalized (%.0f → %.0f ns/op) %s\n",
			c.name, normalized, c.prev, c.now, verdict)
	}
	if len(failures) > 0 {
		return fmt.Errorf("%d benchmark(s) regressed more than %.0f%% relative to the suite median: %v",
			len(failures), allowed*100, failures)
	}
	return nil
}

// serveBench drives the bound-query service end to end — real HTTP over a
// loopback listener, four concurrent clients, a mixed solve/betti/bounds
// workload — and reports the p50/p99 request latencies as snapshot rows, so
// the service's tail behavior is tracked PR over PR alongside the engine
// micro-benchmarks. A warm-up pass issues each distinct query once first:
// the rows measure steady-state service overhead (routing, admission,
// singleflight, memoized engines), not one cold cache fill.
func serveBench() ([]benchResult, error) {
	s := serve.New(serve.Config{
		MaxConcurrent: 16,
		Logf:          func(string, ...any) {},
	})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	reqs := []struct{ path, body string }{
		{"/v1/solve", `{"model":"star:n=3","values":3,"k":2}`},
		{"/v1/betti", `{"model":"star:n=3","values":2,"max_dim":2}`},
		{"/v1/bounds", `{"model":"star:n=4","rounds":1}`},
		{"/v1/bounds", `{"model":"stars:n=5,s=2","rounds":1}`},
	}
	do := func(i int) error {
		rq := reqs[i%len(reqs)]
		resp, err := http.Post(ts.URL+rq.path, "application/json", strings.NewReader(rq.body))
		if err != nil {
			return err
		}
		defer resp.Body.Close()
		if _, err := io.Copy(io.Discard, resp.Body); err != nil {
			return err
		}
		if resp.StatusCode != http.StatusOK {
			return fmt.Errorf("%s: status %d", rq.path, resp.StatusCode)
		}
		return nil
	}
	for i := range reqs {
		if err := do(i); err != nil {
			return nil, fmt.Errorf("warm-up: %w", err)
		}
	}

	const total, clients = 400, 4
	latencies := make([]time.Duration, total)
	errs := make([]error, clients)
	var wg sync.WaitGroup
	var next atomic.Int64
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= total {
					return
				}
				start := time.Now()
				if err := do(i); err != nil {
					errs[c] = err
					return
				}
				latencies[i] = time.Since(start)
			}
		}(c)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}

	sort.Slice(latencies, func(i, j int) bool { return latencies[i] < latencies[j] })
	pct := func(p int) float64 {
		idx := total * p / 100
		if idx >= total {
			idx = total - 1
		}
		return float64(latencies[idx].Nanoseconds())
	}
	return []benchResult{
		{Name: "ServeMixedP50", Iterations: total, NsPerOp: pct(50)},
		{Name: "ServeMixedP99", Iterations: total, NsPerOp: pct(99)},
	}, nil
}

type bench struct {
	name string
	fn   func(b *testing.B)
}

// benches mirrors the root bench_test.go micro-benchmarks that track the
// paper's hot paths; keep the two lists aligned when adding benchmarks.
func benches() []bench {
	return []bench{
		{"DominationNumber", func(b *testing.B) {
			g, err := graph.BidirectionalRing(12)
			if err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if got := combinat.DominationNumber(g); got != 4 {
					b.Fatalf("γ = %d, want 4", got)
				}
			}
		}},
		{"CoveringNumbers", func(b *testing.B) {
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
		}},
		{"DistributedDomination", func(b *testing.B) {
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
		}},
		{"SymClosure", func(b *testing.B) {
			// Memoization off: this tracks the n! sweep itself, not the cache.
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
		}},
		{"HomologyBetti", func(b *testing.B) {
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
				if _, err := topology.ReducedBettiNumbers(ac, 2); err != nil {
					b.Fatal(err)
				}
			}
		}},
		{"HomologyBetti64k", func(b *testing.B) {
			// 9-color pseudosphere with 82943 distinct simplexes and
			// 9-vertex facets: past every packing width, sparse engine
			// only. Join of discrete sets ⇒ β̃_0..β̃_7 = 0.
			ac, err := topology.PseudosphereComplex([]int{3, 3, 3, 3, 3, 2, 2, 2, 2})
			if err != nil {
				b.Fatal(err)
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
		}},
		{"HomologyBetti512k", func(b *testing.B) {
			// 12 colors × 2 views: 531440 distinct simplexes (> 2^19) with
			// 12-vertex facets. The hybrid engine's packed level keys
			// (5-bit fields × 12 vertices) and apparent-pairs pass carry it
			// in seconds; the pure-sparse reduction can only grind through,
			// and the seed path rejects it outright. Join of 12 discrete
			// pairs ⇒ β̃_0..β̃_10 = 0.
			views := make([]int, 12)
			for i := range views {
				views[i] = 2
			}
			ac, err := topology.PseudosphereComplex(views)
			if err != nil {
				b.Fatal(err)
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
		}},
		{"DecisionMapSolver", func(b *testing.B) {
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
				res, err := protocol.SolveOneRound(all, 3, 2, protocol.DefaultNodeBudget())
				if err != nil || res.Solvable {
					b.Fatalf("solvable=%v err=%v, want impossibility", res.Solvable, err)
				}
			}
		}},
		{"SolveOneRoundParallel", func(b *testing.B) {
			// The n=4 star-closure impossibility with the probe limit
			// forced low: the full work-stealing pipeline (decomposition,
			// shared task deque, per-task conflict learning, rank-ordered
			// reduction) does the refutation.
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
				res, err := protocol.SolveOneRound(all, 4, 3, protocol.DefaultNodeBudget())
				if err != nil || res.Solvable || res.Stats.Tasks == 0 {
					b.Fatalf("solvable=%v tasks=%d err=%v, want work-stealing impossibility run",
						res.Solvable, res.Stats.Tasks, err)
				}
			}
		}},
		{"SolveOneRoundSeqCapped", func(b *testing.B) {
			// The sequential-oracle baseline on the same instance, capped
			// at 100k nodes (always exhausted): tracks the oracle's
			// per-node cost and records the engine gap in the snapshot.
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
		}},
		{"CheckpointOverhead", func(b *testing.B) {
			// The SolveOneRoundParallel body with a live checkpoint runner
			// attached: frontier bookkeeping and capture registration during
			// the solve, plus one full checkpoint write per iteration.
			// Comparing this row against SolveOneRoundParallel bounds what
			// durability costs on the hot solve path — the acceptance budget
			// is < 5%.
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
			dir, err := os.MkdirTemp("", "ksetbench-ckpt")
			if err != nil {
				b.Fatal(err)
			}
			defer os.RemoveAll(dir)
			path := filepath.Join(dir, "solver.ckpt")
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
		}},
		{"ResumeWarm", func(b *testing.B) {
			// Warm-resume latency: a refutation killed at its first parallel
			// task leaves a checkpoint behind; only the resumed completion is
			// timed. The row tracks how much of a solve a crash actually
			// re-pays (restored frontier tasks are skipped, the rest
			// recomputed).
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
			dir, err := os.MkdirTemp("", "ksetbench-resume")
			if err != nil {
				b.Fatal(err)
			}
			defer os.RemoveAll(dir)
			path := filepath.Join(dir, "solver.ckpt")
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
		}},
		{"SolveOneRoundClosure", func(b *testing.B) {
			// The n=4 star-closure impossibility: 1695 graphs × 256
			// assignments. The constraint sweep shards across the worker
			// pool; the PR-2 list dedup and flat tables carry the
			// single-core path.
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
				res, err := protocol.SolveOneRound(all, 4, 3, protocol.DefaultNodeBudget())
				if err != nil || res.Solvable {
					b.Fatalf("solvable=%v err=%v, want impossibility", res.Solvable, err)
				}
			}
		}},
		{"ObsOverhead", func(b *testing.B) {
			// The SolveOneRoundClosure body with the observability layer's
			// gated paths (histogram timing; tracing is off by default)
			// switched off. Comparing this row against SolveOneRoundClosure,
			// which runs with the default-on instrumentation, bounds what
			// observability costs on the hot solve path — the acceptance
			// budget is ≲ 1%.
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
				res, err := protocol.SolveOneRound(all, 4, 3, protocol.DefaultNodeBudget())
				if err != nil || res.Solvable {
					b.Fatalf("solvable=%v err=%v, want impossibility", res.Solvable, err)
				}
			}
		}},
		{"EnumerateClosure", func(b *testing.B) {
			// Mask-level streaming sweep of the n=5 star closure (5·2^16
			// ranks): the fast path behind GraphCount and the sharded
			// collectors, no Digraph materialization.
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
				_ = count
			}
		}},
		{"ModelConstructionMemo", func(b *testing.B) {
			// Repeat model construction through the canonical-key cache.
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := model.UnionOfStarsModel(6, 2); err != nil {
					b.Fatal(err)
				}
			}
		}},
		{"ModelConstructionCold", func(b *testing.B) {
			// The same construction with the cache disabled: the cold
			// baseline the memo column is measured against.
			defer memo.SetEnabled(memo.Enabled())
			memo.SetEnabled(false)
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := model.UnionOfStarsModel(6, 2); err != nil {
					b.Fatal(err)
				}
			}
		}},
		{"E10StarUnions", func(b *testing.B) {
			var runner experiments.Runner
			for _, r := range experiments.All() {
				if r.ID == "E10" {
					runner = r
				}
			}
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := runner.Run(); err != nil {
					b.Fatal(err)
				}
			}
		}},
		{"E14StarUnions7", func(b *testing.B) {
			var runner experiments.Runner
			for _, r := range experiments.All() {
				if r.ID == "E14" {
					runner = r
				}
			}
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := runner.Run(); err != nil {
					b.Fatal(err)
				}
			}
		}},
		{"DistSweepCount", func(b *testing.B) {
			// A full coordinated count sweep over 3 in-process workers
			// (real HTTP on loopback): ring placement, leases, shard
			// dispatch, CRC verification and the ordered merge — the
			// steady-state cost of the distributed tier on the n=5 star
			// closure (5·2^16 ranks, 24 shards).
			workers, stop := benchWorkers(3)
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
		}},
		{"DistQuorumVerify", func(b *testing.B) {
			// The Byzantine-defense overhead ceiling: the same coordinated
			// count sweep as DistSweepCount but with VerifyFraction 1 —
			// every committed shard re-executed on a distinct replica and
			// byte-compared before the merge. An honest fleet, so the row
			// prices pure cross-validation (second executions + vote
			// bookkeeping), not conviction or degraded serving.
			workers, stop := benchWorkers(3)
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
		}},
		{"DistRecovery", func(b *testing.B) {
			// Warm-restart recovery: a coordinator killed after journaling
			// 11 of 24 shard commits restarts on the same journal and
			// finishes the sweep. Only the resumed run is timed — the row
			// tracks how much of the sweep a restart actually pays for
			// (journaled shards are skipped, the rest recomputed).
			workers, stop := benchWorkers(3)
			defer stop()
			dir, err := os.MkdirTemp("", "ksetbench-dist")
			if err != nil {
				b.Fatal(err)
			}
			defer os.RemoveAll(dir)
			cfg := dist.CoordConfig{
				Workers:        workers,
				Shards:         24,
				DisableHedging: true,
				JournalPath:    filepath.Join(dir, "sweep.journal"),
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
		}},
	}
}

// benchWorkers starts n in-process sweep workers on loopback listeners and
// returns their addresses plus a shutdown func.
func benchWorkers(n int) ([]string, func()) {
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
