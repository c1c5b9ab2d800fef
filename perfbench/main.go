// Command perfbench is the repository benchmark. It drives the real binaries
// (ksetexperiments, ksetserved, ksetsweepd) from one load-generating process,
// checks every answer, and prints every metric by name with its unit; the last
// line of standard output is the JSON result.
//
// Build and run it from the repository root with run.sh beside this file:
//
//	bash perfbench/run.sh --workload query-cold --seed 1 --seconds 15 --trace 0
//
// Workloads: query-hot, query-cold and sweep, those of BENCHMARK.json, and
// reproduce, which is run by hand (see README.md). With
// --trace 0 the run reports the end-to-end metrics; with --trace 1 it
// reports the per-layer metrics instead, timing calls into each layer from
// this process and running the workload once untraced and once with the
// daemons' span recording on.
package main

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"time"

	"ksettop/internal/cli"
	"ksettop/internal/dist"
	"ksettop/internal/memo"
)

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// perLayer lists every per-layer metric with its unit. A traced run reports
// all of them; a layer the workload does not call did no work in it and
// reads 0.
var perLayer = func() [][2]string {
	var l [][2]string
	for i := 1; i <= 17; i++ {
		l = append(l, [2]string{fmt.Sprintf("experiments.E%d_ms", i), "ms"})
	}
	l = append(l, [][2]string{
		{"core.verify_upper_ms", "ms"}, {"core.verify_lower_ms", "ms"},
		{"protocol.solve_ms", "ms"}, {"protocol.solve_p1_ms", "ms"},
		{"protocol.nodes", "count"}, {"protocol.probe_nodes", "count"}, {"protocol.task_nodes", "count"},
		{"protocol.tasks", "count"}, {"protocol.shared_nogoods", "count"},
		{"topology.complex_build_ms", "ms"},
		{"homology.levels_ms", "ms"}, {"homology.reduce_ms", "ms"}, {"homology.reduce_p1_ms", "ms"},
		{"homology.simplexes", "count"},
		{"model.enumerate_ms", "ms"}, {"model.enumerate_p1_ms", "ms"}, {"model.graphs", "count"},
		{"par.speedup.protocol", "x"}, {"par.speedup.homology", "x"}, {"par.speedup.enumerate", "x"},
	}...)
	for _, ep := range []string{"bounds", "solve", "betti"} {
		l = append(l,
			[2]string{"serve." + ep + ".http_p50_ms", "ms"},
			[2]string{"serve." + ep + ".compute_p50_ms", "ms"},
			[2]string{"serve." + ep + ".overhead_p50_ms", "ms"})
	}
	return append(l, [][2]string{
		{"cli.parse_p50_ms", "ms"},
		{"memo.hit_ratio", "ratio"}, {"memo.misses", "count"},
		{"memo.snapshot_load_ms", "ms"}, {"memo.snapshot_bytes", "bytes"},
		{"serve.shared", "count"}, {"serve.overloaded", "count"}, {"serve.timeouts", "count"},
		{"dist.sweep_p50_ms", "ms"}, {"dist.local_p50_ms", "ms"}, {"model.count_p50_ms", "ms"},
		{"dist.overhead_p50_ms", "ms"},
		{"dist.leases_granted", "count"}, {"dist.retries", "count"}, {"dist.hedges", "count"},
		{"dist.useful_ratio", "ratio"}, {"dist.worker_shard_share_max", "ratio"},
		{"dist.worker_peak_rss_mb", "MB"},
		{"trace.overhead_pct", "%"},
	}...)
}()

type bench struct {
	bin, work string
	seed      uint64
	seconds   time.Duration
	out       io.Writer
}

func main() {
	workload := flag.String("workload", "", "reproduce | query-hot | query-cold | sweep")
	seed := flag.Uint64("seed", 1, "workload seed: the same seed replays the same inputs")
	seconds := flag.Int("seconds", 15, "length of the measured window")
	trace := flag.Int("trace", 0, "1 = traced run reporting the per-layer metrics")
	bin := flag.String("bin", ".bench_build/bin", "directory holding the built binaries")
	work := flag.String("work", ".bench_build/work", "scratch directory for logs, snapshots and traces")
	flag.Parse()

	b := &bench{bin: *bin, work: *work, seed: *seed, seconds: time.Duration(*seconds) * time.Second, out: os.Stdout}
	res, err := b.run(*workload, *trace == 1)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if !res.Correct {
		os.Exit(1)
	}
}

func (b *bench) run(workload string, traced bool) (*result, error) {
	if b.seconds <= 0 {
		return nil, errors.New("--seconds must be positive")
	}
	for _, name := range []string{"ksetexperiments", "ksetserved", "ksetsweepd"} {
		if _, err := os.Stat(filepath.Join(b.bin, name)); err != nil {
			return nil, fmt.Errorf("binary under test: %w (build with perfbench/run.sh)", err)
		}
	}
	if err := os.MkdirAll(b.work, 0o755); err != nil {
		return nil, err
	}
	fmt.Fprintf(b.out, "workload=%s seed=%d seconds=%v trace=%v\n", workload, b.seed, b.seconds, traced)
	fmt.Fprintf(b.out, "nproc=%d GOMAXPROCS=%d go=%s\n", runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version())
	var w *window
	layers := map[string]float64{}
	put := func(name string, v float64) { layers[name] = v }
	var err error
	switch workload {
	case "reproduce":
		w, err = b.runReproduce(traced, put)
	case "query-hot":
		w, err = b.runHot(traced, put)
	case "query-cold":
		w, err = b.runCold(traced, put)
	case "sweep":
		w, err = b.runSweep(traced, put)
	default:
		return nil, fmt.Errorf("unknown --workload %q (reproduce, query-hot, query-cold, sweep)", workload)
	}
	if err != nil {
		return nil, err
	}
	b.report(w)
	attempted, failed := w.counts()
	res := &result{Correct: w.correct(), Attempted: attempted, Failed: failed, Metrics: map[string]metric{}}
	if !traced {
		res.Metrics = w.metrics()
		for _, name := range []string{"setup_s", "throughput_ops", "latency_p50_ms", "latency_tail_ms", "cpu_ms_per_op", "peak_rss_mb"} {
			fmt.Fprintf(b.out, "%-32s %14.4f %s\n", name, res.Metrics[name].Value, res.Metrics[name].Unit)
		}
		return res, nil
	}
	var idle []string
	for _, nu := range perLayer {
		v, ok := layers[nu[0]]
		if !ok {
			idle = append(idle, nu[0])
		}
		res.Metrics[nu[0]] = metric{v, nu[1]}
		if ok {
			fmt.Fprintf(b.out, "%-32s %14.4f %s\n", nu[0], v, nu[1])
		}
	}
	for name := range layers {
		if _, ok := res.Metrics[name]; !ok {
			return nil, fmt.Errorf("layer metric %q is not in the per-layer list", name)
		}
	}
	fmt.Fprintf(b.out, "not called by %s (reported as 0): %s\n", workload, strings.Join(idle, " "))
	return res, nil
}

// tracedPair runs the workload untraced, then with span recording on, and
// reports the throughput cost of tracing. The untraced window is the one
// returned; both windows' answers are checked.
func tracedPair(put func(string, float64), run func(traceDir string) (*window, error), traceDir string) (*window, error) {
	plain, err := run("")
	if err != nil {
		return nil, err
	}
	traced, err := run(traceDir)
	if err != nil {
		return nil, err
	}
	tp := func(w *window) float64 {
		attempted, failed := w.own()
		return float64(attempted-failed) / w.elapsed.Seconds()
	}
	put("trace.overhead_pct", 100*(tp(plain)-tp(traced))/tp(plain))
	plain.other.attempted, plain.other.failed = traced.counts()
	plain.other.wrong = !traced.correct()
	return plain, nil
}

func (b *bench) runReproduce(traced bool, put func(string, float64)) (*window, error) {
	if !traced {
		return b.reproduce("", reproduceRuns, b.seconds)
	}
	// The traced pair only compares throughput: one run in each window.
	w, err := tracedPair(put, func(traceDir string) (*window, error) {
		if traceDir == "" {
			return b.reproduce("", 1, 0)
		}
		return b.reproduce(filepath.Join(traceDir, "ksetexperiments.trace.json"), 1, 0)
	}, b.work)
	if err != nil {
		return nil, err
	}
	return w, reproduceLayers(put)
}

func (b *bench) runHot(traced bool, put func(string, float64)) (*window, error) {
	hs, err := b.prepareHot()
	if err != nil {
		return nil, err
	}
	dr := b.hotRun(hs)
	measure := func(traceDir string) (*window, error) {
		reps := setupReps
		if traced {
			reps = 1
		}
		w, err := b.measure(dr, reps, traceDir)
		if err != nil {
			return nil, err
		}
		w.markInline()
		return w, nil
	}
	if !traced {
		return measure("")
	}
	w, err := tracedPair(put, measure, b.work)
	if err != nil {
		return nil, err
	}
	// Layer calls over the stream's first operations, on models this
	// process has already built (the hot path's memo hits).
	qs, err := answered(w, dr.query)
	if err != nil {
		return nil, err
	}
	if len(qs) > 3000 {
		qs = qs[:3000]
	}
	if err := serveLayers(put, w, qs, nil); err != nil {
		return nil, err
	}
	var load []float64
	for i := 0; i < layerReps; i++ {
		start := time.Now()
		if err := memo.LoadSnapshot(hs.snap); err != nil {
			return nil, err
		}
		load = append(load, ms(time.Since(start)))
	}
	put("memo.snapshot_load_ms", median(load))
	st, err := os.Stat(hs.snap)
	if err != nil {
		return nil, err
	}
	put("memo.snapshot_bytes", float64(st.Size()))
	return w, nil
}

func (b *bench) runCold(traced bool, put func(string, float64)) (*window, error) {
	// Every model is distinct, the fill's included.
	s, err := newStream(coldDraws(b.seed), fillOps+coldPrefixPerSecond*int(b.seconds/time.Second))
	if err != nil {
		return nil, err
	}
	dr := b.coldRun(s)
	var qs []Query
	var took []timing
	measure := func(traceDir string) (*window, error) {
		reps, workers := setupReps, 2
		if traced {
			// The untraced window's references are timed for the layer
			// metrics, so they run one at a time.
			reps = 1
			if traceDir == "" {
				workers = 1
			}
		}
		w, err := b.measure(dr, reps, traceDir)
		if err != nil {
			return nil, err
		}
		if qs, err = answered(w, dr.query); err != nil {
			return nil, err
		}
		var want [][]byte
		if want, took, err = references(qs, workers); err != nil {
			return nil, err
		}
		w.check(qs, want)
		return w, nil
	}
	if !traced {
		return measure("")
	}
	var plainQs []Query
	var plainTook []timing
	w, err := tracedPair(put, func(traceDir string) (*window, error) {
		w, err := measure(traceDir)
		if traceDir == "" {
			plainQs, plainTook = qs, took
		}
		return w, err
	}, b.work)
	if err != nil {
		return nil, err
	}
	// The references were this process's first parse of each model and its
	// first engine call on it: the cold path.
	if err := serveLayers(put, w, plainQs, plainTook); err != nil {
		return nil, err
	}
	// The engines query-cold's requests reach are the ones behind E1–E17;
	// reproduce is not a workload of BENCHMARK.json, so they are timed here.
	return w, reproduceLayers(put)
}

// serveLayers reports, per endpoint, the HTTP latency of the window's
// operations, the in-process time of the same engine call on the same parsed
// model, and their difference; the cli.ParseModel time; and the server's memo
// and /statz counters. took holds the reference timings of qs when the caller
// already has them.
func serveLayers(put func(string, float64), w *window, qs []Query, took []timing) error {
	if took == nil {
		took = make([]timing, len(qs))
		for i, q := range qs {
			var err error
			if _, took[i], err = reference(context.Background(), q); err != nil {
				return err
			}
		}
	}
	httpMS, computeMS := map[string][]float64{}, map[string][]float64{}
	var parseMS []float64
	for i, q := range qs {
		if w.results[i].err == nil {
			httpMS[q.Endpoint] = append(httpMS[q.Endpoint], ms(w.results[i].latency))
			computeMS[q.Endpoint] = append(computeMS[q.Endpoint], ms(took[i].compute))
			parseMS = append(parseMS, ms(took[i].parse))
		}
	}
	put("cli.parse_p50_ms", median(parseMS))
	for _, ep := range []string{"bounds", "solve", "betti"} {
		h, c := median(httpMS[ep]), median(computeMS[ep])
		put("serve."+ep+".http_p50_ms", h)
		put("serve."+ep+".compute_p50_ms", c)
		put("serve."+ep+".overhead_p50_ms", h-c)
	}
	serverLayers(put, w)
	return nil
}

// serverLayers reports the server-side counters read around the window.
func serverLayers(put func(string, float64), w *window) {
	hits, misses := w.memoHits, w.memoMisses
	if hits+misses > 0 {
		put("memo.hit_ratio", hits/(hits+misses))
	} else {
		put("memo.hit_ratio", 0)
	}
	put("memo.misses", misses)
	a, b := w.statzAfter, w.statzBefore
	put("serve.shared", float64(a.Shared-b.Shared))
	put("serve.overloaded", float64(a.Overloaded-b.Overloaded))
	put("serve.timeouts", float64(a.Timeouts-b.Timeouts))
}

func (b *bench) runSweep(traced bool, put func(string, float64)) (*window, error) {
	s, err := newStream(sweepDraws(b.seed, fillOps), fillOps+sweepPrefixPerSecond*int(b.seconds/time.Second))
	if err != nil {
		return nil, err
	}
	var execsBefore, execs []uint64 // per worker, over the window
	var workerRSS []float64
	var coordMS, localMS, countMS []float64
	before := func(f *fleet) error {
		var err error
		execsBefore, err = workerExecs(f)
		return err
	}
	after := func(f *fleet) error {
		var err error
		if execs, err = workerExecs(f); err != nil {
			return err
		}
		for i := range execs {
			execs[i] -= execsBefore[i]
		}
		workerRSS = workerRSS[:0]
		for _, d := range f.daemons[:len(workerAddrs)] {
			s, err := readProc(d.cmd.Process.Pid)
			if err != nil {
				return err
			}
			workerRSS = append(workerRSS, float64(s.hwmKB)/1024)
		}
		if !traced || coordMS != nil {
			return nil
		}
		// In-process coordinator against the same two workers, the local
		// engine with the same shard count, and the model's own count, one
		// after another on the first counts of the window.
		ctx, cancel := context.WithCancel(context.Background())
		defer cancel()
		coord := dist.NewCoordinator(dist.CoordConfig{Workers: workerAddrs})
		coord.Start(ctx)
		shards := 8 * len(workerAddrs)
		for _, q := range s.qs[fillOps : fillOps+40] {
			job := dist.Job{Op: dist.OpCount, Model: q.Model}
			start := time.Now()
			remote, err := coord.Run(ctx, job)
			if err != nil {
				return err
			}
			coordMS = append(coordMS, ms(time.Since(start)))
			start = time.Now()
			local, err := dist.RunLocal(ctx, job, shards)
			if err != nil {
				return err
			}
			localMS = append(localMS, ms(time.Since(start)))
			m, err := cli.ParseModel(q.Model)
			if err != nil {
				return err
			}
			start = time.Now()
			count, err := m.GraphCountCtx(ctx)
			if err != nil {
				return err
			}
			countMS = append(countMS, ms(time.Since(start)))
			if want, err := dist.DecodeCount(local); err != nil || string(remote) != string(local) || want != int64(count) {
				return fmt.Errorf("dist: coordinator, local and model counts differ for %s", q.Model)
			}
		}
		return nil
	}
	dr := b.sweepRun(s, before, after)
	measure := func(traceDir string) (*window, error) {
		reps := setupReps
		if traced {
			reps = 1
		}
		w, err := b.measure(dr, reps, traceDir)
		if err != nil {
			return nil, err
		}
		qs, err := answered(w, dr.query)
		if err != nil {
			return nil, err
		}
		want, _, err := references(qs, 2)
		if err != nil {
			return nil, err
		}
		w.check(qs, want)
		fmt.Fprintf(b.out, "workers: %s; shard executions in the window %v; coordinator %s\n",
			strings.Join(workerAddrs, " "), execs, serverAddr)
		return w, nil
	}
	if !traced {
		return measure("")
	}
	var plainExecs []uint64
	var plainRSS []float64
	w, err := tracedPair(put, func(traceDir string) (*window, error) {
		w, err := measure(traceDir)
		if err == nil && traceDir == "" {
			plainExecs = execs
			plainRSS = append([]float64(nil), workerRSS...)
		}
		return w, err
	}, b.work)
	if err != nil {
		return nil, err
	}
	serverLayers(put, w)
	sweep, local := median(coordMS), median(localMS)
	put("dist.sweep_p50_ms", sweep)
	put("dist.local_p50_ms", local)
	put("dist.overhead_p50_ms", sweep-local)
	put("model.count_p50_ms", median(countMS))
	if a, b := w.statzAfter.Dist, w.statzBefore.Dist; a != nil && b != nil {
		leases := a.LeasesGranted - b.LeasesGranted
		put("dist.leases_granted", float64(leases))
		put("dist.retries", float64(a.Retries-b.Retries))
		put("dist.hedges", float64(a.Hedges-b.Hedges))
		if leases > 0 {
			put("dist.useful_ratio", float64(a.ShardsCommitted-b.ShardsCommitted)/float64(leases))
		}
	}
	var total, busiest uint64
	for _, e := range plainExecs {
		total += e
		busiest = max(busiest, e)
	}
	if total > 0 {
		put("dist.worker_shard_share_max", float64(busiest)/float64(total))
	}
	peak := 0.0
	for _, r := range plainRSS {
		peak = max(peak, r)
	}
	put("dist.worker_peak_rss_mb", peak)
	return w, nil
}

// promCounter reads one counter from a Prometheus text exposition.
func promCounter(text []byte, name string) float64 {
	sc := bufio.NewScanner(strings.NewReader(string(text)))
	for sc.Scan() {
		if v, ok := strings.CutPrefix(sc.Text(), name+" "); ok {
			f, _ := strconv.ParseFloat(strings.TrimSpace(v), 64)
			return f
		}
	}
	return 0
}
