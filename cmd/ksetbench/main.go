// Command ksetbench runs every row of the benchmark registry
// (internal/bench, the rows `go test -bench` runs too) in-process, plus two
// service latency percentiles, and writes a machine-readable BENCH_<n>.json
// snapshot, so the performance trajectory of the hot paths (subset sweeps,
// solver, homology, closures) is recorded PR over PR and regressions are
// diffable.
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
//	                                # more than 25%
//
// With -filter, only benchmarks whose name matches the regexp run; the
// snapshot then holds just those rows, and the -against gate compares just
// those rows (do not commit a filtered snapshot as the PR baseline).
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"regexp"
	"runtime"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"ksettop/internal/bench"
	"ksettop/internal/cli"
	"ksettop/internal/obs"
	"ksettop/internal/par"
	"ksettop/internal/serve"
)

// regressAllowed is the regression gate's threshold: the fractional ns/op
// slowdown, relative to the suite median, that fails -against.
const regressAllowed = 0.25

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
	against := flag.String("against", "", "previous snapshot to compare against (fails on regression)")
	filter := flag.String("filter", "", "regexp over benchmark names; only matches run (e.g. '^Homology')")
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
	for _, row := range bench.All() {
		if nameRe != nil && !nameRe.MatchString(row.Name) {
			continue
		}
		r := testing.Benchmark(row.Fn)
		snap.Benchmarks = append(snap.Benchmarks, benchResult{
			Name:        row.Name,
			Iterations:  r.N,
			NsPerOp:     float64(r.T.Nanoseconds()) / float64(r.N),
			BytesPerOp:  r.AllocedBytesPerOp(),
			AllocsPerOp: r.AllocsPerOp(),
		})
		fmt.Printf("%-28s %12.0f ns/op %10d B/op %8d allocs/op\n",
			row.Name, snap.Benchmarks[len(snap.Benchmarks)-1].NsPerOp,
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
			fmt.Printf("%-28s %12.0f ns/op  (latency percentile over %d requests)\n",
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
		return compareAgainst(snap, *against, regressAllowed)
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
			fmt.Printf("  %-28s new benchmark, no baseline\n", b.Name)
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
		fmt.Printf("  %-28s %.2fx normalized (%.0f → %.0f ns/op) %s\n",
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
