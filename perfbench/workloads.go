package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"ksettop/internal/cli"
	"ksettop/internal/core"
	"ksettop/internal/memo"
	"ksettop/internal/protocol"
	"ksettop/internal/serve"
	"ksettop/internal/topology"
)

// reproduceDigest is the SHA-256 of `ksetexperiments` standard output with
// the "(Ek in …)" wall-clock lines removed: the E1–E17 tables, which are
// byte-identical at every -parallelism.
const reproduceDigest = "192e73c19ed55b788faa3a9a638e051630b2cafd006a146a1ad393f9ca0cab07"

// setupReps is the number of set-ups per end-to-end run; setup_s is their
// median.
const setupReps = 21

// reproduceRuns is the least number of E1–E17 runs in reproduce's untraced
// window, which also lasts at least --seconds. One run takes 10–16 s on two
// cores, so a 15 s window alone would hold one or two.
const reproduceRuns = 3

// Inputs drawn per measured second before the window, about three times the
// rate each workload reaches on two cores; a faster run draws the rest of its
// stream inside the window (see stream).
const (
	coldPrefixPerSecond  = 1200
	sweepPrefixPerSecond = 120
)

// fillOps distinct models are sent before the window of query-cold and
// sweep. It exceeds the daemons' 256-entry model and closure caches, so the
// window starts from the memory steady state of a long-running daemon.
const fillOps = 300

// window is one measured run: the set-ups that preceded it and the operations
// of the timed window.
type window struct {
	setup     []time.Duration
	results   []opResult
	wrong     []bool // per result: not the reference answer (see shed)
	elapsed   time.Duration
	hwmHalfKB int64       // summed VmHWM nearest half-run (daemon workloads)
	hwmEndKB  int64       // summed VmHWM at the end
	points    []procPoint // readings through the window (daemon workloads)
	opCPU     []float64   // per operation, ms (reproduce)
	tails     []float64   // candidate quantiles for latency_tail_ms, highest first

	// Server counters: memo hits and misses during the window, /statz around it.
	memoHits, memoMisses    float64
	statzBefore, statzAfter serve.Stats

	// other holds the operations of a second (traced) window, which count
	// towards attempted, failed and correct but not towards any metric.
	other struct {
		attempted, failed int
		wrong             bool
	}
}

// own counts the window's operations and those that failed or were wrong.
func (w *window) own() (attempted, failed int) {
	for i, r := range w.results {
		if r.err != nil || w.wrong[i] {
			failed++
		}
	}
	return len(w.results), failed
}

// counts adds the operations of the traced window, if any.
func (w *window) counts() (attempted, failed int) {
	attempted, failed = w.own()
	return attempted + w.other.attempted, failed + w.other.failed
}

// correct reports whether every answer matched its reference.
func (w *window) correct() bool {
	for _, wrong := range w.wrong {
		if wrong {
			return false
		}
	}
	return !w.other.wrong
}

// subWindow is the length a daemon workload's window is cut into for its
// rate metrics. The machine is a shared virtual one, and in bursts of seconds
// to minutes the hypervisor steals part of its CPU time (30% of it at worst),
// which slows every process on it. The rate and latency
// metrics are therefore taken over the quieter half of the sub-windows, those
// with the least stolen time, so a burst that covers less than half of a run
// does not move them.
const subWindow = 2 * time.Second

// subRate is one sub-window's rates and the share of the machine's CPU time
// the hypervisor stole during it.
type subRate struct {
	from, to              time.Duration
	tput, p50, cpu, steal float64
	kept                  bool // one of the quieter half
}

// summary holds what the rate and latency metrics are taken from.
type summary struct {
	tput, p50, cpu float64
	lat            []float64 // the latencies latency_tail_ms is taken over
	tail           float64   // its quantile
}

// summarize computes the rate and latency metrics. Latencies are those of the
// operations that succeeded; failed and wrong ones count against throughput.
// On the daemon workloads, throughput, median latency and CPU per operation
// are medians over the quieter half of the sub-windows (at least five, about
// 2 s each), and the tail is taken over the operations completed in them.
// reproduce, whose operations outlast any sub-window, takes each run as its
// own sub-window: throughput is the median of the runs' rates (0 for a failed
// or wrong run) and CPU per operation the median of their CPU times.
func (w *window) summarize() (summary, []subRate) {
	if len(w.points) == 0 {
		lat := w.latencies(0, w.elapsed+1)
		rates := make([]float64, len(w.results))
		for i, r := range w.results {
			if r.err == nil && !w.wrong[i] {
				rates[i] = 1 / r.latency.Seconds()
			}
		}
		return summary{
			tput: median(rates),
			p50:  median(lat),
			cpu:  median(w.opCPU),
			lat:  lat,
			tail: tailQuantile(len(lat), w.tails...),
		}, nil
	}
	n := max(5, int(w.elapsed/subWindow))
	step := w.elapsed / time.Duration(n)
	subs := make([]subRate, n)
	order := make([]int, n)
	for k := range subs {
		from, to := time.Duration(k)*step, time.Duration(k+1)*step
		if k == n-1 {
			to = w.elapsed + 1
		}
		subs[k] = w.rates(from, to)
		order[k] = k
	}
	sort.SliceStable(order, func(a, b int) bool { return subs[order[a]].steal < subs[order[b]].steal })
	var tputs, p50s, cpus, lat []float64
	for _, k := range order[:(n+1)/2] {
		sub := &subs[k]
		sub.kept = true
		tputs, p50s, cpus = append(tputs, sub.tput), append(p50s, sub.p50), append(cpus, sub.cpu)
		lat = append(lat, w.latencies(sub.from, sub.to)...)
	}
	return summary{median(tputs), median(p50s), median(cpus), lat, tailQuantile(len(lat), w.tails...)}, subs
}

// metrics are the six end-to-end metrics.
func (w *window) metrics() map[string]metric {
	setup := make([]float64, len(w.setup))
	for i, s := range w.setup {
		setup[i] = s.Seconds()
	}
	s, _ := w.summarize()
	return map[string]metric{
		"setup_s":         {median(setup), "s"},
		"throughput_ops":  {s.tput, "1/s"},
		"latency_p50_ms":  {s.p50, "ms"},
		"latency_tail_ms": {quantile(s.lat, s.tail), "ms"},
		"cpu_ms_per_op":   {s.cpu, "ms"},
		"peak_rss_mb":     {float64(w.hwmEndKB) / 1024, "MB"},
	}
}

// latencies of the successful operations completed in [from, to).
func (w *window) latencies(from, to time.Duration) []float64 {
	var lat []float64
	for i, r := range w.results {
		if r.err == nil && !w.wrong[i] && r.done >= from && r.done < to {
			lat = append(lat, ms(r.latency))
		}
	}
	return lat
}

// rates are the throughput, median latency, CPU per operation and stolen
// share of the operations completed in [from, to).
func (w *window) rates(from, to time.Duration) subRate {
	attempted := 0
	for _, r := range w.results {
		if r.done >= from && r.done < to {
			attempted++
		}
	}
	lat := w.latencies(from, to)
	a, b := nearest(w.points, from), nearest(w.points, to)
	sub := subRate{
		from: from, to: to,
		tput: float64(len(lat)) / (to - from).Seconds(),
		p50:  median(lat),
		cpu:  ms(b.cpu-a.cpu) / float64(max(attempted, 1)),
	}
	sub.steal = stolenShare(a.machine, b.machine)
	return sub
}

// stolenShare is the share of the machine's CPU ticks between two readings
// that the hypervisor stole.
func stolenShare(a, b cpuTicks) float64 {
	if all := b.all - a.all; all > 0 {
		return float64(b.stolen-a.stolen) / float64(all)
	}
	return 0
}

func (b *bench) report(w *window) {
	attempted, failed := w.own()
	s, subs := w.summarize()
	fmt.Fprintf(b.out, "window: %d ops attempted, %d failed or wrong, %.3fs, latency_tail_ms is p%g of %d samples\n",
		attempted, failed, w.elapsed.Seconds(), 100*s.tail, len(s.lat))
	if w.other.attempted > 0 {
		fmt.Fprintf(b.out, "traced window: %d ops attempted, %d failed or wrong\n", w.other.attempted, w.other.failed)
	}
	setup := make([]string, len(w.setup))
	for i, s := range w.setup {
		setup[i] = fmt.Sprintf("%.4f", s.Seconds())
	}
	fmt.Fprintf(b.out, "setup_s samples: %s\n", strings.Join(setup, " "))
	if len(w.points) == 0 {
		for i, r := range w.results {
			fmt.Fprintf(b.out, "run %d: %.4f ms, CPU %.4f ms\n", i, ms(r.latency), w.opCPU[i])
		}
		fmt.Fprintf(b.out, "peak RSS: %.1f MB, the largest ru_maxrss of the runs\n", float64(w.hwmEndKB)/1024)
	} else {
		for k, sub := range subs {
			kept := ""
			if sub.kept {
				kept = ", kept"
			}
			fmt.Fprintf(b.out, "sub-window %d: %.1f ops/s, p50 %.4f ms, CPU %.4f ms/op, %.1f%% of machine CPU stolen%s\n",
				k, sub.tput, sub.p50, sub.cpu, 100*sub.steal, kept)
		}
		fmt.Fprintf(b.out, "window: %.1f%% of machine CPU stolen by the hypervisor\n",
			100*stolenShare(w.points[0].machine, w.points[len(w.points)-1].machine))
		settled := "settled"
		if float64(w.hwmEndKB-w.hwmHalfKB) > 0.05*float64(w.hwmEndKB) {
			settled = "NOT settled: the run is too short for memory to settle"
		}
		fmt.Fprintf(b.out, "peak RSS: %.1f MB at half-run, %.1f MB at the end (%s)\n",
			float64(w.hwmHalfKB)/1024, float64(w.hwmEndKB)/1024, settled)
	}
	shown := 0
	for i, r := range w.results {
		if (r.err != nil || w.wrong[i]) && shown < 5 {
			shown++
			fmt.Fprintf(b.out, "failed op %d: err=%v wrong=%v\n", r.index, r.err, w.wrong[i])
		}
	}
}

// ---------------------------------------------------------------------------
// reproduce: ksetexperiments over E1–E17, one run at a time.

// reproduce runs E1–E17 until the window holds at least minRuns runs and
// has lasted at least minTime.
func (b *bench) reproduce(traceOut string, minRuns int, minTime time.Duration) (*window, error) {
	bin := filepath.Join(b.bin, "ksetexperiments")
	w := &window{}
	// Set-up is the binary's start-up: launch to exit with an empty
	// experiment selection.
	for i := 0; i < setupReps; i++ {
		start := time.Now()
		if out, err := command(bin, "-only", "none").CombinedOutput(); err != nil {
			return nil, fmt.Errorf("ksetexperiments start-up: %w: %s", err, out)
		}
		w.setup = append(w.setup, time.Since(start))
	}
	args := []string{}
	if traceOut != "" {
		args = append(args, "-trace-out", traceOut)
	}
	var results []opResult
	var peakKB int64
	start := time.Now()
	for i := 0; i < minRuns || time.Since(start) < minTime; i++ {
		var stdout, stderr bytes.Buffer
		cmd := command(bin, args...)
		cmd.Stdout, cmd.Stderr = &stdout, &stderr
		t0 := time.Now()
		err := cmd.Run()
		r := opResult{index: i, latency: time.Since(t0), body: stdout.Bytes()}
		if err != nil {
			r.err = fmt.Errorf("ksetexperiments: %w: %s", err, bytes.TrimSpace(stderr.Bytes()))
		}
		if cmd.ProcessState == nil {
			return nil, err // the binary did not start
		}
		if ru, ok := cmd.ProcessState.SysUsage().(*syscall.Rusage); ok {
			w.opCPU = append(w.opCPU, ms(time.Duration(ru.Utime.Nano()+ru.Stime.Nano())))
			peakKB = max(peakKB, ru.Maxrss)
		}
		results = append(results, r)
	}
	w.elapsed = time.Since(start)
	w.hwmEndKB = peakKB
	w.results = results
	w.wrong = make([]bool, len(results))
	for i, r := range results {
		// A failed run is a wrong answer: ksetexperiments exits non-zero
		// when a table has a MISMATCH or FAIL row.
		if r.err != nil {
			w.wrong[i] = true
		} else if got := tablesDigest(r.body); got != reproduceDigest {
			w.wrong[i] = true
			fmt.Fprintf(b.out, "reproduce: table digest %s, want %s\n", got, reproduceDigest)
		}
	}
	return w, nil
}

// tablesDigest hashes the experiment output without its timing lines.
func tablesDigest(out []byte) string {
	h := sha256.New()
	for _, line := range bytes.SplitAfter(out, []byte("\n")) {
		if !bytes.HasPrefix(line, []byte("(E")) {
			h.Write(line)
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

// ---------------------------------------------------------------------------
// Daemon workloads: query-hot, query-cold, sweep.

type daemonRun struct {
	clients int
	tail    []float64 // candidate tail quantiles, highest first
	specs   func(traceDir string) []daemonSpec
	prepare func() error         // before each launch, outside set-up time
	warmup  func(f *fleet) error // after readiness, inside set-up time
	fill    []Query              // sent after the last set-up, before the window
	query   func(i int) (Query, error)
	// inline, when set, checks each answer as it arrives instead of keeping
	// the body for a check after the window.
	inline func(q Query, body []byte) bool
	before func(f *fleet) error // just before the window
	after  func(f *fleet) error // after the window, before the fleet stops
}

// measure launches the fleet reps times (all but the last are stopped again),
// then drives the timed window against the last one.
func (b *bench) measure(dr daemonRun, reps int, traceDir string) (*window, error) {
	w := &window{}
	var f *fleet
	for rep := 0; rep < reps; rep++ {
		if dr.prepare != nil {
			if err := dr.prepare(); err != nil {
				return nil, err
			}
		}
		start := time.Now()
		var err error
		if f, err = launchFleet(dr.specs(traceDir), b.work); err != nil {
			return nil, err
		}
		if dr.warmup != nil {
			if err := dr.warmup(f); err != nil {
				f.kill()
				return nil, fmt.Errorf("warm-up: %w", err)
			}
		}
		w.setup = append(w.setup, time.Since(start))
		if rep < reps-1 {
			if err := f.stop(); err != nil {
				return nil, err
			}
		}
	}
	if err := sendChecked(f, dr.fill); err != nil {
		f.kill()
		return nil, fmt.Errorf("fill: %w", err)
	}
	before, err := f.sample()
	if err != nil {
		f.kill()
		return nil, err
	}
	beforeTicks := readTicks()
	metricsBefore, err := f.get(serverAddr, "/metrics")
	if err == nil {
		err = getJSON(f, serverAddr, "/statz", &w.statzBefore)
	}
	if err == nil && dr.before != nil {
		err = dr.before(f)
	}
	if err != nil {
		f.kill()
		return nil, err
	}
	smp := startSampler(100*time.Millisecond, func() (procSample, bool) {
		s, err := f.sample()
		return s, err == nil
	})
	// The load generator needs one core at most; leaving the other to the
	// daemons, and not collecting garbage mid-window, keeps it out of their
	// way.
	procs, gc := runtime.GOMAXPROCS(1), debug.SetGCPercent(800)
	var inputErr error
	w.results, w.elapsed, inputErr = closedLoop(smp.start, dr.clients, b.seconds, dr.query, func(q Query) ([]byte, error) {
		body, err := post(f.client, serverAddr, "/v1/"+q.Endpoint, q.Body())
		if err != nil || dr.inline == nil {
			return body, err
		}
		if !dr.inline(q, body) {
			return nil, errWrongAnswer
		}
		return nil, nil
	})
	runtime.GOMAXPROCS(procs)
	debug.SetGCPercent(gc)
	points := smp.finish()
	end, err := f.sample()
	if err != nil {
		f.kill()
		return nil, err
	}
	w.points = append(append([]procPoint{{0, before, beforeTicks}}, points...), procPoint{w.elapsed, end, readTicks()})
	w.hwmHalfKB = nearest(w.points, w.elapsed/2).hwmKB
	w.hwmEndKB = end.hwmKB
	for _, d := range f.daemons {
		if s, err := readProc(d.cmd.Process.Pid); err == nil {
			fmt.Fprintf(b.out, "%s: peak RSS %.1f MB, CPU %v\n", d.name, float64(s.hwmKB)/1024, s.cpu)
		}
	}
	if err := w.readServer(f, metricsBefore); err != nil {
		f.kill()
		return nil, err
	}
	if inputErr != nil {
		f.kill()
		return nil, inputErr
	}
	if dr.after != nil {
		if err := dr.after(f); err != nil {
			f.kill()
			return nil, err
		}
	}
	if err := f.stop(); err != nil {
		return nil, err
	}
	w.tails = dr.tail
	return w, nil
}

// readServer takes the memo counter deltas over the window and the server's
// /statz counters after it.
func (w *window) readServer(f *fleet, metricsBefore []byte) error {
	after, err := f.get(serverAddr, "/metrics")
	if err != nil {
		return err
	}
	w.memoHits = promCounter(after, "kset_memo_hits_total") - promCounter(metricsBefore, "kset_memo_hits_total")
	w.memoMisses = promCounter(after, "kset_memo_misses_total") - promCounter(metricsBefore, "kset_memo_misses_total")
	return getJSON(f, serverAddr, "/statz", &w.statzAfter)
}

func getJSON(f *fleet, addr, path string, v any) error {
	body, err := f.get(addr, path)
	if err != nil {
		return err
	}
	return json.Unmarshal(body, v)
}

func serverSpec(bin string, traceDir string, extra ...string) daemonSpec {
	args := append([]string{"-addr", serverAddr}, extra...)
	if traceDir != "" {
		args = append(args, "-trace-out", filepath.Join(traceDir, "ksetserved.trace.json"))
	}
	return daemonSpec{name: "ksetserved", bin: filepath.Join(bin, "ksetserved"), args: args, addr: serverAddr, probe: "/readyz"}
}

// timing is where an in-process reference spent its time: cli.ParseModel,
// then the engine call on the parsed model.
type timing struct{ parse, compute time.Duration }

// reference is the in-process answer to q in its wire form.
func reference(ctx context.Context, q Query) ([]byte, timing, error) {
	var t timing
	start := time.Now()
	m, err := cli.ParseModel(q.Model)
	if err != nil {
		return nil, t, err
	}
	t.parse = time.Since(start)
	start = time.Now()
	var v any
	switch q.Endpoint {
	case "bounds":
		a, err := core.Analyze(m, q.Rounds)
		if err != nil {
			return nil, t, err
		}
		resp := serve.BoundsResponse{N: m.N()}
		for _, b := range a.Best {
			resp.Best = append(resp.Best, serve.BoundRow{
				Rounds: b.Rounds, UpperK: b.Upper.K, UpperTheorem: b.Upper.Theorem,
				LowerK: b.Lower.K, LowerTheorem: b.Lower.Theorem, Tight: b.Tight,
			})
		}
		v = resp
	case "solve":
		all, err := m.AllGraphsCtx(ctx)
		if err != nil {
			return nil, t, err
		}
		res, err := protocol.SolveOneRoundCtx(ctx, all, q.Values, q.K, protocol.DefaultNodeBudget())
		if err != nil {
			return nil, t, err
		}
		v = serve.SolveResponse{Solvable: res.Solvable, Views: res.Views, Executions: res.Executions, Nodes: res.Nodes}
	case "betti":
		pc, err := core.ProtocolComplexOneRound(m, q.Values)
		if err != nil {
			return nil, t, err
		}
		ac, _, err := pc.ToAbstract()
		if err != nil {
			return nil, t, err
		}
		betti, err := topology.ReducedBettiNumbersCtx(ctx, ac, q.MaxDim)
		if err != nil {
			return nil, t, err
		}
		v = serve.BettiResponse{Betti: betti}
	case "count":
		count, err := m.GraphCountCtx(ctx)
		if err != nil {
			return nil, t, err
		}
		v = serve.CountResponse{Count: int64(count)}
	default:
		return nil, t, fmt.Errorf("unknown endpoint %q", q.Endpoint)
	}
	t.compute = time.Since(start)
	out, err := json.Marshal(v)
	return out, t, err
}

// canonical re-encodes a daemon response in reference's form. The bounds
// report is rendered text; its Best rows carry the answer.
func canonical(endpoint string, body []byte) ([]byte, error) {
	var v any
	switch endpoint {
	case "bounds":
		var r serve.BoundsResponse
		if err := json.Unmarshal(body, &r); err != nil {
			return nil, err
		}
		r.Report = ""
		v = r
	case "solve":
		var r serve.SolveResponse
		if err := json.Unmarshal(body, &r); err != nil {
			return nil, err
		}
		v = r
	case "betti":
		var r serve.BettiResponse
		if err := json.Unmarshal(body, &r); err != nil {
			return nil, err
		}
		v = r
	case "count":
		var r serve.CountResponse
		if err := json.Unmarshal(body, &r); err != nil {
			return nil, err
		}
		v = r
	}
	return json.Marshal(v)
}

// references answers every query in-process on the given number of
// goroutines, outside any timed window. Its timings are those of calls made
// one at a time only when workers is 1.
func references(qs []Query, workers int) ([][]byte, []timing, error) {
	out := make([][]byte, len(qs))
	took := make([]timing, len(qs))
	errs := make([]error, len(qs))
	var next atomic.Int64
	var wg sync.WaitGroup
	for g := 0; g < workers; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= len(qs) {
					return
				}
				out[i], took[i], errs[i] = reference(context.Background(), qs[i])
			}
		}()
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			return nil, nil, fmt.Errorf("reference for %s: %w", qs[i], err)
		}
	}
	return out, took, nil
}

// check marks every operation whose response differs from the reference
// answer, or that failed other than by load shedding: every reference
// succeeded, so such a failure is the program's.
func (w *window) check(qs []Query, want [][]byte) {
	w.wrong = make([]bool, len(w.results))
	for i, r := range w.results {
		if r.err != nil {
			w.wrong[i] = !shed(r.err)
			continue
		}
		got, err := canonical(qs[i].Endpoint, r.body)
		w.wrong[i] = err != nil || !bytes.Equal(got, want[i])
	}
}

// sendChecked sends qs one at a time and fails on any error or answer that
// differs from the in-process reference.
func sendChecked(f *fleet, qs []Query) error {
	want, _, err := references(qs, 2)
	if err != nil {
		return err
	}
	for i, q := range qs {
		body, err := post(f.client, serverAddr, "/v1/"+q.Endpoint, q.Body())
		if err != nil {
			return err
		}
		if got, err := canonical(q.Endpoint, body); err != nil || !bytes.Equal(got, want[i]) {
			return fmt.Errorf("wrong answer to %s: got %s, want %s", q, body, want[i])
		}
	}
	return nil
}

// answered lists the queries of the window's operations, in result order.
func answered(w *window, query func(i int) (Query, error)) ([]Query, error) {
	qs := make([]Query, len(w.results))
	for i, r := range w.results {
		var err error
		if qs[i], err = query(r.index); err != nil {
			return nil, err
		}
	}
	return qs, nil
}

// ---------------------------------------------------------------------------
// query-hot: a warm-booted ksetserved answering a small repeated working set.

type hotState struct {
	reqs     map[string][]Query
	distinct []Query
	want     map[Query][]byte // reference answers
	raw      map[Query][]byte // the daemon's warm-up answers, verbatim
	snap     string           // snapshot written while preparing
	runSnap  string           // per-launch copy the daemon boots from
}

func (b *bench) prepareHot() (*hotState, error) {
	reqs, err := hotRequests(b.seed)
	if err != nil {
		return nil, err
	}
	hs := &hotState{reqs: reqs, want: map[Query][]byte{}, raw: map[Query][]byte{},
		snap: filepath.Join(b.work, "hot.snap"), runSnap: filepath.Join(b.work, "hot-run.snap")}
	for _, ep := range []string{"bounds", "solve", "betti"} {
		hs.distinct = append(hs.distinct, reqs[ep]...)
	}
	answers, _, err := references(hs.distinct, 2)
	if err != nil {
		return nil, err
	}
	for i, q := range hs.distinct {
		hs.want[q] = answers[i]
	}
	// The references built every hot model in this process, so its memo
	// caches now hold the working set the daemon boots from.
	if err := memo.SaveSnapshot(hs.snap); err != nil {
		return nil, err
	}
	return hs, nil
}

func (b *bench) hotRun(hs *hotState) daemonRun {
	return daemonRun{
		clients: 2,
		tail:    []float64{0.99, 0.9},
		specs: func(traceDir string) []daemonSpec {
			return []daemonSpec{serverSpec(b.bin, traceDir, "-memo-snapshot", hs.runSnap)}
		},
		// Each launch boots from a fresh copy: the daemon rewrites its
		// snapshot when it drains.
		prepare: func() error { return copyFile(hs.snap, hs.runSnap) },
		warmup: func(f *fleet) error {
			for _, q := range hs.distinct {
				body, err := post(f.client, serverAddr, "/v1/"+q.Endpoint, q.Body())
				if err != nil {
					return err
				}
				hs.raw[q] = body
			}
			return nil
		},
		// The warm-up answers are checked against the references; the
		// window's answers must then repeat them byte for byte.
		before: func(*fleet) error {
			for _, q := range hs.distinct {
				got, err := canonical(q.Endpoint, hs.raw[q])
				if err != nil || !bytes.Equal(got, hs.want[q]) {
					return fmt.Errorf("wrong answer to %s: got %s, want %s", q, hs.raw[q], hs.want[q])
				}
			}
			return nil
		},
		inline: func(q Query, body []byte) bool { return bytes.Equal(body, hs.raw[q]) },
		query:  func(i int) (Query, error) { return hotPick(hs.reqs, i), nil },
	}
}

// errWrongAnswer marks an operation whose answer failed its inline check.
var errWrongAnswer = errors.New("answer differs from the reference")

// markInline records the inline check's verdicts. Every hot request was
// answered correctly in the warm-up, so any failure but load shedding is
// wrong.
func (w *window) markInline() {
	w.wrong = make([]bool, len(w.results))
	for i, r := range w.results {
		w.wrong[i] = r.err != nil && !shed(r.err)
	}
}

func copyFile(from, to string) error {
	b, err := os.ReadFile(from)
	if err != nil {
		return err
	}
	return os.WriteFile(to, b, 0o644)
}

// ---------------------------------------------------------------------------
// query-cold: a fresh ksetserved, every request a distinct model.

// The first fillOps draws of the stream are the fill, the rest the window.
func (b *bench) coldRun(s *stream) daemonRun {
	return daemonRun{
		clients: 2,
		tail:    []float64{0.99, 0.9},
		specs: func(traceDir string) []daemonSpec {
			return []daemonSpec{serverSpec(b.bin, traceDir)}
		},
		fill:  s.qs[:fillOps],
		query: func(i int) (Query, error) { return s.at(fillOps + i) },
	}
}

// ---------------------------------------------------------------------------
// sweep: ksetserved coordinating two ksetsweepd workers, one per core.

// The first fillOps draws of the stream are the fill, the rest the window.
func (b *bench) sweepRun(s *stream, before, after func(f *fleet) error) daemonRun {
	return daemonRun{
		clients: 1,
		tail:    []float64{0.9},
		specs: func(traceDir string) []daemonSpec {
			var specs []daemonSpec
			for i, addr := range workerAddrs {
				name := fmt.Sprintf("ksetsweepd-%d", i)
				args := []string{"-addr", addr, "-parallelism", "1"}
				if traceDir != "" {
					args = append(args, "-trace-out", filepath.Join(traceDir, name+".trace.json"))
				}
				specs = append(specs, daemonSpec{name: name, bin: filepath.Join(b.bin, "ksetsweepd"), args: args, addr: addr, probe: "/healthz"})
			}
			return append(specs, serverSpec(b.bin, traceDir, "-workers", strings.Join(workerAddrs, ",")))
		},
		fill:   s.qs[:fillOps],
		query:  func(i int) (Query, error) { return s.at(fillOps + i) },
		before: before,
		after:  after,
	}
}

// workerExecs reads each worker's completed shard executions from /statz.
func workerExecs(f *fleet) ([]uint64, error) {
	var execs []uint64
	for _, addr := range workerAddrs {
		var st struct {
			Execs uint64 `json:"execs"`
		}
		if err := getJSON(f, addr, "/statz", &st); err != nil {
			return nil, err
		}
		execs = append(execs, st.Execs)
	}
	return execs, nil
}
