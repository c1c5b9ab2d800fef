package dist

import (
	"bytes"
	"context"
	"log/slog"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"ksettop/internal/cli"
	"ksettop/internal/faultinject"
)

// discardLog silences the operational logs of in-process workers and
// coordinators.
var discardLog = slog.New(slog.DiscardHandler)

// startWorkers launches n in-process workers and returns their addresses.
func startWorkers(t *testing.T, n int, cfg WorkerConfig) []string {
	t.Helper()
	addrs := make([]string, n)
	for i := range addrs {
		ts := httptest.NewServer(NewWorker(cfg).Handler())
		t.Cleanup(ts.Close)
		addrs[i] = strings.TrimPrefix(ts.URL, "http://")
	}
	return addrs
}

// testCoordConfig is a fast-timing base config for coordinator tests.
func testCoordConfig(workers []string) CoordConfig {
	return CoordConfig{
		Workers:        workers,
		Shards:         24,
		LeaseTTL:       2 * time.Second,
		HeartbeatEvery: 50 * time.Millisecond,
		RetryBase:      10 * time.Millisecond,
		RetryMax:       100 * time.Millisecond,
		NoWorkerGrace:  3 * time.Second,
		DisableHedging: true, // hedging has its own tests; keep others deterministic
		MinRanks:       1,
		Seed:           7,
		Log:            discardLog,
	}
}

// The tentpole guarantee: a sweep distributed over 3 workers returns exactly
// the bytes of the sequential engine, for every op.
func TestDistByteIdentity(t *testing.T) {
	workers := startWorkers(t, 3, WorkerConfig{Log: discardLog})
	c := NewCoordinator(testCoordConfig(workers))
	for _, op := range []string{OpCount, OpEnum} {
		job := Job{Op: op, Model: "star:n=4"}
		want, err := RunSequential(context.Background(), job)
		if err != nil {
			t.Fatalf("%s sequential: %v", op, err)
		}
		got, err := c.Run(context.Background(), job)
		if err != nil {
			t.Fatalf("%s distributed: %v", op, err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("%s: distributed result differs from sequential reference (%d vs %d bytes)", op, len(got), len(want))
		}
		local, err := RunLocal(context.Background(), job, 16)
		if err != nil {
			t.Fatalf("%s local: %v", op, err)
		}
		if !bytes.Equal(local, want) {
			t.Fatalf("%s: local fallback differs from sequential reference", op)
		}
	}
	if st := c.Stats(); st.Sweeps != 2 || st.ShardsCommitted == 0 {
		t.Fatalf("stats after 2 sweeps: %+v", st)
	}
	// The count op must agree with the model engine's own count.
	out, err := c.Run(context.Background(), Job{Op: OpCount, Model: "star:n=4"})
	if err != nil {
		t.Fatal(err)
	}
	n, err := DecodeCount(out)
	if err != nil {
		t.Fatal(err)
	}
	m, _ := cli.ParseModel("star:n=4")
	wantN, err := m.GraphCountCtx(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if n != int64(wantN) {
		t.Fatalf("distributed count %d, engine count %d", n, wantN)
	}
}

// A worker that is dead from the start (connection refused) forfeits every
// grant immediately; the ring re-dispatches its shards to the survivors and
// the result is unchanged.
func TestDistDeadWorkerRedispatch(t *testing.T) {
	workers := startWorkers(t, 2, WorkerConfig{Log: discardLog})
	// A third address nobody listens on.
	dead := httptest.NewServer(nil)
	deadAddr := strings.TrimPrefix(dead.URL, "http://")
	dead.Close()
	c := NewCoordinator(testCoordConfig(append(workers, deadAddr)))

	job := Job{Op: OpEnum, Model: "star:n=4"}
	want, err := RunSequential(context.Background(), job)
	if err != nil {
		t.Fatal(err)
	}
	got, err := c.Run(context.Background(), job)
	if err != nil {
		t.Fatalf("sweep with dead worker: %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("result with dead worker differs from sequential reference")
	}
	if st := c.Stats(); st.Retries == 0 {
		t.Fatalf("expected re-dispatches off the dead worker, stats %+v", st)
	}
}

// The heartbeat failure detector: a partitioned worker (healthy, but probes
// fail) is declared dead after the configured misses and revived when the
// partition heals.
func TestDistHeartbeatDetection(t *testing.T) {
	workers := startWorkers(t, 1, WorkerConfig{Log: discardLog})
	cfg := testCoordConfig(workers)
	cfg.HeartbeatMisses = 3
	c := NewCoordinator(cfg)
	if c.LiveWorkers() != 1 {
		t.Fatal("workers start presumed live")
	}

	armFaults(t, 7, "error:dist.heartbeat@1+1") // every probe fails: full partition
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	c.Start(ctx)

	waitFor(t, 5*time.Second, "worker declared dead", func() bool { return c.LiveWorkers() == 0 })
	if st := c.Stats(); st.WorkerDeaths != 1 {
		t.Fatalf("want 1 worker death, stats %+v", st)
	}

	disarmFaults(t) // heal the partition
	waitFor(t, 5*time.Second, "worker rejoined", func() bool { return c.LiveWorkers() == 1 })
	if st := c.Stats(); st.WorkerRejoins != 1 {
		t.Fatalf("want 1 rejoin, stats %+v", st)
	}
}

// The fleet's count and the local branching count are independent
// engines (a sharded rank sweep across workers against edge branching);
// CountClosure must equal GraphCountCtx.
func TestDistModelDistributorIntegration(t *testing.T) {
	c := NewCoordinator(testCoordConfig(startWorkers(t, 3, WorkerConfig{Log: discardLog})))
	for _, spec := range []string{"adj:0>1;1>2;2>3;3>", "stars:n=4,s=2", "cycle:n=4"} {
		m, err := cli.ParseModel(spec)
		if err != nil {
			t.Fatal(err)
		}
		want, err := m.GraphCountCtx(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		got, handled, err := c.CountClosure(context.Background(), m)
		if err != nil || !handled {
			t.Fatalf("%s: CountClosure handled=%v err=%v", spec, handled, err)
		}
		if got != int64(want) {
			t.Fatalf("%s: distributed count %d, GraphCountCtx %d", spec, got, want)
		}
	}
}

// CountClosure declines tiny rank spaces and dead fleets instead of failing
// the caller.
func TestDistCountClosureDeclines(t *testing.T) {
	m, err := cli.ParseModel("star:n=3")
	if err != nil {
		t.Fatal(err)
	}
	// No workers at all.
	var nilCoord *Coordinator
	if _, handled, _ := nilCoord.CountClosure(context.Background(), m); handled {
		t.Fatal("nil coordinator must decline")
	}
	// Rank space below MinRanks.
	workers := startWorkers(t, 1, WorkerConfig{Log: discardLog})
	cfg := testCoordConfig(workers)
	cfg.MinRanks = 1 << 20
	c := NewCoordinator(cfg)
	if _, handled, _ := c.CountClosure(context.Background(), m); handled {
		t.Fatal("sub-threshold sweep must decline")
	}
	// Fleet entirely dead (declared by the detector).
	c.setLive(workers[0], false)
	if _, handled, _ := c.CountClosure(context.Background(), m); handled {
		t.Fatal("dead fleet must decline")
	}
}

// Straggler hedging: with one worker armed to delay every second execution
// well past the percentile threshold, the coordinator speculatively
// re-dispatches and the sweep still returns reference bytes.
func TestDistHedging(t *testing.T) {
	workers := startWorkers(t, 3, WorkerConfig{Log: discardLog})
	cfg := testCoordConfig(workers)
	cfg.DisableHedging = false
	cfg.HedgeMin = 30 * time.Millisecond
	cfg.HedgeQuantile = 0.5
	cfg.HedgeFactor = 1.5
	armFaults(t, 11, "delay:dist.exec@4+4:400ms")
	c := NewCoordinator(cfg)

	job := Job{Op: OpEnum, Model: "star:n=4"}
	want, err := RunSequential(context.Background(), job)
	if err != nil {
		t.Fatal(err)
	}
	got, err := c.Run(context.Background(), job)
	if err != nil {
		t.Fatalf("hedged sweep: %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("hedged sweep differs from sequential reference")
	}
	if st := c.Stats(); st.Hedges == 0 {
		t.Fatalf("expected at least one hedge, stats %+v", st)
	}
}

// armFaults enables a deterministic fault schedule for the test and disarms
// it on cleanup. The registry is process-global: tests arming it must not
// run in parallel.
func armFaults(t *testing.T, seed uint64, spec string) {
	t.Helper()
	rules, err := faultinject.ParseRules(spec)
	if err != nil {
		t.Fatalf("ParseRules(%q): %v", spec, err)
	}
	faultinject.Enable(seed, rules...)
	t.Cleanup(faultinject.Disable)
}

func disarmFaults(t *testing.T) {
	t.Helper()
	faultinject.Disable()
}

func waitFor(t *testing.T, timeout time.Duration, what string, ok func() bool) {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		if ok() {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}
