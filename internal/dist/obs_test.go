package dist

import (
	"bytes"
	"context"
	"io"
	"log/slog"
	"net/http"
	"strings"
	"testing"

	"ksettop/internal/obs"
)

// httpGet fetches url and returns the body, failing the test on any error.
func httpGet(t *testing.T, url string) string {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: status %d", url, resp.StatusCode)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return string(body)
}

// A traced distributed sweep must stitch into ONE trace tree: the
// coordinator's dist.sweep span at the root, one dist.grant child per
// committed shard, and each worker's dist.exec span — recorded in the worker
// process's request-scoped collector, shipped back in the ExecResponse and
// imported at commit — parenting into the grant that dispatched it. All
// spans share the sweep's trace ID across both "processes".
func TestDistTracePropagation(t *testing.T) {
	obs.ResetTrace(0)
	obs.SetTracingEnabled(true)
	t.Cleanup(func() {
		obs.SetTracingEnabled(false)
		obs.ResetTrace(0)
	})

	workers := startWorkers(t, 3, WorkerConfig{Log: discardLog})
	c := NewCoordinator(testCoordConfig(workers))
	if _, err := c.Run(context.Background(), Job{Op: OpCount, Model: "star:n=4"}); err != nil {
		t.Fatal(err)
	}

	spans := obs.TraceSpans()
	var sweep *obs.SpanData
	grants := map[uint64]bool{}
	execs := 0
	procs := map[string]bool{}
	for i := range spans {
		procs[spans[i].Proc] = true
		switch spans[i].Name {
		case "dist.sweep":
			sweep = &spans[i]
		case "dist.grant":
			grants[spans[i].SpanID] = true
		}
	}
	if sweep == nil {
		t.Fatalf("no dist.sweep span recorded (got %d spans)", len(spans))
	}
	for _, sd := range spans {
		if sd.TraceID != sweep.TraceID {
			t.Fatalf("span %s has trace %016x, want the sweep's %016x — the tree is split",
				sd.Name, sd.TraceID, sweep.TraceID)
		}
		switch sd.Name {
		case "dist.grant":
			if sd.Parent != sweep.SpanID {
				t.Fatalf("dist.grant parent %016x, want sweep span %016x", sd.Parent, sweep.SpanID)
			}
		case "dist.exec":
			execs++
			if !grants[sd.Parent] {
				t.Fatalf("dist.exec parent %016x is not a recorded grant span", sd.Parent)
			}
			if !strings.HasPrefix(sd.Proc, "ksetsweepd") {
				t.Fatalf("dist.exec proc %q, want a ksetsweepd process label", sd.Proc)
			}
		}
	}
	if execs == 0 {
		t.Fatal("no worker dist.exec spans imported")
	}
	if len(procs) < 2 {
		t.Fatalf("trace spans only one process label %v, want coordinator + worker", procs)
	}
}

// With tracing globally off and no inbound trace header, the distributed
// tier must record nothing — spans are nil no-ops end to end.
func TestDistNoSpansWhenTracingOff(t *testing.T) {
	obs.ResetTrace(0)
	t.Cleanup(func() { obs.ResetTrace(0) })
	workers := startWorkers(t, 2, WorkerConfig{Log: discardLog})
	c := NewCoordinator(testCoordConfig(workers))
	if _, err := c.Run(context.Background(), Job{Op: OpCount, Model: "star:n=4"}); err != nil {
		t.Fatal(err)
	}
	if spans := obs.TraceSpans(); len(spans) != 0 {
		t.Fatalf("recorded %d spans with tracing off", len(spans))
	}
}

// A clean sweep over a healthy fleet is the happy path: the structured logs
// it emits must stay below ERROR, because the chaos CI gate treats any
// ERROR line on a fault-free run as a bug. Every captured record is echoed
// into the test output, so that gate's grep over `go test -v` sees them too.
func TestDistHappyPathNoErrorLogs(t *testing.T) {
	var coordBuf, workerBuf bytes.Buffer
	debugJSON := &slog.HandlerOptions{Level: slog.LevelDebug}
	wcfg := WorkerConfig{Log: slog.New(slog.NewJSONHandler(&workerBuf, debugJSON))}
	workers := startWorkers(t, 3, wcfg)
	cfg := testCoordConfig(workers)
	cfg.Log = slog.New(slog.NewJSONHandler(&coordBuf, debugJSON))
	c := NewCoordinator(cfg)
	if _, err := c.Run(context.Background(), Job{Op: OpEnum, Model: "star:n=4"}); err != nil {
		t.Fatal(err)
	}
	for name, buf := range map[string]*bytes.Buffer{"coordinator": &coordBuf, "worker": &workerBuf} {
		for _, line := range strings.Split(buf.String(), "\n") {
			if line == "" {
				continue
			}
			t.Logf("%s: %s", name, line)
			if strings.Contains(line, `"level":"ERROR"`) {
				t.Errorf("%s emitted ERROR on the happy path", name)
			}
		}
	}
}

// /metrics on a worker serves Prometheus text exposition covering both the
// engine-wide default registry and the worker's own counters.
func TestWorkerMetricsEndpoint(t *testing.T) {
	workers := startWorkers(t, 1, WorkerConfig{Log: discardLog})
	c := NewCoordinator(testCoordConfig(workers[:1]))
	if _, err := c.Run(context.Background(), Job{Op: OpCount, Model: "star:n=4"}); err != nil {
		t.Fatal(err)
	}
	body := httpGet(t, "http://"+workers[0]+"/metrics")
	for _, want := range []string{
		"# TYPE kset_dist_worker_execs_total counter",
		"# TYPE kset_par_sweeps_total counter",
		"kset_dist_worker_in_flight 0",
	} {
		if !strings.Contains(body, want) {
			t.Fatalf("/metrics missing %q:\n%s", want, body)
		}
	}
}
