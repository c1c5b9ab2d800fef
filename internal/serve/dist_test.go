package serve

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"ksettop/internal/dist"
	"ksettop/internal/memo"
	"ksettop/internal/model"
)

func get(t *testing.T, ts *httptest.Server, path string) (int, []byte) {
	t.Helper()
	resp, err := http.Get(ts.URL + path)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var body strings.Builder
	buf := make([]byte, 4096)
	for {
		n, err := resp.Body.Read(buf)
		body.Write(buf[:n])
		if err != nil {
			break
		}
	}
	return resp.StatusCode, []byte(body.String())
}

// In coordinator mode /readyz additionally requires a live worker, and
// /statz carries the dist counters.
func TestServeCoordinatorReadyzAndStatz(t *testing.T) {
	w := dist.NewWorker(dist.WorkerConfig{Log: discardLog})
	wts := httptest.NewServer(w.Handler())
	t.Cleanup(wts.Close)
	addr := strings.TrimPrefix(wts.URL, "http://")

	coord := dist.NewCoordinator(dist.CoordConfig{
		Workers:  []string{addr},
		MinRanks: 1,
		Log:      discardLog,
	})
	_, ts := newTestServer(t, Config{Coordinator: coord})

	if st, body := get(t, ts, "/readyz"); st != http.StatusOK {
		t.Fatalf("readyz with live worker: %d (%s)", st, body)
	}

	// Route a count through the fleet and check it lands in /statz. Memo
	// off: a count cached by an earlier run in this process (-count > 1)
	// would answer without a sweep.
	memo.SetEnabled(false)
	t.Cleanup(func() { memo.SetEnabled(true) })
	model.SetDistributor(coord)
	defer model.SetDistributor(nil)
	st, body := post(t, ts, "/v1/count", `{"model":"stars:n=4,s=2"}`)
	if st != http.StatusOK {
		t.Fatalf("/v1/count: %d (%s)", st, body)
	}
	var cr CountResponse
	if err := json.Unmarshal(body, &cr); err != nil {
		t.Fatal(err)
	}
	if cr.Count <= 0 {
		t.Fatalf("count = %d", cr.Count)
	}

	st, body = get(t, ts, "/statz")
	if st != http.StatusOK {
		t.Fatalf("/statz: %d", st)
	}
	var stats Stats
	if err := json.Unmarshal(body, &stats); err != nil {
		t.Fatal(err)
	}
	if stats.Dist == nil {
		t.Fatal("/statz missing dist counters in coordinator mode")
	}
	if stats.Dist.Workers != 1 || stats.Dist.Sweeps == 0 || stats.Dist.ShardsCommitted == 0 {
		t.Fatalf("dist counters after a distributed count: %+v", *stats.Dist)
	}

	// Kill the worker: the failure detector must flip /readyz to 503 while
	// /healthz stays 200 — the distinction load balancers route on.
	wts.Close()
	ctx, cancel := context.WithCancel(context.Background())
	t.Cleanup(cancel)
	coord.Start(ctx)
	waitReadyz(t, ts, http.StatusServiceUnavailable)
	if st, _ := get(t, ts, "/healthz"); st != http.StatusOK {
		t.Fatalf("healthz must stay alive with a dead fleet: %d", st)
	}
}

// A dead fleet must not break /v1/count: the distributor declines and the
// local engine answers.
func TestServeCountFallsBackWithoutFleet(t *testing.T) {
	coord := dist.NewCoordinator(dist.CoordConfig{
		Workers:     []string{"127.0.0.1:1"}, // nobody home
		MinRanks:    1,
		MaxAttempts: 2,
		RetryBase:   time.Millisecond,
		RetryMax:    5 * time.Millisecond,
		Log:         discardLog,
	})
	model.SetDistributor(coord)
	defer model.SetDistributor(nil)
	_, ts := newTestServer(t, Config{Coordinator: coord})
	st, body := post(t, ts, "/v1/count", `{"model":"adj:0>1 2 3;1>2;2>3;3>"}`)
	if st != http.StatusOK {
		t.Fatalf("/v1/count without fleet: %d (%s)", st, body)
	}
	var cr CountResponse
	if err := json.Unmarshal(body, &cr); err != nil {
		t.Fatal(err)
	}
	if cr.Count <= 0 {
		t.Fatalf("fallback count = %d", cr.Count)
	}
}

func waitReadyz(t *testing.T, ts *httptest.Server, want int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if st, _ := get(t, ts, "/readyz"); st == want {
			return
		}
		time.Sleep(20 * time.Millisecond)
	}
	t.Fatalf("readyz never reached %d", want)
}
