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

	// /v1/count answers in process; a sweep the coordinator runs itself
	// lands in /statz.
	st, body := post(t, ts, "/v1/count", `{"model":"stars:n=4,s=2"}`)
	if st != http.StatusOK {
		t.Fatalf("/v1/count: %d (%s)", st, body)
	}
	var cr CountResponse
	if err := json.Unmarshal(body, &cr); err != nil {
		t.Fatal(err)
	}
	m, err := parseModel("stars:n=4,s=2")
	if err != nil {
		t.Fatal(err)
	}
	fleet, handled, err := coord.CountClosure(context.Background(), m)
	if err != nil || !handled || fleet != cr.Count {
		t.Fatalf("coordinator count %d (handled %v, err %v), /v1/count %d", fleet, handled, err, cr.Count)
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
	if stats.Dist.Workers != 1 || stats.Dist.Sweeps != 1 || stats.Dist.ShardsCommitted == 0 {
		t.Fatalf("dist counters after one distributed count: %+v", *stats.Dist)
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

// A dead fleet must not break /v1/count: the count is local, and it is
// the closure's size.
func TestServeCountFallsBackWithoutFleet(t *testing.T) {
	coord := dist.NewCoordinator(dist.CoordConfig{
		Workers:     []string{"127.0.0.1:1"}, // nobody home
		MinRanks:    1,
		MaxAttempts: 2,
		RetryBase:   time.Millisecond,
		RetryMax:    5 * time.Millisecond,
		Log:         discardLog,
	})
	_, ts := newTestServer(t, Config{Coordinator: coord})
	const spec = "adj:0>1 2 3;1>2;2>3;3>"
	st, body := post(t, ts, "/v1/count", `{"model":"`+spec+`"}`)
	if st != http.StatusOK {
		t.Fatalf("/v1/count without fleet: %d (%s)", st, body)
	}
	var cr CountResponse
	if err := json.Unmarshal(body, &cr); err != nil {
		t.Fatal(err)
	}
	m, err := parseModel(spec)
	if err != nil {
		t.Fatal(err)
	}
	if want, err := m.GraphCountClosedForm(); err != nil || cr.Count != want {
		t.Fatalf("count without fleet = %d, closed form %d (%v)", cr.Count, want, err)
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
