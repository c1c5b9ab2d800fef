package serve

import (
	"encoding/json"
	"net/http"
	"regexp"
	"strings"
	"testing"

	"ksettop/internal/dist"
)

// promLineRe is the Prometheus text-exposition grammar accepted by the
// /metrics endpoints: HELP/TYPE comments and bare or {le="..."}-labelled
// samples with a float value.
var promLineRe = regexp.MustCompile(`^(# (HELP|TYPE) [a-zA-Z_:][a-zA-Z0-9_:]* .*|[a-zA-Z_:][a-zA-Z0-9_:]*(\{le="[^"]+"\})? (NaN|[0-9eE+.-]+))$`)

// /metrics serves the Prometheus text exposition: every line must parse,
// and the output must cover the server's own counters, the engine-wide
// registry, and the request-latency histogram series.
func TestServeMetricsEndpoint(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	if st, body := post(t, ts, "/v1/bounds", `{"model":"star:n=4","rounds":1}`); st != http.StatusOK {
		t.Fatalf("/v1/bounds: %d (%s)", st, body)
	}
	st, body := get(t, ts, "/metrics")
	if st != http.StatusOK {
		t.Fatalf("/metrics: %d", st)
	}
	for _, line := range strings.Split(strings.TrimRight(string(body), "\n"), "\n") {
		if !promLineRe.MatchString(line) {
			t.Fatalf("/metrics line fails Prometheus text grammar: %q", line)
		}
	}
	for _, want := range []string{
		"# TYPE kset_serve_requests_total counter",
		"# TYPE kset_par_sweeps_total counter",
		"kset_serve_requests_total 1",
		`kset_serve_request_seconds_bucket{le="+Inf"}`,
		"kset_serve_request_seconds_count",
	} {
		if !strings.Contains(string(body), want) {
			t.Fatalf("/metrics missing %q:\n%s", want, body)
		}
	}
}

// In coordinator mode /metrics additionally merges the coordinator's
// per-instance registry.
func TestServeMetricsIncludesCoordinator(t *testing.T) {
	coord := dist.NewCoordinator(dist.CoordConfig{
		Workers: []string{"127.0.0.1:1"},
		Log:     discardLog,
	})
	_, ts := newTestServer(t, Config{Coordinator: coord})
	st, body := get(t, ts, "/metrics")
	if st != http.StatusOK {
		t.Fatalf("/metrics: %d", st)
	}
	if !strings.Contains(string(body), "# TYPE kset_dist_coord_sweeps_total counter") {
		t.Fatalf("/metrics missing coordinator registry:\n%s", body)
	}
}

// pprof is opt-in: absent by default, mounted with EnablePprof.
func TestServePprofGating(t *testing.T) {
	_, off := newTestServer(t, Config{})
	if st, _ := get(t, off, "/debug/pprof/cmdline"); st == http.StatusOK {
		t.Fatal("pprof reachable without EnablePprof")
	}
	_, on := newTestServer(t, Config{EnablePprof: true})
	if st, body := get(t, on, "/debug/pprof/cmdline"); st != http.StatusOK {
		t.Fatalf("pprof with EnablePprof: %d (%s)", st, body)
	}
}

// /statz keeps its pre-registry JSON shape: exactly the documented keys
// (dist only in coordinator mode), now read through one registry snapshot.
func TestServeStatzShape(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	if st, body := post(t, ts, "/v1/bounds", `{"model":"star:n=3","rounds":1}`); st != http.StatusOK {
		t.Fatalf("/v1/bounds: %d (%s)", st, body)
	}
	st, body := get(t, ts, "/statz")
	if st != http.StatusOK {
		t.Fatalf("/statz: %d", st)
	}
	var raw map[string]json.RawMessage
	if err := json.Unmarshal(body, &raw); err != nil {
		t.Fatal(err)
	}
	want := []string{"requests", "in_flight", "shared", "panics", "overloaded",
		"budget_rejects", "timeouts", "uptime_seconds"}
	for _, k := range want {
		if _, ok := raw[k]; !ok {
			t.Fatalf("/statz missing key %q: %s", k, body)
		}
	}
	if len(raw) != len(want) {
		t.Fatalf("/statz has %d keys, want %d (dist must be omitted outside coordinator mode): %s",
			len(raw), len(want), body)
	}
	var stats Stats
	if err := json.Unmarshal(body, &stats); err != nil {
		t.Fatal(err)
	}
	if stats.Requests != 1 {
		t.Fatalf("requests = %d after one request", stats.Requests)
	}
}
