package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"ksettop/internal/faultinject"
)

// The chaos suite drives the service through injected panics, errors,
// delays, compressed deadlines, corrupt snapshots and overload, asserting
// the hardening contract: clean JSON errors, correct status codes, no
// process crash, no goroutine leaks, and byte-identical answers for
// repeated queries. faultinject state is process-global, so no test here
// calls t.Parallel().

// discardLog silences a component's operational logs.
var discardLog = slog.New(slog.DiscardHandler)

// testLog routes a server's log records to t.Log.
func testLog(t *testing.T) *slog.Logger {
	return slog.New(slog.NewTextHandler(testLogWriter{t}, nil))
}

type testLogWriter struct{ t *testing.T }

func (w testLogWriter) Write(p []byte) (int, error) {
	w.t.Log(strings.TrimSuffix(string(p), "\n"))
	return len(p), nil
}

func newTestServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	if cfg.Log == nil {
		cfg.Log = testLog(t)
	}
	s := New(cfg)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return s, ts
}

// post sends a JSON body and returns status plus raw response bytes.
func post(t *testing.T, ts *httptest.Server, path, body string) (int, []byte) {
	t.Helper()
	resp, err := http.Post(ts.URL+path, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, buf.Bytes()
}

func errKind(t *testing.T, body []byte) string {
	t.Helper()
	var env struct {
		Error apiError `json:"error"`
	}
	if err := json.Unmarshal(body, &env); err != nil {
		t.Fatalf("error body %q is not the JSON envelope: %v", body, err)
	}
	return env.Error.Kind
}

func TestServeSolveDeterministic(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	req := `{"model":"star:n=3","values":3,"k":2}`
	st1, b1 := post(t, ts, "/v1/solve", req)
	st2, b2 := post(t, ts, "/v1/solve", req)
	if st1 != http.StatusOK || st2 != http.StatusOK {
		t.Fatalf("statuses %d, %d, want 200 (bodies %s / %s)", st1, st2, b1, b2)
	}
	if !bytes.Equal(b1, b2) {
		t.Errorf("repeated query not byte-identical:\n%s\n%s", b1, b2)
	}
	var res SolveResponse
	if err := json.Unmarshal(b1, &res); err != nil {
		t.Fatal(err)
	}
	if res.Views == 0 || res.Nodes == 0 {
		t.Errorf("implausible solve response %+v", res)
	}
}

func TestServeBettiAndBounds(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	st, body := post(t, ts, "/v1/betti", `{"model":"star:n=3","values":2,"max_dim":2}`)
	if st != http.StatusOK {
		t.Fatalf("betti status %d: %s", st, body)
	}
	var betti BettiResponse
	if err := json.Unmarshal(body, &betti); err != nil {
		t.Fatal(err)
	}
	if len(betti.Betti) != 3 {
		t.Errorf("betti = %v, want 3 entries", betti.Betti)
	}

	st, body = post(t, ts, "/v1/bounds", `{"model":"star:n=4","rounds":2}`)
	if st != http.StatusOK {
		t.Fatalf("bounds status %d: %s", st, body)
	}
	var bounds BoundsResponse
	if err := json.Unmarshal(body, &bounds); err != nil {
		t.Fatal(err)
	}
	if bounds.N != 4 || len(bounds.Best) != 2 || bounds.Report == "" {
		t.Errorf("implausible bounds response N=%d best=%d report=%dB",
			bounds.N, len(bounds.Best), len(bounds.Report))
	}
}

func TestServeValidation(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	resp, err := http.Get(ts.URL + "/v1/solve")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("GET status %d, want 405", resp.StatusCode)
	}
	for _, tc := range []struct{ path, body string }{
		{"/v1/solve", `{not json`},
		{"/v1/solve", `{"model":"nonsense:spec","values":2,"k":1}`},
		{"/v1/solve", `{"model":"star:n=3","values":0,"k":2}`},
		{"/v1/betti", `{"model":"star:n=3","values":2,"max_dim":-1}`},
		{"/v1/bounds", `{"model":"","rounds":1}`},
	} {
		st, body := post(t, ts, tc.path, tc.body)
		if st != http.StatusBadRequest {
			t.Errorf("%s %s: status %d, want 400 (%s)", tc.path, tc.body, st, body)
		} else if kind := errKind(t, body); kind != "bad_request" {
			t.Errorf("%s: kind %q, want bad_request", tc.path, kind)
		}
	}
}

// A betti request whose input complex cannot be built — values^n past the
// input-complex cap, more processes than an interpreted view holds, or a
// value past a view's byte — is the caller's fault: 400 bad_request with
// the engine's message, not 500 internal.
func TestServeBettiInputSizeIsBadRequest(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	for _, tc := range []struct{ body, msg string }{
		{`{"model":"cycle:n=3","values":256,"max_dim":1}`, "input complex too large (256^3 facets)"},
		{`{"model":"cycle:n=3","values":300,"max_dim":1}`, "input complex too large (300^3 facets)"},
		{`{"model":"simple-cycle:n=9","values":2,"max_dim":1}`, "interpreted views support ≤8 processes"},
		{`{"model":"cycle:n=2","values":256,"max_dim":1}`, "value 255 outside [0,254]"},
	} {
		st, body := post(t, ts, "/v1/betti", tc.body)
		if st != http.StatusBadRequest || errKind(t, body) != "bad_request" {
			t.Errorf("%s: status %d, want a 400 bad_request envelope: %s", tc.body, st, body)
		} else if !strings.Contains(string(body), tc.msg) {
			t.Errorf("%s: message lost, want %q in %s", tc.body, tc.msg, body)
		}
	}
	if got := s.Stats().Panics; got != 0 {
		t.Errorf("Panics = %d, want 0", got)
	}
}

func TestServeBudgetRejections(t *testing.T) {
	s, ts := newTestServer(t, Config{MaxSolverBudget: 10_000})
	// Asking beyond the server cap is rejected at admission.
	st, body := post(t, ts, "/v1/solve", `{"model":"star:n=3","values":3,"k":2,"budget":20000}`)
	if st != http.StatusUnprocessableEntity {
		t.Fatalf("over-cap status %d: %s", st, body)
	}
	if kind := errKind(t, body); kind != "budget" {
		t.Errorf("over-cap kind %q, want budget", kind)
	}
	// A budget the search actually exhausts surfaces the typed solver error
	// with its deterministic nodes-charged accounting.
	st, body = post(t, ts, "/v1/solve", `{"model":"star:n=4","values":4,"k":3,"budget":10}`)
	if st != http.StatusUnprocessableEntity {
		t.Fatalf("exhausted status %d: %s", st, body)
	}
	var env struct {
		Error apiError `json:"error"`
	}
	if err := json.Unmarshal(body, &env); err != nil {
		t.Fatal(err)
	}
	if env.Error.Kind != "budget" || !strings.Contains(env.Error.Message, "node budget 10 exhausted") {
		t.Errorf("exhausted error = %+v", env.Error)
	}
	if env.Error.Budget != 10 || env.Error.Nodes < 10 {
		t.Errorf("budget accounting = %+v, want Budget=10, Nodes ≥ 10", env.Error)
	}
	if s.Stats().BudgetRejects != 2 {
		t.Errorf("BudgetRejects = %d, want 2", s.Stats().BudgetRejects)
	}
}

func TestServeDeadlineExpires(t *testing.T) {
	s, ts := newTestServer(t, Config{MaxTimeout: 5 * time.Second})
	// star:n=4 consensus refutation costs tens of thousands of solver nodes;
	// a 1ms budget cannot finish it.
	st, body := post(t, ts, "/v1/solve", `{"model":"star:n=4","values":4,"k":3,"timeout_ms":1}`)
	if st != http.StatusGatewayTimeout {
		t.Fatalf("status %d, want 504: %s", st, body)
	}
	if kind := errKind(t, body); kind != "deadline" {
		t.Errorf("kind %q, want deadline", kind)
	}
	if s.Stats().Timeouts == 0 {
		t.Error("Timeouts counter did not move")
	}
}

func TestServeDeadlineCompression(t *testing.T) {
	// An armed deadline rule squeezes every request budget to 0.1% —
	// modeling an LB cutting requests short — so even a generous timeout_ms
	// expires mid-sweep and surfaces as a clean 504.
	faultinject.Enable(1, faultinject.Rule{
		Point:  faultinject.PointServeRequest,
		Action: faultinject.ActionDeadline,
		Every:  1,
		Frac:   0.001,
	})
	defer faultinject.Disable()
	_, ts := newTestServer(t, Config{MaxTimeout: 5 * time.Second})
	st, body := post(t, ts, "/v1/solve", `{"model":"star:n=4","values":4,"k":3,"timeout_ms":2000}`)
	if st != http.StatusGatewayTimeout {
		t.Fatalf("status %d, want 504: %s", st, body)
	}
	if kind := errKind(t, body); kind != "deadline" {
		t.Errorf("kind %q, want deadline", kind)
	}
}

func TestServeInjectedPanicIsolated(t *testing.T) {
	faultinject.Enable(1, faultinject.Rule{
		Point:  faultinject.PointServeRequest,
		Action: faultinject.ActionPanic,
		Nth:    1,
	})
	defer faultinject.Disable()
	s, ts := newTestServer(t, Config{})
	st, body := post(t, ts, "/v1/solve", `{"model":"star:n=3","values":3,"k":2}`)
	if st != http.StatusInternalServerError {
		t.Fatalf("panicked request status %d: %s", st, body)
	}
	if kind := errKind(t, body); kind != "internal" {
		t.Errorf("kind %q, want internal", kind)
	}
	if !strings.Contains(string(body), "injected panic") {
		t.Errorf("panic message lost: %s", body)
	}
	// The rule fired once; the service must keep answering.
	st, _ = post(t, ts, "/v1/solve", `{"model":"star:n=3","values":3,"k":2}`)
	if st != http.StatusOK {
		t.Errorf("post-panic request status %d, want 200", st)
	}
	if got := s.Stats().Panics; got != 1 {
		t.Errorf("Panics = %d, want 1", got)
	}
}

// Bad input answers 400, and /statz panics counts recovered panics only: an
// engine error answers 500 internal and leaves the counter alone, a worker
// panic the engine contained bumps it.
func TestServeSolveErrorsAreNotPanics(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	for _, values := range []int{1, 17} {
		st, body := post(t, ts, "/v1/solve", fmt.Sprintf(`{"model":"star:n=3","values":%d,"k":2}`, values))
		if st != http.StatusBadRequest || errKind(t, body) != "bad_request" {
			t.Fatalf("values %d: status %d, want a 400 bad_request envelope: %s", values, st, body)
		}
	}
	if got := s.Stats().Panics; got != 0 {
		t.Fatalf("bad values: Panics = %d, want 0", got)
	}
	for _, c := range []struct {
		action     faultinject.Action
		body       string
		wantPanics uint64
	}{
		{faultinject.ActionError, `{"model":"star:n=3","values":3,"k":1}`, 0},
		{faultinject.ActionPanic, `{"model":"star:n=3","values":2,"k":1}`, 1},
	} {
		faultinject.Enable(1, faultinject.Rule{Point: faultinject.PointParShard, Action: c.action, Nth: 1})
		st, body := post(t, ts, "/v1/solve", c.body)
		faultinject.Disable()
		if st != http.StatusInternalServerError || errKind(t, body) != "internal" {
			t.Fatalf("action %v: status %d, want a 500 internal envelope: %s", c.action, st, body)
		}
		if got := s.Stats().Panics; got != c.wantPanics {
			t.Errorf("action %v: Panics = %d, want %d (%s)", c.action, got, c.wantPanics, body)
		}
	}
}

func TestServeInjectedError(t *testing.T) {
	faultinject.Enable(1, faultinject.Rule{
		Point:  faultinject.PointServeRequest,
		Action: faultinject.ActionError,
		Nth:    1,
	})
	defer faultinject.Disable()
	_, ts := newTestServer(t, Config{})
	st, body := post(t, ts, "/v1/solve", `{"model":"star:n=3","values":3,"k":2}`)
	if st != http.StatusInternalServerError || errKind(t, body) != "internal" {
		t.Fatalf("injected error: status %d body %s", st, body)
	}
	st, _ = post(t, ts, "/v1/solve", `{"model":"star:n=3","values":3,"k":2}`)
	if st != http.StatusOK {
		t.Errorf("post-error request status %d, want 200", st)
	}
}

func TestServeOverloadSheds(t *testing.T) {
	// Every admitted request sleeps 300ms while holding its admission slot;
	// with MaxConcurrent=1 a concurrent burst must shed with 503.
	faultinject.Enable(1, faultinject.Rule{
		Point:  faultinject.PointServeRequest,
		Action: faultinject.ActionDelay,
		Every:  1,
		Delay:  300 * time.Millisecond,
	})
	defer faultinject.Disable()
	s, ts := newTestServer(t, Config{MaxConcurrent: 1})
	const burst = 6
	statuses := make([]int, burst)
	var wg sync.WaitGroup
	for i := range statuses {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			resp, err := http.Post(ts.URL+"/v1/solve", "application/json",
				strings.NewReader(`{"model":"star:n=3","values":3,"k":2}`))
			if err != nil {
				statuses[i] = -1
				return
			}
			resp.Body.Close()
			statuses[i] = resp.StatusCode
		}(i)
	}
	wg.Wait()
	var ok, shed int
	for _, st := range statuses {
		switch st {
		case http.StatusOK:
			ok++
		case http.StatusServiceUnavailable:
			shed++
		default:
			t.Errorf("unexpected status %d in burst", st)
		}
	}
	if ok == 0 || shed == 0 {
		t.Errorf("burst statuses %v: want both 200s and 503s", statuses)
	}
	if s.Stats().Overloaded == 0 {
		t.Error("Overloaded counter did not move")
	}
}

func TestServeSingleflightCoalesces(t *testing.T) {
	// Identical concurrent queries coalesce behind one computation: each
	// request sleeps 100ms at the fault hook, so the whole burst reaches the
	// singleflight together while the leader's solve is still running.
	faultinject.Enable(1, faultinject.Rule{
		Point:  faultinject.PointServeRequest,
		Action: faultinject.ActionDelay,
		Every:  1,
		Delay:  100 * time.Millisecond,
	})
	defer faultinject.Disable()
	s, ts := newTestServer(t, Config{MaxConcurrent: 16})
	const burst = 6
	bodies := make([][]byte, burst)
	var wg sync.WaitGroup
	for i := range bodies {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			st, body := post(t, ts, "/v1/solve", `{"model":"star:n=4","values":4,"k":3}`)
			if st == http.StatusOK {
				bodies[i] = body
			}
		}(i)
	}
	wg.Wait()
	for i, b := range bodies {
		if b == nil {
			t.Fatalf("request %d failed", i)
		}
		if !bytes.Equal(b, bodies[0]) {
			t.Errorf("request %d body differs:\n%s\n%s", i, b, bodies[0])
		}
	}
	t.Logf("shared %d of %d requests", s.Stats().Shared, burst)
}

func TestServeHealthAndStats(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	var health struct {
		OK bool `json:"ok"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&health); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || !health.OK {
		t.Errorf("healthz = %d ok=%v", resp.StatusCode, health.OK)
	}

	post(t, ts, "/v1/solve", `{"model":"star:n=3","values":3,"k":2}`)
	resp, err = http.Get(ts.URL + "/statz")
	if err != nil {
		t.Fatal(err)
	}
	var stats Stats
	if err := json.NewDecoder(resp.Body).Decode(&stats); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if stats.Requests == 0 {
		t.Errorf("statz requests = %d, want > 0", stats.Requests)
	}
	if got := s.Stats().Requests; got != stats.Requests {
		t.Errorf("Stats() = %d requests, statz reported %d", got, stats.Requests)
	}
}

// TestServeChaosNoLeaks runs a mixed fault workload — panics, errors,
// delays, expired deadlines — and asserts the goroutine count settles back:
// detached computations, flight waiters and checkpointers all terminate.
func TestServeChaosNoLeaks(t *testing.T) {
	before := runtime.NumGoroutine()
	func() {
		faultinject.Enable(42,
			faultinject.Rule{Point: faultinject.PointServeRequest, Action: faultinject.ActionPanic, Nth: 2, Every: 5},
			faultinject.Rule{Point: faultinject.PointServeRequest, Action: faultinject.ActionError, Nth: 4, Every: 5},
		)
		defer faultinject.Disable()
		s, ts := newTestServer(t, Config{MaxConcurrent: 4, MaxTimeout: 2 * time.Second})
		var wg sync.WaitGroup
		reqs := []struct{ path, body string }{
			{"/v1/solve", `{"model":"star:n=3","values":3,"k":2}`},
			{"/v1/solve", `{"model":"star:n=4","values":4,"k":3,"timeout_ms":1}`},
			{"/v1/betti", `{"model":"star:n=3","values":2,"max_dim":2}`},
			{"/v1/solve", `{"model":"star:n=4","values":4,"k":3,"budget":10}`},
			{"/v1/bounds", `{"model":"star:n=4","rounds":1}`},
		}
		for round := 0; round < 4; round++ {
			for _, rq := range reqs {
				wg.Add(1)
				go func(path, body string) {
					defer wg.Done()
					resp, err := http.Post(ts.URL+path, "application/json", strings.NewReader(body))
					if err == nil {
						resp.Body.Close()
						switch resp.StatusCode {
						case http.StatusOK, http.StatusInternalServerError,
							http.StatusServiceUnavailable, http.StatusGatewayTimeout,
							http.StatusUnprocessableEntity:
						default:
							t.Errorf("%s: unexpected status %d", path, resp.StatusCode)
						}
					}
				}(rq.path, rq.body)
			}
			wg.Wait()
		}
		if s.Stats().Panics == 0 {
			t.Error("chaos run injected no panics — schedule mismatch?")
		}
	}()
	// Detached computations from the 504s are bounded by MaxTimeout=2s;
	// give the runtime until ~4s to settle back to the baseline.
	deadline := time.Now().Add(4 * time.Second)
	for {
		runtime.GC()
		now := runtime.NumGoroutine()
		if now <= before+3 {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("goroutines leaked: %d before, %d after chaos", before, now)
		}
		time.Sleep(50 * time.Millisecond)
	}
}

// errNotInFlight marks a singleflight join that found no computation to
// join.
var errNotInFlight = errors.New("computation no longer in flight")

// TestServeDeadlineBoundsModelParse pins that the request deadline bounds
// the model parse: the handlers parse inside the detached computation, so a
// 200 ms deadline on a bounds query over nonsplit:n=5 — whose parse alone
// takes most of a second and polls no context — answers its 504 before one
// parse of that spec can finish. A handler that parses before the deadline
// starts answers only after the parse, and fails.
func TestServeDeadlineBoundsModelParse(t *testing.T) {
	const spec = "nonsplit:n=5"
	s, ts := newTestServer(t, Config{MaxTimeout: time.Second})
	start := time.Now()
	st, body := post(t, ts, "/v1/bounds", `{"model":"`+spec+`","rounds":3,"timeout_ms":200}`)
	answered := time.Since(start)
	if st != http.StatusGatewayTimeout || errKind(t, body) != "deadline" {
		t.Fatalf("status %d (%s), want a 504 deadline envelope", st, body)
	}
	// Let the abandoned computation end, then time one parse of the spec.
	s.fly.Do(flightKey("serve.bounds", spec, 3), func() (any, error) { return nil, errNotInFlight })
	start = time.Now()
	if _, err := parseModel(spec); err != nil {
		t.Fatal(err)
	}
	parse := time.Since(start)
	if answered >= parse {
		t.Fatalf("504 answered after %v, no sooner than one parse of %s (%v)", answered, spec, parse)
	}
	t.Logf("504 after %v; one parse takes %v", answered, parse)
}

// A request whose deadline expires gets its 504, and the computation it
// leaves behind on the detached context must stop at MaxTimeout: the betti
// complex build and the multi-round product sweep poll that context, so
// the computation returns a context error within one poll interval
// (milliseconds) of MaxTimeout instead of running on unbounded. The model
// parse at its start polls no context, so the computation may end no
// sooner than one parse of the spec: the bound is the later of MaxTimeout
// and a parse timed here, plus a second of scheduling slack. The test joins
// the abandoned computation through the server's singleflight and asserts
// on that return.
func TestServeDeadlineStopsDetachedComputation(t *testing.T) {
	const maxTimeout = time.Second
	for _, c := range []struct {
		path, body, kind string
		params           []int
	}{
		{"/v1/betti", `{"model":"star:n=5","values":4,"max_dim":3,"timeout_ms":200}`, "serve.betti", []int{4, 3}},
		{"/v1/bounds", `{"model":"nonsplit:n=5","rounds":3,"timeout_ms":200}`, "serve.bounds", []int{3}},
	} {
		s, ts := newTestServer(t, Config{MaxTimeout: maxTimeout})
		var req struct{ Model string }
		if err := json.Unmarshal([]byte(c.body), &req); err != nil {
			t.Fatal(err)
		}
		start := time.Now()
		if _, err := parseModel(req.Model); err != nil {
			t.Fatal(err)
		}
		bound := max(maxTimeout, time.Since(start)) + time.Second
		st, body := post(t, ts, c.path, c.body)
		if st != http.StatusGatewayTimeout || errKind(t, body) != "deadline" {
			t.Fatalf("%s: status %d (%s), want a 504 deadline envelope", c.path, st, body)
		}
		answered := time.Now()
		type joined struct {
			err    error
			shared bool
		}
		done := make(chan joined, 1)
		go func() {
			_, err, shared := s.fly.Do(flightKey(c.kind, req.Model, c.params...), func() (any, error) { return nil, errNotInFlight })
			done <- joined{err, shared}
		}()
		select {
		case j := <-done:
			if !j.shared {
				t.Fatalf("%s: the computation ended before the test could join it (%v)", c.path, j.err)
			}
			if !errors.Is(j.err, context.DeadlineExceeded) {
				t.Fatalf("%s: detached computation returned %v, want the MaxTimeout deadline", c.path, j.err)
			}
			t.Logf("%s: detached computation returned %v after the 504", c.path, time.Since(answered).Round(time.Millisecond))
		case <-time.After(bound):
			t.Fatalf("%s: detached computation still running %v after the 504 (MaxTimeout %v, bound %v)",
				c.path, time.Since(answered).Round(time.Millisecond), maxTimeout, bound)
		}
	}
}
