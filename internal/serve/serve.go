// Package serve is the long-running bound-query service: an HTTP+JSON
// front-end over the repository's solver, homology and bound engines,
// hardened for unattended operation.
//
// Every request is (1) admission-controlled by a concurrency semaphore —
// overload sheds with 503 instead of queueing unboundedly, (2) bounded by a
// per-request deadline that cancels the engine sweep cooperatively through
// the PR-6 context backbone, (3) isolated from worker panics (a panic
// becomes a 500 and a counter bump, never a crash), and (4) deduplicated
// against identical in-flight requests by a singleflight, so a thundering
// herd of equal queries costs one solve. Responses for
// completed computations are deterministic: the engines' parallelism
// contract makes repeated queries byte-identical.
//
// The process around a Server — listening, graceful drain, and the memo
// snapshot it warm-boots from and saves in the background and at drain —
// is the shared daemon lifecycle of internal/cli (cli.Command.Serve).
package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"net/http"
	"runtime/debug"
	"strconv"
	"time"

	"ksettop/internal/cli"
	"ksettop/internal/core"
	"ksettop/internal/dist"
	"ksettop/internal/faultinject"
	"ksettop/internal/memo"
	"ksettop/internal/model"
	"ksettop/internal/obs"
	"ksettop/internal/par"
	"ksettop/internal/protocol"
	"ksettop/internal/topology"
)

// Config tunes one Server. Zero values select the documented defaults.
type Config struct {
	// MaxConcurrent caps requests computing at once; excess load is shed
	// with 503 at admission. Default 8.
	MaxConcurrent int
	// DefaultTimeout bounds a request that names no deadline. Default 30s.
	DefaultTimeout time.Duration
	// MaxTimeout caps any request deadline and bounds the detached
	// computation behind the singleflight. Default 2m.
	MaxTimeout time.Duration
	// MaxSolverBudget caps the per-request solver node budget; larger asks
	// are rejected at admission with 422. Default 50M (the stock budget).
	MaxSolverBudget int
	// Coordinator, when set, puts the service in coordinator mode: its
	// counters merge into /statz and /metrics, and /readyz additionally
	// requires ≥ 1 live worker. No query goes to its fleet.
	Coordinator *dist.Coordinator
	// EnablePprof mounts net/http/pprof under /debug/pprof/ (the -pprof
	// flag on ksetserved).
	EnablePprof bool
	// Log receives operational log lines. Default slog.Default().
	Log *slog.Logger
}

func (c Config) withDefaults() Config {
	if c.MaxConcurrent <= 0 {
		c.MaxConcurrent = 8
	}
	if c.DefaultTimeout <= 0 {
		c.DefaultTimeout = 30 * time.Second
	}
	if c.MaxTimeout <= 0 {
		c.MaxTimeout = 2 * time.Minute
	}
	if c.MaxSolverBudget <= 0 {
		c.MaxSolverBudget = 50_000_000
	}
	if c.Log == nil {
		c.Log = slog.Default()
	}
	return c
}

// Stats is a point-in-time snapshot of the service counters, exposed at
// /statz.
type Stats struct {
	Requests      uint64 `json:"requests"`       // API requests accepted for decoding
	InFlight      int64  `json:"in_flight"`      // currently computing
	Shared        uint64 `json:"shared"`         // served by joining an in-flight computation
	Panics        uint64 `json:"panics"`         // worker/handler panics converted to 500s
	Overloaded    uint64 `json:"overloaded"`     // shed at admission (503)
	BudgetRejects uint64 `json:"budget_rejects"` // solver/enumeration budget rejections (422)
	Timeouts      uint64 `json:"timeouts"`       // request deadlines expired (504)
	UptimeSeconds int64  `json:"uptime_seconds"`
	// Dist carries the coordinator's ring/lease/retry/hedge counters when
	// the service runs in coordinator mode.
	Dist *dist.CoordStats `json:"dist,omitempty"`
}

// Server is one bound-query service instance.
type Server struct {
	cfg   Config
	log   *slog.Logger
	mux   *http.ServeMux
	sem   chan struct{}
	fly   memo.Flight[any]
	start time.Time

	// Counters live on a per-instance registry (tests spin many servers in
	// one process), so /statz and /metrics read the same storage and a
	// snapshot is one consistent pass under the registry lock.
	reg           *obs.Registry
	requests      *obs.Counter
	inFlight      *obs.Gauge
	shared        *obs.Counter
	panics        *obs.Counter
	overloaded    *obs.Counter
	budgetRejects *obs.Counter
	timeouts      *obs.Counter
	requestSecs   *obs.Histogram
}

// New builds a Server from cfg (zero value: all defaults).
func New(cfg Config) *Server {
	cfg = cfg.withDefaults()
	reg := obs.NewRegistry()
	s := &Server{
		cfg:   cfg,
		log:   cfg.Log,
		mux:   http.NewServeMux(),
		sem:   make(chan struct{}, cfg.MaxConcurrent),
		start: time.Now(),
		reg:   reg,
		requests: reg.Counter("kset_serve_requests_total",
			"API requests accepted for decoding"),
		inFlight: reg.Gauge("kset_serve_in_flight", "requests computing now"),
		shared: reg.Counter("kset_serve_shared_total",
			"requests served by joining an in-flight computation"),
		panics: reg.Counter("kset_serve_panics_total",
			"worker/handler panics converted to 500s"),
		overloaded: reg.Counter("kset_serve_overloaded_total",
			"requests shed at admission (503)"),
		budgetRejects: reg.Counter("kset_serve_budget_rejects_total",
			"solver/enumeration budget rejections (422)"),
		timeouts: reg.Counter("kset_serve_timeouts_total",
			"request deadlines expired (504)"),
		requestSecs: reg.Histogram("kset_serve_request_seconds",
			"admitted request wall time", obs.LatencyBuckets()),
	}
	s.mux.HandleFunc("/healthz", s.handleHealthz)
	s.mux.HandleFunc("/readyz", s.handleReadyz)
	s.mux.HandleFunc("/statz", s.handleStatz)
	s.mux.HandleFunc("/metrics", s.handleMetrics)
	s.mux.HandleFunc("/v1/solve", s.api(s.handleSolve))
	s.mux.HandleFunc("/v1/betti", s.api(s.handleBetti))
	s.mux.HandleFunc("/v1/bounds", s.api(s.handleBounds))
	s.mux.HandleFunc("/v1/count", s.api(s.handleCount))
	if cfg.EnablePprof {
		obs.RegisterPprof(s.mux)
	}
	return s
}

// Handler returns the service's HTTP handler (for tests and embedding).
func (s *Server) Handler() http.Handler { return s.mux }

// MetricsRegistry exposes the server's per-instance metric registry.
func (s *Server) MetricsRegistry() *obs.Registry { return s.reg }

// Stats returns the current counters, snapshotted through the registry in
// one pass so /statz never tears a set of related counters.
func (s *Server) Stats() Stats {
	var ds *dist.CoordStats
	if s.cfg.Coordinator != nil {
		snap := s.cfg.Coordinator.Stats()
		ds = &snap
	}
	v := s.reg.Values()
	u := func(name string) uint64 { return uint64(v[name]) }
	return Stats{
		Dist:          ds,
		Requests:      u("kset_serve_requests_total"),
		InFlight:      int64(v["kset_serve_in_flight"]),
		Shared:        u("kset_serve_shared_total"),
		Panics:        u("kset_serve_panics_total"),
		Overloaded:    u("kset_serve_overloaded_total"),
		BudgetRejects: u("kset_serve_budget_rejects_total"),
		Timeouts:      u("kset_serve_timeouts_total"),
		UptimeSeconds: int64(time.Since(s.start) / time.Second),
	}
}

// handleMetrics serves the Prometheus text exposition: engine-wide metrics
// (solver, homology, par, memo) plus this server's, plus the coordinator's
// when the service runs in coordinator mode.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	regs := []*obs.Registry{obs.DefaultRegistry(), s.reg}
	if s.cfg.Coordinator != nil {
		regs = append(regs, s.cfg.Coordinator.MetricsRegistry())
	}
	obs.WritePrometheusTo(w, regs...)
}

// apiError is the JSON error envelope. Kind is machine-readable:
// bad_request, overloaded, budget, deadline, internal.
type apiError struct {
	Kind    string `json:"kind"`
	Message string `json:"message"`
	Budget  int    `json:"budget,omitempty"` // budget rejections: the configured budget
	Nodes   int    `json:"nodes,omitempty"`  // budget rejections: deterministic nodes charged
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(v)
}

func writeError(w http.ResponseWriter, status int, e apiError) {
	writeJSON(w, status, map[string]apiError{"error": e})
}

// api wraps an endpoint with the hardening chain: panic isolation,
// fault-injection hook, admission control — plus the request span: the
// admitted request becomes a "serve.request" span, adopting an inbound
// X-Kset-Trace parent when a tracing client sent one, so engine-phase spans
// (which read the context through compute's detached WithoutCancel chain)
// parent into it.
func (s *Server) api(h func(http.ResponseWriter, *http.Request)) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		defer func() {
			if rec := recover(); rec != nil {
				s.panics.Inc()
				s.log.Error("serve: recovered handler panic", "panic", rec, "stack", string(debug.Stack()))
				writeError(w, http.StatusInternalServerError,
					apiError{Kind: "internal", Message: fmt.Sprintf("panic: %v", rec)})
			}
		}()
		if r.Method != http.MethodPost {
			writeError(w, http.StatusMethodNotAllowed, apiError{Kind: "bad_request", Message: "POST only"})
			return
		}
		select {
		case s.sem <- struct{}{}:
			defer func() { <-s.sem }()
		default:
			s.overloaded.Inc()
			writeError(w, http.StatusServiceUnavailable, apiError{Kind: "overloaded", Message: "concurrency limit reached"})
			return
		}
		s.requests.Inc()
		s.inFlight.Add(1)
		defer s.inFlight.Add(-1)
		var admitted time.Time
		if obs.Enabled() {
			admitted = time.Now()
			defer func() { s.requestSecs.Observe(time.Since(admitted).Seconds()) }()
		}
		ctx := r.Context()
		if h := r.Header.Get(obs.TraceHeaderName); h != "" {
			ctx, _ = obs.WithRemoteParent(ctx, h, nil)
		}
		ctx, span := obs.StartSpan(ctx, "serve.request")
		span.SetAttr("path", r.URL.Path)
		defer span.End()
		r = r.WithContext(ctx)
		// The fault hook runs while the request holds its admission slot, so
		// an injected delay models a genuinely slow request: concurrent load
		// then sheds with 503 exactly as it would in production.
		if err := faultinject.Hit(faultinject.PointServeRequest); err != nil {
			writeError(w, http.StatusInternalServerError, apiError{Kind: "internal", Message: err.Error()})
			return
		}
		h(w, r)
	}
}

// requestTimeout resolves the effective deadline of a request: the asked-for
// timeout_ms (clamped to MaxTimeout, DefaultTimeout when absent), then the
// deadline-compression fault hook (modeling a client or LB cutting the
// budget short).
func (s *Server) requestTimeout(timeoutMs int) time.Duration {
	d := s.cfg.DefaultTimeout
	if timeoutMs > 0 {
		d = time.Duration(timeoutMs) * time.Millisecond
	}
	if d > s.cfg.MaxTimeout {
		d = s.cfg.MaxTimeout
	}
	return faultinject.CompressDeadline(faultinject.PointServeRequest, d)
}

// compute runs fn behind the singleflight (key: flightKey) on a context
// DETACHED from the request: followers share the leader's result, and a
// caller whose deadline expires gets 504 while the computation keeps running
// (bounded by MaxTimeout) for the callers still waiting — a cancelled
// leader must never poison shared work. The per-request deadline still
// cancels the wait, and fn observes cancellation through the detached
// context's own MaxTimeout ceiling.
func (s *Server) compute(w http.ResponseWriter, r *http.Request, timeoutMs int, key string, fn func(ctx context.Context) (any, error)) {
	reqCtx, cancel := context.WithTimeout(r.Context(), s.requestTimeout(timeoutMs))
	defer cancel()

	type outcome struct {
		val    any
		err    error
		shared bool
	}
	ch := make(chan outcome, 1)
	go func() {
		detached, done := context.WithTimeout(context.WithoutCancel(r.Context()), s.cfg.MaxTimeout)
		defer done()
		v, err, shared := s.fly.Do(key, func() (any, error) { return fn(detached) })
		ch <- outcome{v, err, shared}
	}()

	select {
	case <-reqCtx.Done():
		s.timeouts.Inc()
		writeError(w, http.StatusGatewayTimeout,
			apiError{Kind: "deadline", Message: context.Cause(reqCtx).Error()})
	case out := <-ch:
		var br badRequestError
		switch {
		case out.err == nil:
			if out.shared {
				s.shared.Inc()
			}
			writeJSON(w, http.StatusOK, out.val)
		case errors.As(out.err, &br):
			writeError(w, http.StatusBadRequest, apiError{Kind: "bad_request", Message: br.Error()})
		case errors.Is(out.err, protocol.ErrBudgetExceeded):
			s.budgetRejects.Inc()
			var be *protocol.BudgetError
			e := apiError{Kind: "budget", Message: out.err.Error()}
			if errors.As(out.err, &be) {
				e.Budget, e.Nodes = be.Budget, be.Nodes
			}
			writeError(w, http.StatusUnprocessableEntity, e)
		case errors.Is(out.err, model.ErrEnumerationBudget):
			s.budgetRejects.Inc()
			writeError(w, http.StatusUnprocessableEntity, apiError{Kind: "budget", Message: out.err.Error()})
		case errors.Is(out.err, context.DeadlineExceeded), errors.Is(out.err, context.Canceled):
			s.timeouts.Inc()
			writeError(w, http.StatusGatewayTimeout, apiError{Kind: "deadline", Message: out.err.Error()})
		default:
			// Only a recovered panic counts as one: a worker panic the
			// engine contained, or the singleflight leader's own.
			var pe *par.PanicError
			var fe *memo.FlightPanicError
			if errors.As(out.err, &pe) || errors.As(out.err, &fe) {
				s.panics.Inc()
			}
			writeError(w, http.StatusInternalServerError, apiError{Kind: "internal", Message: out.err.Error()})
		}
	}
}

// badRequestError is a request the computation rejects as the caller's
// fault — a model spec the CLI grammar rejects, an input complex too large
// to build; compute answers it 400 bad_request.
type badRequestError struct{ error }

func (e badRequestError) Unwrap() error { return e.error }

// parseModel resolves a request's model spec with the CLI grammar, so the
// service and the command-line tools accept identical specifications. The
// handlers call it inside their computation, so the request deadline bounds
// the parse too: building a large model can take longer than the deadline.
func parseModel(spec string) (*model.ClosedAbove, error) {
	m, err := cli.ParseModel(spec)
	if err != nil {
		return nil, badRequestError{err}
	}
	return m, nil
}

// flightKey is the singleflight identity of a request: the endpoint, its
// integer parameters and the model spec as written. The spec comes last, so
// no two requests share a key by an accident of concatenation.
func flightKey(endpoint, spec string, params ...int) string {
	k := endpoint
	for _, p := range params {
		k += ":" + strconv.Itoa(p)
	}
	return k + "|" + spec
}

// SolveRequest asks whether k-set agreement is solvable in one round over
// the model's generators (impossibility certificates; see protocol package
// soundness notes).
type SolveRequest struct {
	Model     string `json:"model"`                // cli.ParseModel spec
	Values    int    `json:"values"`               // input value count
	K         int    `json:"k"`                    // agreement parameter
	Budget    int    `json:"budget,omitempty"`     // solver node budget (0 = server cap)
	TimeoutMs int    `json:"timeout_ms,omitempty"` // request deadline (0 = server default)
}

// SolveResponse reports the deterministic solver verdict.
type SolveResponse struct {
	Solvable   bool `json:"solvable"`
	Views      int  `json:"views"`
	Executions int  `json:"executions"`
	Nodes      int  `json:"nodes"`
}

func (s *Server) handleSolve(w http.ResponseWriter, r *http.Request) {
	var req SolveRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		writeError(w, http.StatusBadRequest, apiError{Kind: "bad_request", Message: err.Error()})
		return
	}
	if req.Values < 2 || req.Values > protocol.MaxSolverValues || req.K < 1 {
		writeError(w, http.StatusBadRequest, apiError{Kind: "bad_request",
			Message: fmt.Sprintf("values must be in [2, %d] and k ≥ 1", protocol.MaxSolverValues)})
		return
	}
	budget := req.Budget
	if budget <= 0 {
		budget = s.cfg.MaxSolverBudget
	}
	if budget > s.cfg.MaxSolverBudget {
		s.budgetRejects.Inc()
		writeError(w, http.StatusUnprocessableEntity, apiError{
			Kind:    "budget",
			Message: fmt.Sprintf("requested budget %d exceeds server cap %d", budget, s.cfg.MaxSolverBudget),
			Budget:  s.cfg.MaxSolverBudget,
		})
		return
	}
	key := flightKey("serve.solve", req.Model, req.Values, req.K, budget)
	s.compute(w, r, req.TimeoutMs, key, func(ctx context.Context) (any, error) {
		m, err := parseModel(req.Model)
		if err != nil {
			return nil, err
		}
		// The adversary picks any graph of the closed-above model, so the
		// sweep runs over the full enumeration, not just the generators —
		// the same contract as core.VerifyLowerBySolver.
		all, err := m.AllGraphsCtx(ctx)
		if err != nil {
			return nil, err
		}
		res, err := protocol.SolveOneRoundCtx(ctx, all, req.Values, req.K, budget)
		if err != nil {
			return nil, err
		}
		return SolveResponse{Solvable: res.Solvable, Views: res.Views, Executions: res.Executions, Nodes: res.Nodes}, nil
	})
}

// BettiRequest asks for the reduced GF(2) Betti numbers of the model's
// one-round protocol complex over Values input values.
type BettiRequest struct {
	Model     string `json:"model"`
	Values    int    `json:"values"`
	MaxDim    int    `json:"max_dim"`
	TimeoutMs int    `json:"timeout_ms,omitempty"`
}

// BettiResponse carries β̃_0 … β̃_maxDim.
type BettiResponse struct {
	Betti []int `json:"betti"`
}

func (s *Server) handleBetti(w http.ResponseWriter, r *http.Request) {
	var req BettiRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		writeError(w, http.StatusBadRequest, apiError{Kind: "bad_request", Message: err.Error()})
		return
	}
	if req.Values < 1 || req.MaxDim < 0 {
		writeError(w, http.StatusBadRequest, apiError{Kind: "bad_request", Message: "values must be ≥ 1, max_dim ≥ 0"})
		return
	}
	key := flightKey("serve.betti", req.Model, req.Values, req.MaxDim)
	s.compute(w, r, req.TimeoutMs, key, func(ctx context.Context) (any, error) {
		m, err := parseModel(req.Model)
		if err != nil {
			return nil, err
		}
		pc, err := core.ProtocolComplexOneRoundCtx(ctx, m, req.Values)
		if err != nil {
			if ctx.Err() == nil {
				// Short of cancellation, the build fails only on the
				// request's size: values^n past the input-complex cap,
				// more processes than an interpreted view holds, or a
				// value over 254.
				err = badRequestError{err}
			}
			return nil, err
		}
		ac, _, err := pc.ToAbstract()
		if err != nil {
			return nil, err
		}
		betti, err := topology.ReducedBettiNumbersCtx(ctx, ac, req.MaxDim)
		if err != nil {
			return nil, err
		}
		return BettiResponse{Betti: betti}, nil
	})
}

// BoundsRequest asks for the paper's bound report over rounds 1..Rounds.
type BoundsRequest struct {
	Model     string `json:"model"`
	Rounds    int    `json:"rounds"`
	TimeoutMs int    `json:"timeout_ms,omitempty"`
}

// BoundRow is the best bound pair at one round count.
type BoundRow struct {
	Rounds       int    `json:"rounds"`
	UpperK       int    `json:"upper_k"`
	UpperTheorem string `json:"upper_theorem"`
	LowerK       int    `json:"lower_k"`
	LowerTheorem string `json:"lower_theorem"`
	Tight        bool   `json:"tight"`
}

// BoundsResponse carries the per-round best bounds.
type BoundsResponse struct {
	N      int        `json:"n"`
	Best   []BoundRow `json:"best"`
	Report string     `json:"report"` // the CLI's rendered report
}

func (s *Server) handleBounds(w http.ResponseWriter, r *http.Request) {
	var req BoundsRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		writeError(w, http.StatusBadRequest, apiError{Kind: "bad_request", Message: err.Error()})
		return
	}
	if req.Rounds < 1 {
		req.Rounds = 1
	}
	key := flightKey("serve.bounds", req.Model, req.Rounds)
	s.compute(w, r, req.TimeoutMs, key, func(ctx context.Context) (any, error) {
		m, err := parseModel(req.Model)
		if err != nil {
			return nil, err
		}
		a, err := core.AnalyzeCtx(ctx, m, req.Rounds)
		if err != nil {
			return nil, err
		}
		resp := BoundsResponse{N: m.N(), Report: a.Render()}
		for _, b := range a.Best {
			resp.Best = append(resp.Best, BoundRow{
				Rounds:       b.Rounds,
				UpperK:       b.Upper.K,
				UpperTheorem: b.Upper.Theorem,
				LowerK:       b.Lower.K,
				LowerTheorem: b.Lower.Theorem,
				Tight:        b.Tight,
			})
		}
		return resp, nil
	})
}

// CountRequest asks for the closure size |⋃ ↑G_i| of a model. The service
// counts it in process by edge branching (model.GraphCountCtx), also in
// coordinator mode: the worker fleet never receives a /v1/count.
type CountRequest struct {
	Model     string `json:"model"`
	TimeoutMs int    `json:"timeout_ms,omitempty"`
}

// CountResponse carries the closure element count.
type CountResponse struct {
	Count int64 `json:"count"`
}

func (s *Server) handleCount(w http.ResponseWriter, r *http.Request) {
	var req CountRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		writeError(w, http.StatusBadRequest, apiError{Kind: "bad_request", Message: err.Error()})
		return
	}
	key := flightKey("serve.count", req.Model)
	s.compute(w, r, req.TimeoutMs, key, func(ctx context.Context) (any, error) {
		m, err := parseModel(req.Model)
		if err != nil {
			return nil, err
		}
		count, err := m.GraphCountCtx(ctx)
		if err != nil {
			return nil, err
		}
		return CountResponse{Count: int64(count)}, nil
	})
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string]any{"ok": true, "uptime_seconds": int64(time.Since(s.start) / time.Second)})
}

// handleReadyz is the readiness probe, distinct from /healthz liveness: the
// process can be alive (healthz 200) but not able to serve well — in
// coordinator mode with a dead worker fleet. Load balancers should gate
// traffic on /readyz and restarts on /healthz.
func (s *Server) handleReadyz(w http.ResponseWriter, r *http.Request) {
	reasons := []string{}
	live := -1
	if s.cfg.Coordinator != nil {
		live = s.cfg.Coordinator.LiveWorkers()
		if live == 0 {
			reasons = append(reasons, "coordinator has no live workers")
		}
	}
	body := map[string]any{"ready": len(reasons) == 0}
	if live >= 0 {
		body["live_workers"] = live
	}
	if len(reasons) > 0 {
		body["reasons"] = reasons
		writeJSON(w, http.StatusServiceUnavailable, body)
		return
	}
	writeJSON(w, http.StatusOK, body)
}

func (s *Server) handleStatz(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.Stats())
}
