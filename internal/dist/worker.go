package dist

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"log/slog"
	"net"
	"net/http"
	"runtime/debug"
	"sync/atomic"
	"time"

	"ksettop/internal/checkpoint"
	"ksettop/internal/cli"
	"ksettop/internal/durable"
	"ksettop/internal/faultinject"
	"ksettop/internal/model"
	"ksettop/internal/obs"
)

// WorkerConfig tunes one Worker. Zero values select the defaults.
type WorkerConfig struct {
	// MaxConcurrent caps shard executions computing at once; excess load is
	// shed with 503 so the coordinator re-dispatches elsewhere. Default 8.
	MaxConcurrent int
	// MaxLease caps any granted lease duration. Default 1m.
	MaxLease time.Duration
	// EnablePprof mounts net/http/pprof under /debug/pprof/ (the -pprof
	// flag on ksetsweepd).
	EnablePprof bool
	// Checkpoint, when set, makes shard executions durable: in-flight
	// progress is recorded into this runner's file on its cadence and on
	// shutdown, and a restarted worker that is re-leased one of those
	// shards resumes it mid-range instead of recomputing (the -checkpoint
	// flag on ksetsweepd). Payloads are byte-identical either way.
	Checkpoint *checkpoint.Runner
	// Log receives operational log lines. Default slog.Default().
	Log *slog.Logger
}

func (c WorkerConfig) withDefaults() WorkerConfig {
	if c.MaxConcurrent <= 0 {
		c.MaxConcurrent = 8
	}
	if c.MaxLease <= 0 {
		c.MaxLease = time.Minute
	}
	if c.Log == nil {
		c.Log = slog.Default()
	}
	return c
}

// WorkerStats is the /statz counter snapshot of one worker.
type WorkerStats struct {
	Execs         uint64 `json:"execs"`       // shard executions completed successfully
	ExecErrors    uint64 `json:"exec_errors"` // shard executions that failed (injected faults included)
	Panics        uint64 `json:"panics"`      // recovered handler panics
	Overloaded    uint64 `json:"overloaded"`  // shed at admission (503)
	Heartbeats    uint64 `json:"heartbeats"`  // heartbeat probes answered
	InFlight      int64  `json:"in_flight"`   // shards computing now
	UptimeSeconds int64  `json:"uptime_seconds"`
}

// Worker is one sweep worker process: it executes rank-shard ops on behalf
// of a coordinator, under the lease deadline the grant carries, and answers
// the heartbeat probes the coordinator's failure detector sends.
type Worker struct {
	cfg   WorkerConfig
	log   *slog.Logger
	mux   *http.ServeMux
	sem   chan struct{}
	start time.Time

	ckpt   *checkpoint.Runner
	shards *shardTable

	// lastPayload is the previous shard result, kept only while the fault
	// registry is armed: it is the stale bytes a dist.lie.replay rule makes
	// the worker serve in place of a fresh result.
	lastPayload atomic.Pointer[[]byte]

	reg        *obs.Registry
	execs      *obs.Counter
	execErrors *obs.Counter
	panics     *obs.Counter
	overloaded *obs.Counter
	heartbeats *obs.Counter
	inFlight   *obs.Gauge
}

// NewWorker builds a Worker from cfg (zero value: all defaults).
func NewWorker(cfg WorkerConfig) *Worker {
	cfg = cfg.withDefaults()
	reg := obs.NewRegistry()
	w := &Worker{
		cfg:   cfg,
		log:   cfg.Log,
		mux:   http.NewServeMux(),
		sem:   make(chan struct{}, cfg.MaxConcurrent),
		start: time.Now(),
		reg:   reg,
		execs: reg.Counter("kset_dist_worker_execs_total",
			"shard executions completed successfully"),
		execErrors: reg.Counter("kset_dist_worker_exec_errors_total",
			"shard executions that failed (injected faults included)"),
		panics: reg.Counter("kset_dist_worker_panics_total",
			"recovered handler panics"),
		overloaded: reg.Counter("kset_dist_worker_overloaded_total",
			"shed at admission (503)"),
		heartbeats: reg.Counter("kset_dist_worker_heartbeats_total",
			"heartbeat probes answered"),
		inFlight: reg.Gauge("kset_dist_worker_in_flight", "shards computing now"),
	}
	if cfg.Checkpoint != nil {
		w.ckpt = cfg.Checkpoint
		w.shards = newShardTable()
		if payload, ok := w.ckpt.Resume(kindDistShards, distShardsFP()); ok {
			if err := w.shards.restore(payload); err != nil {
				w.log.Warn("dist: shard checkpoint section unusable; starting cold", "err", err)
			} else {
				w.log.Info("dist: restored in-flight shard progress from checkpoint")
			}
		}
		w.ckpt.Register(kindDistShards, distShardsFP(), w.shards.encode)
	}
	w.mux.HandleFunc("/dist/v1/exec", w.handleExec)
	w.mux.HandleFunc("/dist/v1/heartbeat", w.handleHeartbeat)
	w.mux.HandleFunc("/healthz", w.handleHealthz)
	w.mux.HandleFunc("/readyz", w.handleHealthz) // no warm boot: ready ⇔ live
	w.mux.HandleFunc("/statz", w.handleStatz)
	w.mux.HandleFunc("/metrics", w.handleMetrics)
	if cfg.EnablePprof {
		obs.RegisterPprof(w.mux)
	}
	return w
}

// Handler returns the worker's HTTP handler (for tests and embedding).
func (w *Worker) Handler() http.Handler { return w.mux }

// MetricsRegistry exposes the worker's per-instance metric registry.
func (w *Worker) MetricsRegistry() *obs.Registry { return w.reg }

// Stats returns the current counters, snapshotted through the registry
// in one pass.
func (w *Worker) Stats() WorkerStats {
	v := w.reg.Values()
	return WorkerStats{
		Execs:         uint64(v["kset_dist_worker_execs_total"]),
		ExecErrors:    uint64(v["kset_dist_worker_exec_errors_total"]),
		Panics:        uint64(v["kset_dist_worker_panics_total"]),
		Overloaded:    uint64(v["kset_dist_worker_overloaded_total"]),
		Heartbeats:    uint64(v["kset_dist_worker_heartbeats_total"]),
		InFlight:      int64(v["kset_dist_worker_in_flight"]),
		UptimeSeconds: int64(time.Since(w.start) / time.Second),
	}
}

// ExecRequest is one shard grant: op + model + rank range + lease.
type ExecRequest struct {
	Op      string `json:"op"`
	Model   string `json:"model"`
	Shard   int    `json:"shard"`
	From    int64  `json:"from"`
	To      int64  `json:"to"`
	LeaseMs int64  `json:"lease_ms"`
}

// ExecResponse carries one computed shard payload. CRC is the IEEE CRC32 of
// Payload computed BEFORE the response leaves the worker, so any corruption
// between computation and the coordinator's checksum — injected, network,
// or a lying worker — is detected and the shard re-dispatched.
type ExecResponse struct {
	Payload []byte `json:"payload"`
	CRC     uint32 `json:"crc"`
	Ranks   int64  `json:"ranks"`
	// Spans are the worker-side trace spans of this request, returned
	// only when the request carried an X-Kset-Trace header. They are
	// NOT covered by CRC (corrupting a span must not fail a valid
	// payload); the coordinator imports them at commit, stitching the
	// cross-process trace tree.
	Spans []obs.SpanData `json:"spans,omitempty"`
}

type workerError struct {
	Kind    string `json:"kind"` // bad_request, overloaded, budget, deadline, internal
	Message string `json:"message"`
}

func writeWorkerJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(v)
}

func writeWorkerError(w http.ResponseWriter, status int, kind, msg string) {
	writeWorkerJSON(w, status, map[string]workerError{"error": {Kind: kind, Message: msg}})
}

func (w *Worker) handleExec(rw http.ResponseWriter, r *http.Request) {
	defer func() {
		if rec := recover(); rec != nil {
			w.panics.Inc()
			w.execErrors.Inc()
			w.log.Error("dist: worker recovered exec panic", "panic", rec, "stack", string(debug.Stack()))
			writeWorkerError(rw, http.StatusInternalServerError, "internal", fmt.Sprintf("panic: %v", rec))
		}
	}()
	if r.Method != http.MethodPost {
		writeWorkerError(rw, http.StatusMethodNotAllowed, "bad_request", "POST only")
		return
	}
	select {
	case w.sem <- struct{}{}:
		defer func() { <-w.sem }()
	default:
		w.overloaded.Inc()
		writeWorkerError(rw, http.StatusServiceUnavailable, "overloaded", "concurrency limit reached")
		return
	}
	w.inFlight.Add(1)
	defer w.inFlight.Add(-1)

	var req ExecRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		writeWorkerError(rw, http.StatusBadRequest, "bad_request", err.Error())
		return
	}
	if req.From < 0 || req.To < req.From {
		writeWorkerError(rw, http.StatusBadRequest, "bad_request",
			fmt.Sprintf("rank range [%d, %d) is not 0 ≤ from ≤ to", req.From, req.To))
		return
	}
	// A traced request (X-Kset-Trace from the coordinator's grant span)
	// collects this worker's spans request-scoped and ships them back in
	// the response — cross-process stitching without a trace collector
	// service. Untraced requests skip all of this.
	rctx := r.Context()
	var collector *obs.Collector
	if h := r.Header.Get(obs.TraceHeaderName); h != "" {
		proc := "ksetsweepd"
		if addr, ok := r.Context().Value(http.LocalAddrContextKey).(net.Addr); ok {
			proc += ":" + addr.String()
		}
		collector = obs.NewCollector(proc)
		rctx, _ = obs.WithRemoteParent(rctx, h, collector)
	}
	execCtx, execSpan := obs.StartSpan(rctx, "dist.exec")
	execSpan.SetInt("shard", int64(req.Shard))
	execSpan.SetInt("ranks", req.To-req.From)
	execSpan.SetAttr("op", req.Op)
	defer execSpan.End()

	// The fault hook models a crashed (panic), failing (error) or straggling
	// (delay) worker while the grant holds its admission slot.
	if err := faultinject.Hit(faultinject.PointDistExec); err != nil {
		w.execErrors.Inc()
		writeWorkerError(rw, http.StatusInternalServerError, "internal", err.Error())
		return
	}
	op, ok := opTable[req.Op]
	if !ok {
		writeWorkerError(rw, http.StatusBadRequest, "bad_request", fmt.Sprintf("unknown op %q", req.Op))
		return
	}
	m, err := cli.ParseModel(req.Model)
	if err != nil {
		writeWorkerError(rw, http.StatusBadRequest, "bad_request", err.Error())
		return
	}
	lease := w.cfg.MaxLease
	if req.LeaseMs > 0 {
		if d := time.Duration(req.LeaseMs) * time.Millisecond; d < lease {
			lease = d
		}
	}
	ctx, cancel := context.WithTimeout(execCtx, lease)
	defer cancel()

	var key string
	var st *ShardState
	if w.shards != nil {
		key = shardKey(req)
		st = w.shards.claim(key, req.From)
	}
	payload, err := op.Run(ctx, m, req.From, req.To, st)
	if st != nil {
		w.shards.release(key, err == nil)
	}
	if err != nil {
		w.execErrors.Inc()
		execSpan.SetAttr("error", err.Error())
		switch {
		case errors.Is(err, model.ErrEnumerationBudget):
			writeWorkerError(rw, http.StatusUnprocessableEntity, "budget", err.Error())
		case errors.Is(err, context.DeadlineExceeded), errors.Is(err, context.Canceled):
			writeWorkerError(rw, http.StatusGatewayTimeout, "deadline", err.Error())
		default:
			writeWorkerError(rw, http.StatusInternalServerError, "internal", err.Error())
		}
		return
	}
	// Byzantine lies are applied BEFORE checksumming: the response stays
	// well-formed and CRC-consistent, so only the coordinator's quorum
	// cross-validation can catch it.
	payload = w.applyLies(payload)
	resp := ExecResponse{CRC: crc32.ChecksumIEEE(payload), Ranks: req.To - req.From}
	// Transport corruption is injected AFTER checksumming: the bytes no
	// longer match their own checksum, which is exactly what the
	// coordinator's CRC check must catch.
	faultinject.Corrupt(faultinject.PointDistResult, payload)
	resp.Payload = payload
	w.execs.Inc()
	if collector != nil {
		execSpan.End() // record before the snapshot so the exec span ships too
		resp.Spans = collector.Spans()
	}
	writeWorkerJSON(rw, http.StatusOK, resp)
}

// applyLies gives the armed fault registry its chance to turn this worker
// into a liar (the dist.lie.* points): each mutation keeps the payload
// well-formed — a plausible count, a shorter or reordered enum, a stale
// replay — and runs before the response CRC is computed, so the checksum
// vouches for the lie. With nothing armed this is one atomic load.
func (w *Worker) applyLies(payload []byte) []byte {
	if !faultinject.Enabled() {
		return payload
	}
	if faultinject.Hit(faultinject.PointDistLieCount) != nil {
		payload = lieCountOffByOne(payload)
	}
	if err := faultinject.Hit(faultinject.PointDistLieEnum); err != nil {
		var ie *faultinject.InjectedError
		odd := errors.As(err, &ie) && ie.Nth%2 == 1
		payload = lieEnumBytes(payload, odd)
	}
	if faultinject.Hit(faultinject.PointDistLieReplay) != nil {
		if prev := w.lastPayload.Load(); prev != nil && len(*prev) > 0 {
			payload = append([]byte(nil), *prev...)
		}
	}
	stale := append([]byte(nil), payload...)
	w.lastPayload.Store(&stale)
	return payload
}

// lieCountOffByOne re-encodes a uvarint count payload as count+1. A payload
// that is not a bare uvarint gets a trailing zero byte instead — still a
// plausible-looking, CRC-consistent divergence.
func lieCountOffByOne(payload []byte) []byte {
	br := bytes.NewReader(payload)
	n, err := binary.ReadUvarint(br)
	if err != nil || br.Len() != 0 {
		return append(append([]byte(nil), payload...), 0)
	}
	var buf bytes.Buffer
	durable.WriteUvarint(&buf, n+1)
	return buf.Bytes()
}

// lieEnumBytes drops the last byte (truncate) or rotates the payload left by
// one (permute) — both CRC-consistent, both wrong.
func lieEnumBytes(payload []byte, truncate bool) []byte {
	if len(payload) == 0 {
		return []byte{0}
	}
	if truncate {
		return append([]byte(nil), payload[:len(payload)-1]...)
	}
	out := append([]byte(nil), payload[1:]...)
	return append(out, payload[0])
}

func (w *Worker) handleHeartbeat(rw http.ResponseWriter, r *http.Request) {
	// An injected heartbeat fault models a network partition: the worker is
	// healthy but the coordinator's failure detector cannot see it.
	if err := faultinject.Hit(faultinject.PointDistHeartbeat); err != nil {
		writeWorkerError(rw, http.StatusServiceUnavailable, "internal", err.Error())
		return
	}
	w.heartbeats.Inc()
	writeWorkerJSON(rw, http.StatusOK, map[string]any{"ok": true, "in_flight": w.inFlight.Value()})
}

func (w *Worker) handleHealthz(rw http.ResponseWriter, r *http.Request) {
	writeWorkerJSON(rw, http.StatusOK, map[string]any{"ok": true, "uptime_seconds": int64(time.Since(w.start) / time.Second)})
}

func (w *Worker) handleStatz(rw http.ResponseWriter, r *http.Request) {
	writeWorkerJSON(rw, http.StatusOK, w.Stats())
}

// handleMetrics serves the Prometheus text exposition: the process-wide
// engine metrics plus this worker instance's counters.
func (w *Worker) handleMetrics(rw http.ResponseWriter, r *http.Request) {
	rw.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	obs.WritePrometheusTo(rw, obs.DefaultRegistry(), w.reg)
}
