package obs

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Span tracing: lightweight trace/span IDs with parent links, carried
// through context, recorded into a bounded in-memory ring on End, and
// exported as Chrome trace_event JSON (chrome://tracing / Perfetto).
//
// Tracing is off by default (-trace-out or SetTracingEnabled turns it
// on); when off, StartSpan returns a nil *Span whose methods are all
// no-ops, so instrumented code never branches. The one exception: a
// context carrying a remote parent (a coordinator's X-Kset-Trace
// header) always records, into the request-scoped Collector, so a
// worker contributes spans to a coordinator's trace without having
// tracing enabled process-wide.
//
// Span IDs are random per process. They never influence computation,
// so they don't violate the determinism contract.

var (
	tracingEnabled atomic.Bool
	idCounter      atomic.Uint64
	idSeed         uint64

	procMu   sync.Mutex
	procName = "ksettop"

	traceMu   sync.Mutex
	traceRing []SpanData
	traceNext int  // next write slot once the ring is full
	traceFull bool // ring has wrapped
	traceCap  = DefaultTraceCapacity

	spansRecorded = DefaultRegistry().Counter("kset_obs_spans_recorded_total",
		"spans recorded into the trace ring or a collector")
	spansDropped = DefaultRegistry().Counter("kset_obs_spans_dropped_total",
		"spans overwritten in the bounded trace ring (raise capacity or export sooner)")
)

// DefaultTraceCapacity is the default bound on retained spans.
const DefaultTraceCapacity = 16384

func init() {
	idSeed = uint64(time.Now().UnixNano()) ^ uint64(os.Getpid())<<32
}

// SetTracingEnabled turns span recording on or off process-wide.
func SetTracingEnabled(on bool) { tracingEnabled.Store(on) }

// TracingEnabled reports whether process-wide tracing is on.
func TracingEnabled() bool { return tracingEnabled.Load() }

// SetProcessName sets the process label stamped on spans recorded in
// this process (defaults to "ksettop"; daemons set their binary name).
func SetProcessName(name string) {
	procMu.Lock()
	procName = name
	procMu.Unlock()
}

func processName() string {
	procMu.Lock()
	defer procMu.Unlock()
	return procName
}

// splitmix64 finalizer — same mixer the dist ring uses; good enough
// dispersion for IDs that only need uniqueness.
func mix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

func newID() uint64 {
	for {
		if id := mix64(idSeed ^ idCounter.Add(1)); id != 0 {
			return id
		}
	}
}

// An Attr is one key/value annotation on a span.
type Attr struct {
	K string `json:"k"`
	V string `json:"v"`
}

// SpanData is the immutable record of a finished span. It is the wire
// type for cross-process span shipping (dist ExecResponse) and the
// input to the Chrome exporter.
type SpanData struct {
	TraceID     uint64 `json:"trace"`
	SpanID      uint64 `json:"span"`
	Parent      uint64 `json:"parent,omitempty"`
	Name        string `json:"name"`
	Proc        string `json:"proc,omitempty"`
	StartUnixNs int64  `json:"start_ns"`
	DurNs       int64  `json:"dur_ns"`
	Attrs       []Attr `json:"attrs,omitempty"`
}

// A Collector gathers spans for one request instead of the process
// ring — a worker serving a traced exec request collects its spans
// here and ships them back in the response.
type Collector struct {
	mu    sync.Mutex
	proc  string // overrides the process label on collected spans
	spans []SpanData
}

// NewCollector returns a collector stamping proc on collected spans
// (empty keeps the process default).
func NewCollector(proc string) *Collector { return &Collector{proc: proc} }

func (c *Collector) add(sd SpanData) {
	c.mu.Lock()
	if c.proc != "" {
		sd.Proc = c.proc
	}
	c.spans = append(c.spans, sd)
	c.mu.Unlock()
}

// Spans returns the collected spans.
func (c *Collector) Spans() []SpanData {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]SpanData, len(c.spans))
	copy(out, c.spans)
	return out
}

type scopeKey struct{}

type scope struct {
	traceID uint64
	spanID  uint64
	sink    *Collector // nil → process ring
}

// A Span is an in-flight traced operation. A nil *Span is valid and all
// methods are no-ops, so call sites never branch on tracing state.
type Span struct {
	name    string
	traceID uint64
	id      uint64
	parent  uint64
	start   time.Time
	sink    *Collector
	mu      sync.Mutex
	attrs   []Attr
	ended   bool
}

// StartSpan starts a span named name as a child of the span in ctx (a
// new trace root if none) and returns a derived context carrying it.
// Returns (ctx, nil) when tracing is off and ctx carries no scope.
func StartSpan(ctx context.Context, name string) (context.Context, *Span) {
	return StartSpanAt(ctx, name, time.Time{})
}

// StartSpanAt is StartSpan with an explicit start time (zero means
// now) — for callers that know the operation began earlier.
func StartSpanAt(ctx context.Context, name string, start time.Time) (context.Context, *Span) {
	if ctx == nil {
		ctx = context.Background()
	}
	sc, _ := ctx.Value(scopeKey{}).(*scope)
	if sc == nil && !tracingEnabled.Load() {
		return ctx, nil
	}
	s := &Span{name: name, id: newID(), start: start}
	if s.start.IsZero() {
		s.start = time.Now()
	}
	if sc != nil {
		s.traceID = sc.traceID
		s.parent = sc.spanID
		s.sink = sc.sink
	} else {
		s.traceID = newID()
	}
	ctx = context.WithValue(ctx, scopeKey{},
		&scope{traceID: s.traceID, spanID: s.id, sink: s.sink})
	return ctx, s
}

// SetAttr annotates the span with a string attribute.
func (s *Span) SetAttr(k, v string) {
	if s == nil {
		return
	}
	s.mu.Lock()
	s.attrs = append(s.attrs, Attr{K: k, V: v})
	s.mu.Unlock()
}

// SetInt annotates the span with an integer attribute.
func (s *Span) SetInt(k string, v int64) {
	s.SetAttr(k, strconv.FormatInt(v, 10))
}

// TraceID returns the span's trace ID (0 on nil).
func (s *Span) TraceID() uint64 {
	if s == nil {
		return 0
	}
	return s.traceID
}

// End finishes the span and records it (ring or collector). Safe to
// call more than once; only the first call records.
func (s *Span) End() {
	if s == nil {
		return
	}
	s.mu.Lock()
	if s.ended {
		s.mu.Unlock()
		return
	}
	s.ended = true
	attrs := s.attrs
	s.mu.Unlock()
	sd := SpanData{
		TraceID:     s.traceID,
		SpanID:      s.id,
		Parent:      s.parent,
		Name:        s.name,
		Proc:        processName(),
		StartUnixNs: s.start.UnixNano(),
		DurNs:       time.Since(s.start).Nanoseconds(),
		Attrs:       attrs,
	}
	if s.sink != nil {
		s.sink.add(sd)
		spansRecorded.Inc()
		return
	}
	recordSpan(sd)
}

func recordSpan(sd SpanData) {
	spansRecorded.Inc()
	traceMu.Lock()
	if len(traceRing) < traceCap {
		traceRing = append(traceRing, sd)
	} else {
		traceRing[traceNext] = sd
		traceNext = (traceNext + 1) % traceCap
		traceFull = true
		spansDropped.Inc()
	}
	traceMu.Unlock()
}

// ImportSpans records externally produced spans (a worker's collected
// spans) into the process ring, preserving their proc labels.
func ImportSpans(spans []SpanData) {
	for _, sd := range spans {
		recordSpan(sd)
	}
}

// TraceSpans returns a snapshot of the span ring in record order.
func TraceSpans() []SpanData {
	traceMu.Lock()
	defer traceMu.Unlock()
	if !traceFull {
		out := make([]SpanData, len(traceRing))
		copy(out, traceRing)
		return out
	}
	out := make([]SpanData, 0, traceCap)
	out = append(out, traceRing[traceNext:]...)
	out = append(out, traceRing[:traceNext]...)
	return out
}

// ResetTrace clears the span ring and optionally resizes it (capacity
// <= 0 keeps the current bound). For tests and between exports.
func ResetTrace(capacity int) {
	traceMu.Lock()
	if capacity > 0 {
		traceCap = capacity
	}
	traceRing = nil
	traceNext = 0
	traceFull = false
	traceMu.Unlock()
}

// TraceHeader encodes the current span scope as the X-Kset-Trace wire
// value ("traceID-spanID" hex), or "" when ctx carries none.
func TraceHeader(ctx context.Context) string {
	if ctx == nil {
		return ""
	}
	sc, _ := ctx.Value(scopeKey{}).(*scope)
	if sc == nil {
		return ""
	}
	return fmt.Sprintf("%016x-%016x", sc.traceID, sc.spanID)
}

// TraceHeaderName is the HTTP header carrying trace context across the
// coordinator→worker hop.
const TraceHeaderName = "X-Kset-Trace"

// WithRemoteParent installs the remote scope encoded in header (a
// TraceHeader value) into ctx, so spans started under it join the
// remote trace. Spans record into sink when non-nil (the
// request-scoped collection workers ship back) instead of the process
// ring. Returns ctx unchanged and false when header doesn't parse.
func WithRemoteParent(ctx context.Context, header string, sink *Collector) (context.Context, bool) {
	traceID, spanID, ok := parseTraceHeader(header)
	if !ok {
		return ctx, false
	}
	if ctx == nil {
		ctx = context.Background()
	}
	return context.WithValue(ctx, scopeKey{},
		&scope{traceID: traceID, spanID: spanID, sink: sink}), true
}

func parseTraceHeader(h string) (traceID, spanID uint64, ok bool) {
	t, s, found := strings.Cut(h, "-")
	if !found {
		return 0, 0, false
	}
	traceID, err1 := strconv.ParseUint(t, 16, 64)
	spanID, err2 := strconv.ParseUint(s, 16, 64)
	if err1 != nil || err2 != nil || traceID == 0 || spanID == 0 {
		return 0, 0, false
	}
	return traceID, spanID, true
}

// chromeEvent is one trace_event entry ("X" complete events plus "M"
// process_name metadata).
type chromeEvent struct {
	Name string         `json:"name"`
	Ph   string         `json:"ph"`
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid,omitempty"`
	Ts   float64        `json:"ts,omitempty"`
	Dur  float64        `json:"dur,omitempty"`
	Args map[string]any `json:"args,omitempty"`
}

// WriteChromeTrace exports the span ring as Chrome trace_event JSON
// ({"traceEvents": [...]}, loadable in chrome://tracing or Perfetto).
// Processes map to pids by proc label; tids group spans under their
// root ancestor so concurrent subtrees render on separate rows.
func WriteChromeTrace(w io.Writer) error {
	spans := TraceSpans()
	pids := map[string]int{}
	tids := map[uint64]int{}
	parent := make(map[uint64]uint64, len(spans))
	for _, sd := range spans {
		parent[sd.SpanID] = sd.Parent
	}
	root := func(id uint64) uint64 {
		for hops := 0; hops < 64; hops++ {
			p, ok := parent[id]
			if !ok || p == 0 {
				return id
			}
			id = p
		}
		return id
	}
	events := make([]chromeEvent, 0, len(spans)+4)
	for _, sd := range spans {
		pid, ok := pids[sd.Proc]
		if !ok {
			pid = len(pids) + 1
			pids[sd.Proc] = pid
			events = append(events, chromeEvent{
				Name: "process_name", Ph: "M", Pid: pid,
				Args: map[string]any{"name": sd.Proc},
			})
		}
		r := root(sd.SpanID)
		tid, ok := tids[r]
		if !ok {
			tid = len(tids) + 1
			tids[r] = tid
		}
		args := map[string]any{
			"trace": fmt.Sprintf("%016x", sd.TraceID),
			"span":  fmt.Sprintf("%016x", sd.SpanID),
		}
		if sd.Parent != 0 {
			args["parent"] = fmt.Sprintf("%016x", sd.Parent)
		}
		for _, a := range sd.Attrs {
			args[a.K] = a.V
		}
		events = append(events, chromeEvent{
			Name: sd.Name, Ph: "X", Pid: pid, Tid: tid,
			Ts:   float64(sd.StartUnixNs) / 1e3,
			Dur:  float64(sd.DurNs) / 1e3,
			Args: args,
		})
	}
	enc := json.NewEncoder(w)
	return enc.Encode(map[string]any{"traceEvents": events})
}

// WriteChromeTraceFile writes WriteChromeTrace output to path.
func WriteChromeTraceFile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := WriteChromeTrace(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
