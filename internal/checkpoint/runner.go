package checkpoint

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"log/slog"
	"os"
	"sort"
	"strings"
	"sync"
	"time"

	"ksettop/internal/obs"
)

// Metrics exported by the default registry; the daemons' /metrics endpoints
// pick these up automatically.
var (
	mSaves      = obs.DefaultRegistry().Counter("kset_checkpoint_saves_total", "Checkpoint files written")
	mSaveErrors = obs.DefaultRegistry().Counter("kset_checkpoint_save_errors_total", "Checkpoint writes that failed")
	mSaveBytes  = obs.DefaultRegistry().Counter("kset_checkpoint_save_bytes_total", "Bytes written across checkpoint saves")
	mResumes    = obs.DefaultRegistry().Counter("kset_checkpoint_resumes_total", "Engine states restored from a checkpoint")
	mColdStarts = obs.DefaultRegistry().Counter("kset_checkpoint_cold_starts_total", "Resume attempts that fell back to a cold start (missing, corrupt or foreign file)")
)

// A Runner owns one checkpoint file for the duration of a run. Engines
// (solver, homology, dist worker) find the runner on their context, Register
// a capture callback keyed by a workload fingerprint, and query Resume for a
// previously saved state with the same fingerprint. The runner periodically
// collects every registered capture into one atomic file write; a final
// SaveNow on abort preserves the frontier the run died with.
//
// A nil *Runner is valid everywhere and does nothing, so engine code calls
// methods unconditionally.
type Runner struct {
	path     string
	jobKey   string
	interval time.Duration

	mu       sync.Mutex
	seq      int // section-name allocator
	captures map[string]func() ([]byte, error)
	retained map[string][]byte // last capture of unregistered sections
	pending  map[string][]byte // loaded sections not yet consumed by Resume

	stop chan struct{}
	done chan struct{}
}

// NewRunner creates a runner for one checkpoint file. jobKey identifies the
// run (tool + model + flags); a file holding another job's key is ignored at
// LoadForResume. interval is the background save cadence (≤ 0 disables the
// ticker; explicit SaveNow calls still work).
func NewRunner(path, jobKey string, interval time.Duration) *Runner {
	return &Runner{
		path:     path,
		jobKey:   jobKey,
		interval: interval,
		captures: make(map[string]func() ([]byte, error)),
		retained: make(map[string][]byte),
		pending:  make(map[string][]byte),
	}
}

// Path returns the checkpoint file path (empty on a nil runner).
func (r *Runner) Path() string {
	if r == nil {
		return ""
	}
	return r.path
}

// LoadForResume loads the checkpoint file and stages its sections for Resume
// calls. It returns true when a valid checkpoint of this job was loaded. A
// missing file is a normal cold start; a corrupt, truncated or foreign-job
// file logs at warn level and cold-starts — it never fails the run.
func (r *Runner) LoadForResume() bool {
	if r == nil {
		return false
	}
	secs, err := Load(r.path, r.jobKey)
	if err != nil {
		if !errors.Is(err, os.ErrNotExist) {
			slog.Warn("checkpoint: cannot resume; starting cold", "path", r.path, "err", err)
			mColdStarts.Inc()
		}
		return false
	}
	r.mu.Lock()
	for _, s := range secs {
		r.pending[s.Name] = s.Payload
	}
	r.mu.Unlock()
	return true
}

// sectionName derives the `kind#N` registry name. The counter keeps names
// unique when several engine instances of the same kind run concurrently
// (e.g. parallel homology dims); the fingerprint in the payload, not the
// name, is what Resume matches on.
func (r *Runner) sectionName(kind string) string {
	r.seq++
	return fmt.Sprintf("%s#%d", kind, r.seq)
}

// Register adds a capture callback for one engine state. kind groups the
// section ("solver.frontier", "homology.reduction", …); fp fingerprints the
// exact workload so only a matching run resumes it. The callback is invoked
// on the runner's save goroutine and must synchronize with the engine (take
// the engine's lock, copy, return). The returned func unregisters the
// capture; the last captured bytes are retained so a final save after the
// engine exits does not lose its progress.
func (r *Runner) Register(kind string, fp uint64, capture func() ([]byte, error)) (unregister func()) {
	if r == nil {
		return func() {}
	}
	r.mu.Lock()
	name := r.sectionName(kind)
	r.captures[name] = func() ([]byte, error) {
		payload, err := capture()
		if err != nil {
			return nil, err
		}
		buf := make([]byte, 8, 8+len(payload))
		binary.LittleEndian.PutUint64(buf, fp)
		return append(buf, payload...), nil
	}
	r.mu.Unlock()
	return func() {
		r.mu.Lock()
		if capture, ok := r.captures[name]; ok {
			if data, err := capture(); err == nil {
				r.retained[name] = data
			}
			delete(r.captures, name)
		}
		r.mu.Unlock()
	}
}

// Resume returns (and consumes) a previously loaded section of the given
// kind whose fingerprint matches fp. The 8-byte fingerprint prefix is
// stripped. ok is false when no staged section matches — cold start.
func (r *Runner) Resume(kind string, fp uint64) (payload []byte, ok bool) {
	if r == nil {
		return nil, false
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	// Deterministic scan order so concurrent same-kind engines pair with
	// staged sections stably.
	names := make([]string, 0, len(r.pending))
	for name := range r.pending {
		if strings.HasPrefix(name, kind+"#") {
			names = append(names, name)
		}
	}
	sort.Strings(names)
	for _, name := range names {
		data := r.pending[name]
		if len(data) < 8 || binary.LittleEndian.Uint64(data) != fp {
			continue
		}
		delete(r.pending, name)
		mResumes.Inc()
		return data[8:], true
	}
	return nil, false
}

// SaveNow captures every registered section and atomically rewrites the
// checkpoint file. Unconsumed staged sections and retained sections of
// finished engines are carried over, so progress of a phase the resumed run
// has not re-reached yet survives a second crash. Capture errors skip the
// save (the previous file stays intact).
func (r *Runner) SaveNow() error {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	secs := make([]Section, 0, len(r.captures)+len(r.retained)+len(r.pending))
	seen := make(map[string]bool)
	var capErr error
	for name, capture := range r.captures {
		data, err := capture()
		if err != nil {
			capErr = fmt.Errorf("checkpoint: capture %s: %w", name, err)
			break
		}
		secs = append(secs, Section{Name: name, Payload: data})
		seen[name] = true
	}
	if capErr == nil {
		for name, data := range r.retained {
			if !seen[name] {
				secs = append(secs, Section{Name: name, Payload: data})
				seen[name] = true
			}
		}
		for name, data := range r.pending {
			if !seen[name] {
				secs = append(secs, Section{Name: name, Payload: data})
			}
		}
	}
	r.mu.Unlock()
	if capErr != nil {
		mSaveErrors.Inc()
		return capErr
	}
	sort.Slice(secs, func(i, j int) bool { return secs[i].Name < secs[j].Name })
	if err := Save(r.path, r.jobKey, secs); err != nil {
		mSaveErrors.Inc()
		return err
	}
	mSaves.Inc()
	for _, s := range secs {
		mSaveBytes.Add(uint64(len(s.Payload)))
	}
	return nil
}

// Start launches the background save ticker. Safe to call on a nil runner or
// with a non-positive interval (both no-ops). Save errors are logged at warn
// level and counted; the run itself keeps going.
func (r *Runner) Start() {
	if r == nil || r.interval <= 0 || r.stop != nil {
		return
	}
	r.stop = make(chan struct{})
	r.done = make(chan struct{})
	go func() {
		defer close(r.done)
		t := time.NewTicker(r.interval)
		defer t.Stop()
		for {
			select {
			case <-r.stop:
				return
			case <-t.C:
				if err := r.SaveNow(); err != nil {
					slog.Warn("checkpoint: periodic save failed", "err", err)
				}
			}
		}
	}()
}

// Stop halts the background ticker and waits for an in-flight save.
func (r *Runner) Stop() {
	if r == nil || r.stop == nil {
		return
	}
	close(r.stop)
	<-r.done
	r.stop, r.done = nil, nil
}

// Remove deletes the checkpoint file — called after a successful run so a
// later invocation does not resume a finished job.
func (r *Runner) Remove() error {
	if r == nil {
		return nil
	}
	if err := os.Remove(r.path); err != nil && !os.IsNotExist(err) {
		return err
	}
	return nil
}

// ctxKey carries the runner on a context; engines never import the CLI
// layer, so the context is the only channel.
type ctxKey struct{}

// WithRunner returns a context carrying r.
func WithRunner(ctx context.Context, r *Runner) context.Context {
	if r == nil {
		return ctx
	}
	return context.WithValue(ctx, ctxKey{}, r)
}

// FromContext returns the runner on ctx, or nil (every method of which is a
// no-op).
func FromContext(ctx context.Context) *Runner {
	if ctx == nil {
		return nil
	}
	r, _ := ctx.Value(ctxKey{}).(*Runner)
	return r
}
