package cli

import (
	"context"
	"errors"
	"fmt"
	"log/slog"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"ksettop/internal/checkpoint"
)

// This file is the durable-run part of the lifecycle: graceful
// SIGINT/SIGTERM handling (cancel the root context, flush trace/memo/
// checkpoint state, exit with a distinct code) and the checkpoint runner
// around internal/checkpoint.

// ErrInterrupted is the sentinel a signal-cancelled run's error matches
// under errors.Is; ExitCode maps it to ExitInterrupted (3).
var ErrInterrupted = errors.New("cli: interrupted by signal")

// ExitInterrupted is the exit code of a run stopped by SIGINT/SIGTERM after
// flushing its durable state — distinguishable by scripts and supervisors
// from generic failures (1) and budget rejections (2).
const ExitInterrupted = 3

// signalContext derives a context that is cancelled (with a cause matching
// ErrInterrupted) on SIGINT or SIGTERM. The returned stop function releases
// the signal handler; a second signal while shutdown is in flight kills the
// process the default way, so a wedged flush cannot make the tool
// unkillable.
func signalContext(parent context.Context) (context.Context, func()) {
	ctx, cancel := context.WithCancelCause(parent)
	ch := make(chan os.Signal, 2)
	signal.Notify(ch, os.Interrupt, syscall.SIGTERM)
	go func() {
		select {
		case sig := <-ch:
			cancel(fmt.Errorf("%w (%v)", ErrInterrupted, sig))
			signal.Stop(ch) // next signal: default disposition, immediate kill
		case <-ctx.Done():
			signal.Stop(ch)
		}
	}()
	return ctx, func() {
		signal.Stop(ch)
		cancel(nil)
	}
}

// jobKey builds a checkpoint job identity from a tool name and its
// workload-defining flag values. Checkpoint files carry this key, so a file
// written by a different tool or workload is rejected at load instead of
// resumed. Checkpoint control flags (intervals, paths) must NOT be part of
// the key — a restart with another -checkpoint-interval resumes the same job.
func jobKey(tool string, parts ...string) string {
	return tool + "|" + strings.Join(parts, "|")
}

// startCheckpoint builds the checkpoint runner for a run and attaches it to
// ctx: resumes from the file when it holds this job's interrupted run (a
// missing file is a cold start; a corrupt, truncated or foreign one warns
// and starts cold) and starts the background save ticker. The engines find
// the runner in the returned context. An empty path returns ctx unchanged
// and a nil runner — every later call on it is a no-op.
func startCheckpoint(ctx context.Context, path, jobKey string, interval time.Duration) (context.Context, *checkpoint.Runner) {
	if path == "" {
		return ctx, nil
	}
	r := checkpoint.NewRunner(path, jobKey, interval)
	r.LoadForResume()
	r.Start()
	return checkpoint.WithRunner(ctx, r), r
}

// finishDurable flushes the durable state a run leaves behind. A batch run
// that succeeded saves the memo snapshot and removes the checkpoint file (a
// finished job must not be resumed). Any other run stops the ticker and
// flushes one final checkpoint, so the state it ended with is on disk; an
// interrupted run and a drained daemon also save the memo snapshot. Flush
// failures are logged at warn level — they never mask the run's own error —
// and only a failed success-path save or removal is returned.
func finishDurable(r *checkpoint.Runner, memoSnapshot string, daemon bool, runErr error) error {
	r.Stop()
	var err error
	if runErr == nil && !daemon {
		if err = saveMemoSnapshot(memoSnapshot); err == nil {
			return r.Remove()
		}
	}
	if serr := r.SaveNow(); serr != nil {
		slog.Warn("checkpoint: final save failed", "err", serr)
	}
	if daemon || errors.Is(runErr, ErrInterrupted) {
		if serr := saveMemoSnapshot(memoSnapshot); serr != nil {
			slog.Warn("memo: final snapshot failed", "err", serr)
		}
	}
	return err
}
