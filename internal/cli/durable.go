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

// This file is the durable-run surface of the batch CLIs: graceful
// SIGINT/SIGTERM handling (cancel the root context, flush trace/memo/
// checkpoint state, exit with a distinct code) and the
// -checkpoint/-checkpoint-interval flag plumbing around internal/checkpoint.

// ErrInterrupted is the sentinel a signal-cancelled run's error matches
// under errors.Is; ExitCode maps it to ExitInterrupted (3).
var ErrInterrupted = errors.New("cli: interrupted by signal")

// ExitInterrupted is the exit code of a run stopped by SIGINT/SIGTERM after
// flushing its durable state — distinguishable by scripts and supervisors
// from generic failures (1) and budget rejections (2).
const ExitInterrupted = 3

// SignalContext derives a context that is cancelled (with a cause matching
// ErrInterrupted) on SIGINT or SIGTERM. The tools pass it to every engine
// call, so an interrupt aborts the run promptly. The returned stop function
// releases the signal handler; a second signal while shutdown is in flight
// kills the process the default way, so a wedged flush cannot make the tool
// unkillable.
func SignalContext(parent context.Context) (context.Context, func()) {
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

// CheckpointFlagUsage is the shared help text of the -checkpoint flag.
const CheckpointFlagUsage = "checkpoint file for durable runs: solver/homology/shard progress is persisted every -checkpoint-interval and on SIGINT/SIGTERM (empty = off)"

// CheckpointIntervalFlagUsage is the shared help text of -checkpoint-interval.
const CheckpointIntervalFlagUsage = "background checkpoint save cadence for -checkpoint"

// JobKey builds a checkpoint job identity from a tool name and its
// workload-defining flag values. Checkpoint files carry this key, so a file
// written by a different tool or workload is rejected at load instead of
// resumed. Checkpoint control flags (intervals, paths) must NOT be part of
// the key — a restart with another -checkpoint-interval resumes the same job.
func JobKey(tool string, parts ...string) string {
	return tool + "|" + strings.Join(parts, "|")
}

// StartCheckpoint builds the checkpoint runner for a batch run and attaches
// it to ctx: resumes from the file when it holds this job's interrupted run
// (a missing file is a cold start; a corrupt, truncated or foreign one warns
// and starts cold) and starts the background save ticker. The returned
// context carries the runner: the engines find it there, so the tool must
// pass that context to them. An empty path returns ctx unchanged and a nil
// runner — every later call on it is a no-op.
func StartCheckpoint(ctx context.Context, path, jobKey string, interval time.Duration) (context.Context, *checkpoint.Runner) {
	if path == "" {
		return ctx, nil
	}
	r := checkpoint.NewRunner(path, jobKey, interval)
	r.LoadForResume()
	r.Start()
	return checkpoint.WithRunner(ctx, r), r
}

// FinishDurable finalizes a durable batch run. A clean run removes the
// checkpoint file (a finished job must not be resumed); a failed or
// interrupted run stops the ticker and flushes one final checkpoint so the
// state the run died with is on disk, and an interrupted run additionally
// flushes the memo snapshot the success path would have written. Flush
// failures are logged at warn level — they never mask the run's own error —
// and only a failed removal surfaces as the returned error.
func FinishDurable(r *checkpoint.Runner, memoSnapshot string, runErr error) error {
	r.Stop()
	if runErr == nil {
		return r.Remove()
	}
	if err := r.SaveNow(); err != nil {
		slog.Warn("checkpoint: final save failed", "err", err)
	}
	if errors.Is(runErr, ErrInterrupted) {
		if err := SaveMemoSnapshot(memoSnapshot); err != nil {
			slog.Warn("memo: snapshot on interrupt failed", "err", err)
		}
	}
	return nil
}
