package cli

import (
	"errors"
	"fmt"
	"os"
	"strings"

	"ksettop/internal/durable"
	"ksettop/internal/memo"
	"ksettop/internal/model"
	"ksettop/internal/obs"
	"ksettop/internal/protocol"
)

// applyLogLevel interprets the -log-level flag value and sets the
// process-wide default logger's threshold.
func applyLogLevel(value string) error {
	lvl, err := obs.ParseLevel(value)
	if err != nil {
		return fmt.Errorf("cli: -log-level: %w", err)
	}
	obs.SetLevel(lvl)
	return nil
}

// startTraceOut arms span tracing when path is non-empty and returns the
// flush function to run on exit, which writes the recorded spans as Chrome
// trace_event JSON (load via chrome://tracing or https://ui.perfetto.dev).
// With an empty path tracing stays off and the flush is a no-op.
func startTraceOut(path string) func() error {
	if path == "" {
		return func() error { return nil }
	}
	obs.SetTracingEnabled(true)
	return func() error { return obs.WriteChromeTraceFile(path) }
}

// applySolverBudget sets the process-wide default solver node budget used
// by every verification and experiment that does not take an explicit
// budget (0 restores the stock value).
func applySolverBudget(n int) error {
	if n < 0 {
		return fmt.Errorf("cli: -solver-budget=%d must be ≥ 0", n)
	}
	protocol.SetDefaultNodeBudget(n)
	return nil
}

// loadMemoSnapshot restores the memo caches from the -memo-snapshot file.
// An empty path or a missing file is a no-op — the first run of a fresh
// workspace starts cold and writes the snapshot on exit. A corrupt or
// truncated snapshot (checksum failure) is also survivable: it warns on
// stderr and starts cold, so a torn write from a crashed run never bricks
// the tool; the next save rewrites the file.
func loadMemoSnapshot(path string) error {
	if path == "" {
		return nil
	}
	if _, err := os.Stat(path); os.IsNotExist(err) {
		return nil
	}
	if err := memo.LoadSnapshot(path); err != nil {
		if errors.Is(err, durable.ErrCorrupt) {
			fmt.Fprintf(os.Stderr, "warning: %v; starting cold\n", err)
			return nil
		}
		return err
	}
	return nil
}

// saveMemoSnapshot persists the memo caches to the -memo-snapshot file; an
// empty path is a no-op. So is a run with memoization switched off through
// memo.SetEnabled: every cache stayed empty (Put is a no-op), and
// overwriting the file would destroy a previously warm snapshot.
func saveMemoSnapshot(path string) error {
	if path == "" || !memo.Enabled() {
		return nil
	}
	return memo.SaveSnapshot(path)
}

// SplitWorkers parses a -workers flag value: a comma-separated address
// list, whitespace and empty entries tolerated.
func SplitWorkers(value string) []string {
	var out []string
	for _, w := range strings.Split(value, ",") {
		if w = strings.TrimSpace(w); w != "" {
			out = append(out, w)
		}
	}
	return out
}

// ExitCode maps a tool's top-level error to its process exit code: typed
// resource-budget rejections (protocol.ErrBudgetExceeded,
// model.ErrEnumerationBudget) exit 2 and signal interruptions
// (ErrInterrupted, after durable state is flushed) exit ExitInterrupted (3)
// — both distinguishable by scripts from the generic failure exit 1 — and
// everything else exits 1. A nil error is 0.
func ExitCode(err error) int {
	switch {
	case err == nil:
		return 0
	case errors.Is(err, ErrInterrupted):
		return ExitInterrupted
	case errors.Is(err, protocol.ErrBudgetExceeded), errors.Is(err, model.ErrEnumerationBudget):
		return 2
	}
	return 1
}
