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

// LogLevelFlagUsage is the shared help text of the -log-level flag.
const LogLevelFlagUsage = "minimum structured-log level: debug | info | warn | error"

// ApplyLogLevelFlag interprets the shared -log-level flag value and sets the
// process-wide default logger's threshold.
func ApplyLogLevelFlag(value string) error {
	lvl, err := obs.ParseLevel(value)
	if err != nil {
		return fmt.Errorf("cli: -log-level: %w", err)
	}
	obs.SetLevel(lvl)
	return nil
}

// TraceOutFlagUsage is the shared help text of the -trace-out flag.
const TraceOutFlagUsage = "write a Chrome trace_event JSON file of the run's spans to this path on exit; tracing is armed for the run (empty = off)"

// StartTraceOut arms span tracing when path is non-empty and returns the
// flush function to run on exit, which writes the recorded spans as Chrome
// trace_event JSON (load via chrome://tracing or https://ui.perfetto.dev).
// With an empty path tracing stays off and the flush is a no-op.
func StartTraceOut(path string) func() error {
	if path == "" {
		return func() error { return nil }
	}
	obs.SetTracingEnabled(true)
	return func() error { return obs.WriteChromeTraceFile(path) }
}

// SolverBudgetFlagUsage is the shared help text of the -solver-budget flag.
const SolverBudgetFlagUsage = "node budget for decision-map searches (0 = stock 50M)"

// ApplySolverBudgetFlag sets the process-wide default solver node budget
// used by every verification and experiment that does not take an explicit
// budget (0 restores the stock value).
func ApplySolverBudgetFlag(n int) error {
	if n < 0 {
		return fmt.Errorf("cli: -solver-budget=%d must be ≥ 0", n)
	}
	protocol.SetDefaultNodeBudget(n)
	return nil
}

// MemoSnapshotUsage is the shared help text of the -memo-snapshot flag.
const MemoSnapshotUsage = "memo snapshot file: loaded before the run when present, rewritten after a successful run (empty = off)"

// LoadMemoSnapshot restores the memo caches from the -memo-snapshot file.
// An empty path or a missing file is a no-op — the first run of a fresh
// workspace starts cold and writes the snapshot on exit. A corrupt or
// truncated snapshot (checksum failure) is also survivable: it warns on
// stderr and starts cold, so a torn write from a crashed run never bricks
// the tool; a successful run rewrites the file.
func LoadMemoSnapshot(path string) error {
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

// WorkersFlagUsage is the shared help text of the -workers flag.
const WorkersFlagUsage = "comma-separated ksetsweepd worker addresses; non-empty distributes heavy closure sweeps across them (local fallback when the fleet is unavailable)"

// VerifyFractionFlagUsage is the shared help text of the -verify-fraction flag.
const VerifyFractionFlagUsage = "fraction [0,1] of committed sweep shards re-executed on a distinct worker and cross-validated byte-for-byte against the commit (Byzantine defense; 0 = off, CRC and hedge cross-checks only)"

// QuarantineThresholdFlagUsage is the shared help text of the -quarantine-threshold flag.
const QuarantineThresholdFlagUsage = "divergence score at which a worker is quarantined from sweep placement until it passes a half-open known-answer probe (0 = default 3, negative = never quarantine)"

// SplitWorkers parses the shared -workers flag value: a comma-separated
// address list, whitespace and empty entries tolerated.
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

// Exit prints err prefixed with the tool name (budget errors carry their
// nodes-spent accounting in the message) and exits with ExitCode(err).
func Exit(tool string, err error) {
	if err != nil {
		fmt.Fprintf(os.Stderr, "%s: %v\n", tool, err)
	}
	os.Exit(ExitCode(err))
}

// SaveMemoSnapshot persists the memo caches to the -memo-snapshot file; an
// empty path is a no-op. So is a run with memoization switched off through
// memo.SetEnabled: every cache stayed empty (Put is a no-op), and
// overwriting the file would destroy a previously warm snapshot.
func SaveMemoSnapshot(path string) error {
	if path == "" || !memo.Enabled() {
		return nil
	}
	return memo.SaveSnapshot(path)
}
