package cli

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"ksettop/internal/memo"
	"ksettop/internal/model"
	"ksettop/internal/obs"
	"ksettop/internal/protocol"
)

func TestMemoSnapshotFlagRoundTrip(t *testing.T) {
	if err := loadMemoSnapshot(""); err != nil {
		t.Errorf("empty path should be a no-op, got %v", err)
	}
	if err := saveMemoSnapshot(""); err != nil {
		t.Errorf("empty path should be a no-op, got %v", err)
	}
	missing := filepath.Join(t.TempDir(), "absent.snap")
	if err := loadMemoSnapshot(missing); err != nil {
		t.Errorf("missing file should be a cold start, got %v", err)
	}

	path := filepath.Join(t.TempDir(), "memo.snap")
	if err := saveMemoSnapshot(path); err != nil {
		t.Fatal(err)
	}
	if err := loadMemoSnapshot(path); err != nil {
		t.Fatal(err)
	}
	// A saved file loads back, and the snapshot layer never flips the
	// enable switch.
	if !memo.Enabled() {
		t.Error("snapshot round-trip changed the memo enable switch")
	}
}

// TestSaveMemoSnapshotSkippedWhileDisabled pins that a run with memoization
// switched off cannot overwrite a warm snapshot with empty caches.
func TestSaveMemoSnapshotSkippedWhileDisabled(t *testing.T) {
	defer memo.SetEnabled(true)
	path := filepath.Join(t.TempDir(), "warm.snap")
	if err := saveMemoSnapshot(path); err != nil {
		t.Fatal(err)
	}
	before, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	memo.SetEnabled(false)
	if err := saveMemoSnapshot(path); err != nil {
		t.Fatal(err)
	}
	after, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if !after.ModTime().Equal(before.ModTime()) || after.Size() != before.Size() {
		t.Error("disabled-memo run rewrote the snapshot file")
	}
}

// TestLoadMemoSnapshotCorruptStartsCold pins the torn-write recovery: a
// corrupt, foreign or version-1 snapshot warns on stderr and cold-starts
// instead of failing the run.
func TestLoadMemoSnapshotCorruptStartsCold(t *testing.T) {
	path := filepath.Join(t.TempDir(), "torn.snap")
	if err := saveMemoSnapshot(path); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	for name, image := range map[string][]byte{
		"truncated": data[:len(data)-1],
		"foreign":   []byte("not a snapshot at all"),
		// One section without the CRC that version 2 added.
		"v1": []byte("ksetmemo\x01\x01\x02v1\x01\x07"),
	} {
		if err := os.WriteFile(path, image, 0o644); err != nil {
			t.Fatal(err)
		}
		var loadErr error
		warning := captureStderr(t, func() { loadErr = loadMemoSnapshot(path) })
		if loadErr != nil {
			t.Fatalf("%s snapshot should cold-start, got %v", name, loadErr)
		}
		if !strings.Contains(warning, "starting cold") {
			t.Fatalf("%s snapshot: no cold-start warning on stderr, got %q", name, warning)
		}
	}
}

// captureStderr runs fn with os.Stderr redirected and returns what it wrote.
func captureStderr(t *testing.T, fn func()) string {
	t.Helper()
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	saved := os.Stderr
	os.Stderr = w
	fn()
	os.Stderr = saved
	w.Close()
	out, err := io.ReadAll(r)
	r.Close()
	if err != nil {
		t.Fatal(err)
	}
	return string(out)
}

// TestExitCode pins the typed exit-code contract: budget rejections exit 2,
// other failures 1, success 0.
func TestExitCode(t *testing.T) {
	if got := ExitCode(nil); got != 0 {
		t.Errorf("nil → %d, want 0", got)
	}
	if got := ExitCode(os.ErrNotExist); got != 1 {
		t.Errorf("generic error → %d, want 1", got)
	}
	if got := ExitCode(fmt.Errorf("wrapped: %w", &protocol.BudgetError{Budget: 10, Nodes: 11})); got != 2 {
		t.Errorf("solver budget error → %d, want 2", got)
	}
	if got := ExitCode(fmt.Errorf("wrapped: %w", &model.EnumerationBudgetError{Budget: 5, Required: 9})); got != 2 {
		t.Errorf("enumeration budget error → %d, want 2", got)
	}
}

func TestApplySolverBudgetFlag(t *testing.T) {
	defer protocol.SetDefaultNodeBudget(0)
	if err := applySolverBudget(1234); err != nil {
		t.Fatal(err)
	}
	if got := protocol.DefaultNodeBudget(); got != 1234 {
		t.Errorf("budget = %d, want 1234", got)
	}
	if err := applySolverBudget(0); err != nil {
		t.Fatal(err)
	}
	if got := protocol.DefaultNodeBudget(); got != 50_000_000 {
		t.Errorf("budget = %d, want the stock 50M", got)
	}
	if err := applySolverBudget(-1); err == nil {
		t.Error("negative budget should be rejected")
	}
}

func TestApplyLogLevelFlag(t *testing.T) {
	defer obs.SetLevel(slog.LevelInfo)
	for _, v := range []string{"debug", "INFO", "warn", "warning", "Error"} {
		if err := applyLogLevel(v); err != nil {
			t.Fatalf("applyLogLevel(%q): %v", v, err)
		}
	}
	// The flag moves the default logger's threshold.
	if err := applyLogLevel("warn"); err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	if slog.Default().Enabled(ctx, slog.LevelInfo) || !slog.Default().Enabled(ctx, slog.LevelWarn) {
		t.Error("-log-level warn must drop info records and keep warnings")
	}
	if err := applyLogLevel("verbose"); err == nil {
		t.Error("unknown level should be rejected")
	}
}

func TestStartTraceOut(t *testing.T) {
	// Empty path: tracing stays off and the flush is a no-op.
	if err := startTraceOut("")(); err != nil {
		t.Fatal(err)
	}
	if obs.TracingEnabled() {
		t.Fatal("empty -trace-out must not arm tracing")
	}

	obs.ResetTrace(0)
	defer func() {
		obs.SetTracingEnabled(false)
		obs.ResetTrace(0)
	}()
	path := filepath.Join(t.TempDir(), "trace.json")
	flush := startTraceOut(path)
	if !obs.TracingEnabled() {
		t.Fatal("-trace-out must arm tracing")
	}
	_, span := obs.StartSpan(context.Background(), "cli.test")
	span.End()
	if err := flush(); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatalf("trace file is not valid JSON: %v", err)
	}
	if len(doc.TraceEvents) == 0 {
		t.Fatal("trace file holds no events")
	}
}
