package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"ksettop/internal/cli"
)

// snap builds a snapshot from name → ns/op pairs given in order.
func snap(rows ...any) snapshot {
	var s snapshot
	for i := 0; i < len(rows); i += 2 {
		s.Benchmarks = append(s.Benchmarks, benchResult{Name: rows[i].(string), NsPerOp: rows[i+1].(float64)})
	}
	return s
}

// baseline writes s as a committed snapshot file and returns its path.
func baseline(t *testing.T, s snapshot) string {
	t.Helper()
	data, err := json.Marshal(s)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "BENCH_base.json")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestCompareAgainstUniformSlowdownIsMachineFactor(t *testing.T) {
	base := baseline(t, snap("A", 100.0, "B", 200.0, "C", 300.0, "D", 400.0, "E", 500.0))
	now := snap("A", 200.0, "B", 400.0, "C", 600.0, "D", 800.0, "E", 1000.0)
	if err := compareAgainst(io.Discard, now, base, regressAllowed); err != nil {
		t.Fatalf("uniform 2x slowdown over 5 rows must normalize away, got %v", err)
	}
}

func TestCompareAgainstNamesTheRegressedRow(t *testing.T) {
	base := baseline(t, snap("A", 100.0, "B", 100.0, "C", 100.0, "D", 100.0, "E", 100.0))
	now := snap("A", 100.0, "B", 140.0, "C", 100.0, "D", 100.0, "E", 100.0)
	err := compareAgainst(io.Discard, now, base, regressAllowed)
	if err == nil {
		t.Fatal("a +40% row with the rest flat must fail the gate")
	}
	if !strings.Contains(err.Error(), "B 1.40x") {
		t.Errorf("error %q does not name row B", err)
	}
	for _, flat := range []string{"A ", "C ", "D ", "E "} {
		if strings.Contains(err.Error(), flat) {
			t.Errorf("error %q names flat row %q", err, strings.TrimSpace(flat))
		}
	}
}

func TestCompareAgainstUnsharedRowsInformOnly(t *testing.T) {
	base := baseline(t, snap("A", 100.0, "B", 100.0, "C", 100.0, "D", 100.0, "E", 100.0, "Gone", 1.0))
	now := snap("A", 100.0, "B", 100.0, "C", 100.0, "D", 100.0, "E", 100.0, "New", 1e12)
	if err := compareAgainst(io.Discard, now, base, regressAllowed); err != nil {
		t.Fatalf("rows missing from either snapshot must not gate, got %v", err)
	}
}

func TestCompareAgainstNoNormalizationBelowFiveSharedRows(t *testing.T) {
	base := baseline(t, snap("A", 100.0, "B", 100.0, "C", 100.0, "D", 100.0, "Gone", 100.0))
	now := snap("A", 200.0, "B", 200.0, "C", 200.0, "D", 200.0, "New", 100.0)
	err := compareAgainst(io.Discard, now, base, regressAllowed)
	if err == nil {
		t.Fatal("with 4 shared rows a uniform 2x slowdown must not be divided out")
	}
	for _, name := range []string{"A 2.00x", "B 2.00x", "C 2.00x", "D 2.00x"} {
		if !strings.Contains(err.Error(), name) {
			t.Errorf("error %q does not name %q", err, name)
		}
	}
}

// cancelAfterFirstRow cancels the run with an interrupt cause as soon as the
// first row has been printed: a deterministic stand-in for a SIGINT arriving
// while the second row is queued.
type cancelAfterFirstRow struct {
	out    strings.Builder
	cancel context.CancelCauseFunc
}

func (w *cancelAfterFirstRow) Write(p []byte) (int, error) {
	w.out.Write(p)
	w.cancel(fmt.Errorf("%w (test)", cli.ErrInterrupted))
	return len(p), nil
}

// TestInterruptStopsBetweenRows interrupts a two-row run after its first
// row: the run must stop before the second row with an error exiting 3, and
// write no snapshot.
func TestInterruptStopsBetweenRows(t *testing.T) {
	path := filepath.Join(t.TempDir(), "BENCH_x.json")
	ctx, cancel := context.WithCancelCause(context.Background())
	defer cancel(nil)
	w := &cancelAfterFirstRow{cancel: cancel}
	err := run(ctx, []string{"-out", path, "-filter", "^(DominationNumber|CoveringNumbers)$"}, w)
	if code := cli.ExitCode(err); code != cli.ExitInterrupted {
		t.Fatalf("run = %v (exit %d), want exit %d\noutput:\n%s", err, code, cli.ExitInterrupted, w.out.String())
	}
	if got := strings.Count(w.out.String(), "ns/op"); got != 1 {
		t.Errorf("%d rows measured, want 1:\n%s", got, w.out.String())
	}
	if _, err := os.Stat(path); !errors.Is(err, os.ErrNotExist) {
		t.Errorf("interrupted run wrote a snapshot: %v", err)
	}
}
