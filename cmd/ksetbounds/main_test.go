package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"ksettop/internal/cli"
)

// cancelOnOutput records a run's stdout and cancels the run with an
// interrupt cause as soon as marker has been printed: a deterministic
// stand-in for a SIGTERM arriving at that point of the run.
type cancelOnOutput struct {
	out    bytes.Buffer
	marker string
	cancel context.CancelCauseFunc
}

func (w *cancelOnOutput) Write(p []byte) (int, error) {
	w.out.Write(p)
	if strings.Contains(w.out.String(), w.marker) {
		w.cancel(fmt.Errorf("%w (test)", cli.ErrInterrupted))
	}
	return len(p), nil
}

// TestVerifyInterruptExitsThreeAndKeepsCheckpoint interrupts a -verify run
// during its first check: the run must end with the interrupt (exit code 3)
// instead of printing a FAIL: cell and succeeding, and the checkpoint must
// stay on disk for the resume.
func TestVerifyInterruptExitsThreeAndKeepsCheckpoint(t *testing.T) {
	ckpt := filepath.Join(t.TempDir(), "b.ckpt")
	ctx, cancel := context.WithCancelCause(context.Background())
	defer cancel(nil)
	w := &cancelOnOutput{marker: "verify upper", cancel: cancel}
	err := run(ctx, []string{"-model", "star:n=3", "-verify", "-checkpoint", ckpt}, w)
	if !errors.Is(err, cli.ErrInterrupted) {
		t.Fatalf("run = %v, want an error matching cli.ErrInterrupted\noutput:\n%s", err, w.out.String())
	}
	if code := cli.ExitCode(err); code != cli.ExitInterrupted {
		t.Errorf("exit code %d, want %d", code, cli.ExitInterrupted)
	}
	if strings.Contains(w.out.String(), "FAIL:") {
		t.Errorf("an interrupted check printed a FAIL: cell:\n%s", w.out.String())
	}
	if _, err := os.Stat(ckpt); err != nil {
		t.Errorf("interrupted run removed its checkpoint: %v", err)
	}
}

// TestVerifyCleanRunRemovesCheckpoint is the uninterrupted counterpart:
// every check prints ok and the finished job deletes its checkpoint.
func TestVerifyCleanRunRemovesCheckpoint(t *testing.T) {
	ckpt := filepath.Join(t.TempDir(), "b.ckpt")
	var out bytes.Buffer
	if err := run(context.Background(), []string{"-model", "star:n=3", "-verify", "-checkpoint", ckpt}, &out); err != nil {
		t.Fatalf("run: %v\noutput:\n%s", err, out.String())
	}
	if got := strings.Count(out.String(), ": ok\n"); got != 3 {
		t.Errorf("%d ok cells, want 3:\n%s", got, out.String())
	}
	if _, err := os.Stat(ckpt); !errors.Is(err, os.ErrNotExist) {
		t.Errorf("finished run kept its checkpoint: %v", err)
	}
}

// TestVerifyBudgetTripPrintsSkipped: on star:n=6 the simulation check's
// closure exceeds the enumeration budget, so the check cannot run. Its cell
// must read skipped with the budget error, not FAIL:, the later checks
// still print, and the run succeeds.
func TestVerifyBudgetTripPrintsSkipped(t *testing.T) {
	var out bytes.Buffer
	if err := run(context.Background(), []string{"-model", "star:n=6", "-verify"}, &out); err != nil {
		t.Fatalf("run: %v\noutput:\n%s", err, out.String())
	}
	got := out.String()
	if !strings.Contains(got, "verify upper 6-set by simulation: skipped (budget: ") ||
		!strings.Contains(got, "enumeration budget") {
		t.Errorf("the budget trip did not print a skipped (budget: …) cell:\n%s", got)
	}
	if strings.Contains(got, "FAIL:") {
		t.Errorf("a budget trip printed a FAIL: cell:\n%s", got)
	}
	if !strings.Contains(got, "verify lower 5-set by protocol-complex connectivity: skipped (n > 3)") {
		t.Errorf("the checks after the budget trip did not run:\n%s", got)
	}
}
