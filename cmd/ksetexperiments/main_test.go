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
	"time"

	"ksettop/internal/cli"
	"ksettop/internal/obs"
)

// solves reads the process-wide count of decision-map solves started.
func solves() float64 { return obs.DefaultRegistry().Values()["kset_solver_solves_total"] }

// TestCancelMidRunExitsThreeAndKeepsCheckpoint interrupts an
// -only E5,E6,E7 -checkpoint run as soon as its first decision-map solve
// has started — a stand-in for a SIGTERM arriving mid-run. The run must
// end with the interrupt (exit code 3) instead of printing FAIL: cells, and
// the checkpoint must stay on disk for the resume.
func TestCancelMidRunExitsThreeAndKeepsCheckpoint(t *testing.T) {
	ckpt := filepath.Join(t.TempDir(), "e.ckpt")
	ctx, cancel := context.WithCancelCause(context.Background())
	defer cancel(nil)
	before := solves()
	go func() {
		for solves() == before {
			if ctx.Err() != nil {
				return
			}
			time.Sleep(time.Millisecond)
		}
		cancel(fmt.Errorf("%w (test)", cli.ErrInterrupted))
	}()
	var out bytes.Buffer
	err := run(ctx, []string{"-only", "E5,E6,E7", "-checkpoint", ckpt}, &out)
	if !errors.Is(err, cli.ErrInterrupted) {
		t.Fatalf("run = %v, want an error matching cli.ErrInterrupted\noutput:\n%s", err, out.String())
	}
	if code := cli.ExitCode(err); code != cli.ExitInterrupted {
		t.Errorf("exit code %d, want %d", code, cli.ExitInterrupted)
	}
	if strings.Contains(out.String(), "FAIL:") {
		t.Errorf("an interrupted run printed a FAIL: cell:\n%s", out.String())
	}
	if _, err := os.Stat(ckpt); err != nil {
		t.Errorf("interrupted run removed its checkpoint: %v", err)
	}
}

// TestCleanRunRemovesCheckpoint is the uninterrupted counterpart: the table
// prints and the finished job deletes its checkpoint.
func TestCleanRunRemovesCheckpoint(t *testing.T) {
	ckpt := filepath.Join(t.TempDir(), "e.ckpt")
	var out bytes.Buffer
	if err := run(context.Background(), []string{"-only", "E2", "-checkpoint", ckpt}, &out); err != nil {
		t.Fatalf("run: %v\noutput:\n%s", err, out.String())
	}
	if !strings.Contains(out.String(), "== E2:") {
		t.Errorf("no E2 table printed:\n%s", out.String())
	}
	if _, err := os.Stat(ckpt); !errors.Is(err, os.ErrNotExist) {
		t.Errorf("finished run kept its checkpoint: %v", err)
	}
}
