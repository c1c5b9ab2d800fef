package cli

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"log/slog"
	"os"
	"path/filepath"
	"strings"
	"syscall"
	"testing"
	"time"

	"ksettop/internal/checkpoint"
	"ksettop/internal/core"
	"ksettop/internal/faultinject"
	"ksettop/internal/model"
	"ksettop/internal/obs"
	"ksettop/internal/protocol"
)

func TestDurableExitCodeMapping(t *testing.T) {
	cases := []struct {
		err  error
		want int
	}{
		{nil, 0},
		{errors.New("boom"), 1},
		{fmt.Errorf("sweep: %w", protocol.ErrBudgetExceeded), 2},
		{fmt.Errorf("enum: %w", model.ErrEnumerationBudget), 2},
		{fmt.Errorf("run: %w (SIGINT)", ErrInterrupted), ExitInterrupted},
	}
	for _, c := range cases {
		if got := ExitCode(c.err); got != c.want {
			t.Errorf("ExitCode(%v) = %d, want %d", c.err, got, c.want)
		}
	}
}

func TestJobKeyStable(t *testing.T) {
	if got := jobKey("ksetbounds", "star:n=4", "3"); got != "ksetbounds|star:n=4|3" {
		t.Fatalf("jobKey = %q", got)
	}
	// Checkpoint control flags are excluded by construction: the key is only
	// what the caller passes, so a restart with other checkpoint settings
	// produces the same key.
	if jobKey("t", "a") != jobKey("t", "a") {
		t.Fatal("jobKey is not deterministic")
	}
}

// A SIGINT delivered to the process must cancel the signal context with a
// cause matching ErrInterrupted.
func TestSignalContextKillCancelsWithInterrupt(t *testing.T) {
	ctx, stop := signalContext(context.Background())
	defer stop()
	if err := syscall.Kill(os.Getpid(), syscall.SIGINT); err != nil {
		t.Fatal(err)
	}
	select {
	case <-ctx.Done():
	case <-time.After(5 * time.Second):
		t.Fatal("SIGINT did not cancel the signal context")
	}
	if cause := context.Cause(ctx); !errors.Is(cause, ErrInterrupted) {
		t.Fatalf("cancellation cause %v does not match ErrInterrupted", cause)
	}
}

func TestStartCheckpointEmptyPathIsOff(t *testing.T) {
	ctx := context.Background()
	got, r := startCheckpoint(ctx, "", "job", time.Second)
	if got != ctx || r != nil {
		t.Fatal("empty -checkpoint must return the context unchanged and a nil runner")
	}
	// The whole durable finalization must be a no-op on the nil runner.
	if err := finishDurable(r, "", false, nil); err != nil {
		t.Fatal(err)
	}
	if err := finishDurable(r, "", false, errors.New("boom")); err != nil {
		t.Fatal(err)
	}
}

// writeCheckpoint saves a checkpoint file for jobKey holding one "phase"
// section with fingerprint 7.
func writeCheckpoint(t *testing.T, path, jobKey, state string) {
	t.Helper()
	r := checkpoint.NewRunner(path, jobKey, 0)
	r.Register("phase", 7, func() ([]byte, error) { return []byte(state), nil })
	if err := r.SaveNow(); err != nil {
		t.Fatal(err)
	}
}

// captureDefaultLog runs fn with the default slog logger writing JSON to a
// buffer and returns what it logged.
func captureDefaultLog(t *testing.T, fn func()) string {
	t.Helper()
	var buf bytes.Buffer
	saved := slog.Default()
	slog.SetDefault(slog.New(slog.NewJSONHandler(&buf, nil)))
	defer slog.SetDefault(saved)
	fn()
	return buf.String()
}

// With -checkpoint set, a file holding this job's interrupted run is always
// resumed: there is no opt-in.
func TestStartCheckpointResumesMatchingFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "run.ckpt")
	writeCheckpoint(t, path, "job", "mid-run state")
	_, r := startCheckpoint(context.Background(), path, "job", time.Hour)
	defer r.Stop()
	payload, ok := r.Resume("phase", 7)
	if !ok || string(payload) != "mid-run state" {
		t.Fatalf("matching checkpoint not resumed: ok=%v payload=%q", ok, payload)
	}
}

// A file written by another job is never resumed: it warns and starts cold.
func TestStartCheckpointForeignFileStartsCold(t *testing.T) {
	path := filepath.Join(t.TempDir(), "run.ckpt")
	writeCheckpoint(t, path, "other-job", "foreign state")
	var r *checkpoint.Runner
	logged := captureDefaultLog(t, func() {
		_, r = startCheckpoint(context.Background(), path, "job", time.Hour)
	})
	defer r.Stop()
	if _, ok := r.Resume("phase", 7); ok {
		t.Fatal("foreign checkpoint was resumed")
	}
	if !strings.Contains(logged, `"level":"WARN"`) || !strings.Contains(logged, "starting cold") {
		t.Fatalf("no cold-start warning logged, got %q", logged)
	}
}

func TestFinishDurableSuccessRemovesCheckpoint(t *testing.T) {
	path := filepath.Join(t.TempDir(), "run.ckpt")
	_, r := startCheckpoint(context.Background(), path, "job", time.Hour)
	r.Register("phase", 1, func() ([]byte, error) { return []byte("state"), nil })
	if err := r.SaveNow(); err != nil {
		t.Fatal(err)
	}
	if err := finishDurable(r, "", false, nil); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(path); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("clean run left checkpoint file behind (stat: %v)", err)
	}
}

func TestFinishDurableErrorFlushesCheckpoint(t *testing.T) {
	path := filepath.Join(t.TempDir(), "run.ckpt")
	_, r := startCheckpoint(context.Background(), path, "job", time.Hour)
	r.Register("phase", 1, func() ([]byte, error) { return []byte("mid-run state"), nil })
	if err := finishDurable(r, "", false, fmt.Errorf("run: %w (SIGTERM)", ErrInterrupted)); err != nil {
		t.Fatal(err)
	}
	secs, err := checkpoint.Load(path, "job")
	if err != nil {
		t.Fatalf("interrupted run did not flush a loadable checkpoint: %v", err)
	}
	if len(secs) != 1 || secs[0].Name != "phase#1" {
		t.Fatalf("flushed sections: %+v", secs)
	}
}

// The checkpoint runner travels in the context startCheckpoint returns: a
// solver verification run on that context and aborted mid-search must
// leave the solver's frontier in the final checkpoint, and a second run on
// a resumed context must pick that frontier up and finish with the
// uninterrupted verdict. Handing the verification any other context (one
// without the runner) leaves the checkpoint empty and fails the test.
func TestCheckpointRunnerReachesSolverThroughContext(t *testing.T) {
	m, err := model.NonEmptyKernelModel(4)
	if err != nil {
		t.Fatal(err)
	}
	lo, err := core.BestLowerOneRound(m)
	if err != nil {
		t.Fatal(err)
	}
	protocol.SetSearchProbeLimit(16) // force the task phase the fault point sits in
	defer protocol.SetSearchProbeLimit(0)
	budget := protocol.DefaultNodeBudget()
	path := filepath.Join(t.TempDir(), "verify.ckpt")

	ctx, r := startCheckpoint(context.Background(), path, "job", time.Hour)
	faultinject.Enable(42, faultinject.Rule{Point: faultinject.PointSolverTask, Nth: 3, Action: faultinject.ActionError})
	runErr := core.VerifyLowerBySolverCtx(ctx, m, lo, budget)
	faultinject.Disable()
	if !errors.Is(runErr, faultinject.ErrInjected) {
		t.Fatalf("aborted verification = %v, want the injected task fault", runErr)
	}
	if err := finishDurable(r, "", false, runErr); err != nil {
		t.Fatal(err)
	}
	secs, err := checkpoint.Load(path, "job")
	if err != nil {
		t.Fatal(err)
	}
	if len(secs) == 0 || !strings.HasPrefix(secs[0].Name, "solver.") {
		t.Fatalf("final checkpoint holds %+v, want the solver's section: the runner did not reach the solver", secs)
	}

	resumes := func() float64 { return obs.DefaultRegistry().Values()["kset_checkpoint_resumes_total"] }
	before := resumes()
	ctx, r = startCheckpoint(context.Background(), path, "job", time.Hour)
	runErr = core.VerifyLowerBySolverCtx(ctx, m, lo, budget)
	if err := finishDurable(r, "", false, runErr); err != nil {
		t.Fatal(err)
	}
	if runErr != nil {
		t.Fatalf("resumed verification: %v", runErr)
	}
	if got := resumes() - before; got != 1 {
		t.Fatalf("resumed verification restored %v solver states, want 1", got)
	}
}
