package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"syscall"
	"testing"
	"time"

	"ksettop/internal/checkpoint"
	"ksettop/internal/cli"
)

// listenWatcher is a log sink that reports the address of the daemon's
// "listening on" record: the line supervisors wait for.
type listenWatcher chan string

func (w listenWatcher) Write(p []byte) (int, error) {
	var rec struct{ Msg, Addr string }
	if json.Unmarshal(p, &rec) == nil && strings.HasSuffix(rec.Msg, "listening on") {
		w <- rec.Addr
	}
	return len(p), nil
}

// start runs the worker in-process on 127.0.0.1:0 and returns its address
// once it logs its listener, plus the channel run's result arrives on.
func start(t *testing.T, ctx context.Context, args ...string) (string, <-chan error) {
	t.Helper()
	listening := make(listenWatcher, 1)
	saved := slog.Default()
	slog.SetDefault(slog.New(slog.NewJSONHandler(listening, nil)))
	t.Cleanup(func() { slog.SetDefault(saved) })
	done := make(chan error, 1)
	go func() { done <- run(ctx, append([]string{"-addr", "127.0.0.1:0"}, args...), io.Discard) }()
	select {
	case addr := <-listening:
		return addr, done
	case err := <-done:
		t.Fatalf("worker exited before listening: %v", err)
	case <-time.After(30 * time.Second):
		t.Fatal("worker never logged its listener")
	}
	return "", nil
}

// drained waits for run's result: a drained worker returns nil and so
// exits 0.
func drained(t *testing.T, done <-chan error) {
	t.Helper()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("drain returned %v (exit %d), want nil (exit 0)", err, cli.ExitCode(err))
		}
	case <-time.After(30 * time.Second):
		t.Fatal("worker did not drain")
	}
}

func healthz(t *testing.T, addr string) {
	t.Helper()
	resp, err := http.Get("http://" + addr + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/healthz = %d", resp.StatusCode)
	}
}

// TestCancelDrainsAndSavesCheckpoint cancels the run the way a SIGTERM
// does: the worker must drain to a nil error and leave its shard checkpoint
// on disk for the restart.
func TestCancelDrainsAndSavesCheckpoint(t *testing.T) {
	ckpt := filepath.Join(t.TempDir(), "shards.ckpt")
	ctx, cancel := context.WithCancelCause(context.Background())
	defer cancel(nil)
	addr, done := start(t, ctx, "-checkpoint", ckpt)
	healthz(t, addr)
	cancel(fmt.Errorf("%w (test)", cli.ErrInterrupted))
	drained(t, done)
	if _, err := checkpoint.Load(ckpt, "ksetsweepd|"); err != nil {
		t.Fatalf("drain checkpoint: %v", err)
	}
}

// TestSIGTERMDrainsToExitZero delivers a real SIGTERM: the worker drains and
// exits 0, never the interrupted batch exit 3.
func TestSIGTERMDrainsToExitZero(t *testing.T) {
	addr, done := start(t, context.Background())
	healthz(t, addr)
	if err := syscall.Kill(os.Getpid(), syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	drained(t, done)
}
