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

	"ksettop/internal/cli"
	"ksettop/internal/memo"
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

// start runs the daemon in-process on 127.0.0.1:0 and returns its address
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
		t.Fatalf("daemon exited before listening: %v", err)
	case <-time.After(30 * time.Second):
		t.Fatal("daemon never logged its listener")
	}
	return "", nil
}

// drained waits for run's result: a drained daemon returns nil and so
// exits 0.
func drained(t *testing.T, done <-chan error) {
	t.Helper()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("drain returned %v (exit %d), want nil (exit 0)", err, cli.ExitCode(err))
		}
	case <-time.After(30 * time.Second):
		t.Fatal("daemon did not drain")
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

// TestCancelDrainsAndSavesSnapshot answers a query, then cancels the run the
// way a SIGTERM does: the daemon must drain to a nil error and write the
// final memo snapshot.
func TestCancelDrainsAndSavesSnapshot(t *testing.T) {
	snap := filepath.Join(t.TempDir(), "serve.snap")
	ctx, cancel := context.WithCancelCause(context.Background())
	defer cancel(nil)
	addr, done := start(t, ctx, "-memo-snapshot", snap)
	healthz(t, addr)
	resp, err := http.Post("http://"+addr+"/v1/bounds", "application/json", strings.NewReader(`{"model":"star:n=3","rounds":1}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/v1/bounds = %d", resp.StatusCode)
	}
	cancel(fmt.Errorf("%w (test)", cli.ErrInterrupted))
	drained(t, done)
	if err := memo.LoadSnapshot(snap); err != nil {
		t.Fatalf("final snapshot: %v", err)
	}
}

// TestSnapshotSavedWhileServing pins the background saver: with a short
// -checkpoint-every the memo snapshot appears while the daemon still
// serves, so a SIGKILL loses at most one period of it.
func TestSnapshotSavedWhileServing(t *testing.T) {
	snap := filepath.Join(t.TempDir(), "serve.snap")
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	addr, done := start(t, ctx, "-memo-snapshot", snap, "-checkpoint-every", "10ms")
	for deadline := time.Now().Add(30 * time.Second); ; time.Sleep(5 * time.Millisecond) {
		if _, err := os.Stat(snap); err == nil {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("no memo snapshot saved while serving")
		}
	}
	healthz(t, addr)
	cancel()
	drained(t, done)
}

// TestSIGTERMDrainsToExitZero delivers a real SIGTERM: the daemon drains and
// exits 0, never the interrupted batch exit 3.
func TestSIGTERMDrainsToExitZero(t *testing.T) {
	addr, done := start(t, context.Background())
	healthz(t, addr)
	if err := syscall.Kill(os.Getpid(), syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	drained(t, done)
}

// TestCorruptSnapshotStartsCold boots from a file that is no snapshot at
// all: the daemon warns, starts cold and serves, and its drain rewrites the
// file into a loadable snapshot.
func TestCorruptSnapshotStartsCold(t *testing.T) {
	snap := filepath.Join(t.TempDir(), "serve.snap")
	if err := os.WriteFile(snap, []byte("definitely not a snapshot"), 0o644); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	addr, done := start(t, ctx, "-memo-snapshot", snap)
	healthz(t, addr)
	cancel()
	drained(t, done)
	if err := memo.LoadSnapshot(snap); err != nil {
		t.Fatalf("drain did not rewrite the corrupt snapshot: %v", err)
	}
}
