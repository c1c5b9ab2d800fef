package dist

import (
	"bytes"
	"context"
	"errors"
	"testing"
	"time"
)

var errDiverged = errors.New("sweep diverged from sequential reference")

// TestDistRaceLeaseExpiryDuplicates hammers the coordinator's event loop
// under -race: tiny leases so grants expire while workers still compute,
// aggressive hedging so duplicate completions race the first commit, and
// live heartbeat monitors mutating the liveness map concurrently. The
// invariants: the sweep completes, the bytes are the sequential reference,
// and no duplicate ever disagreed with its committed counterpart.
func TestDistRaceLeaseExpiryDuplicates(t *testing.T) {
	job := Job{Op: OpEnum, Model: "star:n=4"}
	want, err := RunSequential(context.Background(), job)
	if err != nil {
		t.Fatal(err)
	}

	workers := startWorkers(t, 3, WorkerConfig{MaxConcurrent: 16, Log: discardLog})
	// Two interleaved straggler populations: one past the lease (expiry +
	// re-dispatch), one within it (slow enough to lose races against hedges).
	armFaults(t, 5, "delay:dist.exec@1+5:250ms,delay:dist.exec@3+5:40ms")

	cfg := testCoordConfig(workers)
	cfg.LeaseTTL = 120 * time.Millisecond
	cfg.DisableHedging = false
	cfg.HedgeMin = 15 * time.Millisecond
	cfg.HedgeQuantile = 0.5
	cfg.HedgeFactor = 1.2
	cfg.MaxAttempts = 30
	cfg.RetryBase = 5 * time.Millisecond
	cfg.RetryMax = 40 * time.Millisecond
	c := NewCoordinator(cfg)

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	c.Start(ctx) // heartbeat monitors run throughout

	for round := 0; round < 3; round++ {
		got, err := c.Run(ctx, job)
		if err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("round %d: sweep under lease/hedge churn differs from sequential reference", round)
		}
	}
	st := c.Stats()
	if st.CrossCheckMismatches != 0 {
		t.Fatalf("duplicate completions disagreed with committed results: %+v", st)
	}
	if st.LeaseExpiries == 0 && st.Hedges == 0 {
		t.Logf("warning: churn config produced no expiries or hedges (stats %+v)", st)
	}
}

// Concurrent sweeps through one coordinator must serialize on the journal
// and still each return reference bytes.
func TestDistRaceConcurrentSweeps(t *testing.T) {
	job := Job{Op: OpCount, Model: "star:n=4"}
	want, err := RunSequential(context.Background(), job)
	if err != nil {
		t.Fatal(err)
	}
	workers := startWorkers(t, 2, WorkerConfig{MaxConcurrent: 16, Log: discardLog})
	cfg := testCoordConfig(workers)
	cfg.Shards = 8
	c := NewCoordinator(cfg)

	const sweeps = 4
	errs := make(chan error, sweeps)
	for i := 0; i < sweeps; i++ {
		go func() {
			got, err := c.Run(context.Background(), job)
			if err == nil && !bytes.Equal(got, want) {
				err = errDiverged
			}
			errs <- err
		}()
	}
	for i := 0; i < sweeps; i++ {
		if err := <-errs; err != nil {
			t.Fatalf("concurrent sweep: %v", err)
		}
	}
	if st := c.Stats(); st.Sweeps != sweeps {
		t.Fatalf("want %d sweeps, stats %+v", sweeps, st)
	}
}
