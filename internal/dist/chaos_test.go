package dist

import (
	"bytes"
	"context"
	"errors"
	"os"
	"path/filepath"
	"testing"
	"time"

	"ksettop/internal/faultinject"
)

// The acceptance scenario: a sweep across 3 workers under a seeded fault
// matrix — a worker crash mid-shard (panic), recurring 2×-straggler delays,
// and corrupt responses — completes byte-identical to the sequential engine.
func TestDistChaosMatrix(t *testing.T) {
	job := Job{Op: OpEnum, Model: "star:n=4"}
	want, err := RunSequential(context.Background(), job)
	if err != nil {
		t.Fatal(err)
	}

	workers := startWorkers(t, 3, WorkerConfig{Log: discardLog})
	cfg := testCoordConfig(workers)
	cfg.DisableHedging = false
	cfg.HedgeMin = 50 * time.Millisecond
	cfg.MaxAttempts = 10
	c := NewCoordinator(cfg)

	armFaults(t, 42,
		"panic:dist.exec@2,"+ // a worker crashes mid-shard
			"delay:dist.exec@5+9:300ms,"+ // recurring stragglers
			"corrupt:dist.result@3") // one lying worker response

	got, err := c.Run(context.Background(), job)
	if err != nil {
		t.Fatalf("chaos sweep failed: %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("chaos sweep differs from sequential reference")
	}
	st := c.Stats()
	if st.CorruptResponses == 0 {
		t.Fatalf("the corrupt response was not detected; stats %+v", st)
	}
	if st.Retries == 0 {
		t.Fatalf("crash and corruption should have forced re-dispatches; stats %+v", st)
	}
}

// A corrupt response must NEVER reach the merge. With the trust layer
// disabled (legacy semantics), a fully corrupt fleet exhausts attempts and
// the sweep fails rather than return wrong bytes.
func TestDistCorruptionNeverMerges(t *testing.T) {
	workers := startWorkers(t, 2, WorkerConfig{Log: discardLog})
	cfg := testCoordConfig(workers)
	cfg.Shards = 4
	cfg.MaxAttempts = 3
	cfg.QuarantineThreshold = -1 // legacy: no quarantine, no degrade path
	cfg.DisableDegrade = true
	c := NewCoordinator(cfg)
	armFaults(t, 42, "corrupt:dist.result@1+1") // every response lies
	_, err := c.Run(context.Background(), Job{Op: OpEnum, Model: "star:n=4"})
	if err == nil {
		t.Fatal("sweep with fully corrupt fleet must fail, not merge garbage")
	}
	if st := c.Stats(); st.CorruptResponses == 0 {
		t.Fatalf("corruption undetected; stats %+v", st)
	}
}

// With the trust layer on (the default), the same fully corrupt fleet is
// quarantined worker by worker and the sweep degrades to local compute —
// reference bytes instead of an error.
func TestDistCorruptFleetQuarantinedAndDegrades(t *testing.T) {
	job := Job{Op: OpEnum, Model: "star:n=4"}
	want, err := RunSequential(context.Background(), job)
	if err != nil {
		t.Fatal(err)
	}
	workers := startWorkers(t, 2, WorkerConfig{Log: discardLog})
	cfg := testCoordConfig(workers)
	cfg.Shards = 4
	cfg.MaxAttempts = 40 // quarantine must trip long before attempts exhaust
	c := NewCoordinator(cfg)
	armFaults(t, 42, "corrupt:dist.result@1+1") // every response lies
	got, err := c.Run(context.Background(), job)
	if err != nil {
		t.Fatalf("degraded sweep failed: %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("degraded sweep differs from sequential reference")
	}
	st := c.Stats()
	if st.CorruptResponses == 0 || st.QuarantineTrips != 2 || st.DegradedSweeps != 1 {
		t.Fatalf("expected both workers quarantined and one degraded sweep; stats %+v", st)
	}
}

// Coordinator crash-recovery: kill the coordinator at a (seeded) random
// commit ordinal, restart it on the same journal, and require (a) the
// resumed sweep returns reference bytes, (b) exactly the journaled prefix is
// skipped — committed shards are never recomputed.
func TestDistJournalRecoveryRandomKill(t *testing.T) {
	job := Job{Op: OpEnum, Model: "star:n=4"}
	want, err := RunSequential(context.Background(), job)
	if err != nil {
		t.Fatal(err)
	}
	workers := startWorkers(t, 3, WorkerConfig{Log: discardLog})
	path := filepath.Join(t.TempDir(), "sweep.journal")

	for trial := uint64(0); trial < 4; trial++ {
		// Seeded-random kill point among the first 20 of 24 commits.
		kill := 1 + splitmix64(0xC0FFEE+trial)%20
		os.Remove(path)

		cfg := testCoordConfig(workers)
		cfg.JournalPath = path
		faultinject.Enable(42, faultinject.Rule{
			Point:  faultinject.PointDistCommit,
			Nth:    kill,
			Action: faultinject.ActionError,
		})
		c1 := NewCoordinator(cfg)
		if _, err := c1.Run(context.Background(), job); err == nil {
			faultinject.Disable()
			t.Fatalf("trial %d: coordinator should have been killed at commit %d", trial, kill)
		}
		faultinject.Disable()

		c2 := NewCoordinator(cfg)
		got, err := c2.Run(context.Background(), job)
		if err != nil {
			t.Fatalf("trial %d: resumed sweep: %v", trial, err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("trial %d: resumed sweep differs from sequential reference", trial)
		}
		st := c2.Stats()
		// A kill at the very first commit leaves an empty journal: the
		// restart legitimately starts fresh rather than "resuming".
		wantResumes := uint64(1)
		if kill == 1 {
			wantResumes = 0
		}
		if st.JournalResumes != wantResumes {
			t.Fatalf("trial %d (kill %d): want %d journal resumes, stats %+v", trial, kill, wantResumes, st)
		}
		// The kill fired BEFORE the kill-th commit was journaled, so exactly
		// kill−1 shards were recovered and the rest recomputed.
		if st.JournalSkips != kill-1 {
			t.Fatalf("trial %d: recovered %d shards from journal, want %d", trial, st.JournalSkips, kill-1)
		}
		if wantRecompute := uint64(24) - (kill - 1); st.ShardsCommitted != wantRecompute {
			t.Fatalf("trial %d: recomputed %d shards, want %d", trial, st.ShardsCommitted, wantRecompute)
		}
		if _, err := os.Stat(path); !os.IsNotExist(err) {
			t.Fatalf("trial %d: journal should be removed after a completed sweep", trial)
		}
	}
}

// A journal rotting on disk between runs (bit flips injected on load) must
// degrade to recomputation, never to wrong bytes.
func TestDistJournalRotRecomputes(t *testing.T) {
	job := Job{Op: OpEnum, Model: "star:n=4"}
	want, err := RunSequential(context.Background(), job)
	if err != nil {
		t.Fatal(err)
	}
	workers := startWorkers(t, 3, WorkerConfig{Log: discardLog})
	path := filepath.Join(t.TempDir(), "sweep.journal")
	cfg := testCoordConfig(workers)
	cfg.JournalPath = path

	// Kill mid-sweep to leave a journal behind.
	faultinject.Enable(42, faultinject.Rule{Point: faultinject.PointDistCommit, Nth: 10, Action: faultinject.ActionError})
	c1 := NewCoordinator(cfg)
	if _, err := c1.Run(context.Background(), job); err == nil {
		faultinject.Disable()
		t.Fatal("expected injected coordinator kill")
	}
	faultinject.Disable()

	// Restart with the journal byte stream corrupted on load.
	armFaults(t, 99, "corrupt:dist.journal@1:64")
	c2 := NewCoordinator(cfg)
	got, err := c2.Run(context.Background(), job)
	if err != nil {
		t.Fatalf("sweep over rotten journal: %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("rotten journal produced non-reference bytes")
	}
}

// The distributed budget trip: the shared counter stops the sweep with the
// typed budget error and without dispatching the whole rank space many times
// over.
func TestDistBudgetTrip(t *testing.T) {
	workers := startWorkers(t, 3, WorkerConfig{Log: discardLog})
	c := NewCoordinator(testCoordConfig(workers))
	_, err := c.Run(context.Background(), Job{Op: OpCount, Model: "star:n=4", Budget: 500})
	if err == nil {
		t.Fatal("want distributed budget trip")
	}
	var be *BudgetError
	if !errors.As(err, &be) {
		t.Fatalf("want *BudgetError, got %v", err)
	}
	// 24 shards of ~85 ranks: the crossing charge lands within one shard of
	// the 500-rank limit, not at workers × budget.
	if be.Spent > 500+2048/24+1 {
		t.Fatalf("budget overshoot: spent %d against limit 500", be.Spent)
	}
	if st := c.Stats(); st.BudgetTrips != 1 {
		t.Fatalf("want 1 budget trip, stats %+v", st)
	}
}
