package protocol

import (
	"context"
	"errors"
	"runtime"
	"strings"
	"testing"
	"time"

	"ksettop/internal/faultinject"
	"ksettop/internal/graph"
	"ksettop/internal/model"
	"ksettop/internal/par"
)

// midSweepInstance returns the n=4 star-closure instance whose refutation
// engages the decomposition + task sweep once the probe limit is forced
// down — the same configuration TestBudgetErrorsAgreeAcrossEnginesAndParallelism
// uses for its mid-sweep budget trips.
func midSweepInstance(t *testing.T) []graph.Digraph {
	t.Helper()
	m, err := model.NonEmptyKernelModel(4)
	if err != nil {
		t.Fatal(err)
	}
	all, err := m.AllGraphs()
	if err != nil {
		t.Fatal(err)
	}
	return all
}

// TestBudgetTypedError pins the typed budget error contract: errors.Is
// matches ErrBudgetExceeded, errors.As yields the budget and the
// deterministic node count, on both engines.
func TestBudgetTypedError(t *testing.T) {
	m, err := model.NonEmptyKernelModel(3)
	if err != nil {
		t.Fatal(err)
	}
	gens := m.Generators()
	for _, engine := range engines {
		res, err := engine.solve(context.Background(), gens, 3, 2, 1)
		if !errors.Is(err, ErrBudgetExceeded) {
			t.Fatalf("engine=%s: err %v does not match ErrBudgetExceeded", engine.name, err)
		}
		var be *BudgetError
		if !errors.As(err, &be) {
			t.Fatalf("engine=%s: err %v is not a *BudgetError", engine.name, err)
		}
		if be.Budget != 1 || be.Nodes != res.Nodes {
			t.Fatalf("engine=%s: BudgetError %+v, want Budget=1 Nodes=%d", engine.name, be, res.Nodes)
		}
	}
}

// TestBudgetOvershootBounded is the regression test for the tasks × budget
// overshoot: a mid-sweep budget trip must stop the sweep after roughly one
// task's worth of extra work, not after every task has burned its private
// cap. debugSweepNodes records the wall-clock nodes the sweep actually
// explored (cancelled tasks included), so the assertion is on real work
// done, not on the deterministic accounting.
func TestBudgetOvershootBounded(t *testing.T) {
	all := midSweepInstance(t)
	SetSearchProbeLimit(4) // force the parallel phase immediately
	defer SetSearchProbeLimit(0)
	defer par.SetParallelism(0)

	// Reference: the full refutation is far larger than the budget, so an
	// unbounded sweep would burn orders of magnitude more than budget nodes.
	par.SetParallelism(1)
	full, err := SolveOneRoundCtx(context.Background(), all, 4, 3, 50_000_000)
	if err != nil {
		t.Fatal(err)
	}
	// Budget 200 lands inside the task sweep on this instance (probe +
	// decomposition charge 67 nodes), so the trip exercises the live
	// accounting, not the pre-sweep checks.
	const budget = 200
	if full.Nodes < 20*budget {
		t.Fatalf("instance too small to witness overshoot: full refutation is %d nodes", full.Nodes)
	}

	for _, workers := range []int{1, 2, 8} {
		par.SetParallelism(workers)
		debugSweepNodes.Store(0)
		res, err := SolveOneRoundCtx(context.Background(), all, 4, 3, budget)
		if !errors.Is(err, ErrBudgetExceeded) {
			t.Fatalf("workers=%d: want budget error, got %v (res %+v)", workers, err, res)
		}
		if res.Stats.Tasks == 0 {
			t.Fatalf("workers=%d: budget tripped before the sweep engaged: %+v", workers, res.Stats)
		}
		spent := debugSweepNodes.Load()
		// Bound: the charged prefix (≤ budget) + the crossing task running
		// to its private cap (≤ budget) + every in-flight worker winding
		// down within its 128-node polling granularity, plus slack for
		// tasks that were already mid-flight when the bound was published.
		limit := int64(2*budget + workers*256)
		if spent > limit {
			t.Errorf("workers=%d: sweep explored %d nodes on a %d-node budget (limit %d) — overshoot regression",
				workers, spent, budget, limit)
		}
		if int64(full.Nodes) <= limit {
			t.Fatalf("assertion vacuous: full refutation %d under limit %d", full.Nodes, limit)
		}
	}
}

// TestSolveCancellationDeterminism is the corpus regression for the
// cancellation backbone: cancelling a run mid-flight and rerunning it to
// completion must yield a SolveResult byte-identical to a never-cancelled
// run, at every parallelism setting.
func TestSolveCancellationDeterminism(t *testing.T) {
	all := midSweepInstance(t)
	SetSearchProbeLimit(16)
	defer SetSearchProbeLimit(0)
	defer par.SetParallelism(0)

	par.SetParallelism(1)
	want, err := SolveOneRoundCtx(context.Background(), all, 4, 3, 50_000_000)
	if err != nil {
		t.Fatal(err)
	}
	if want.Stats.Tasks == 0 {
		t.Fatalf("parallel phase did not engage: %+v", want.Stats)
	}

	for _, workers := range []int{1, 2, 5, 8} {
		par.SetParallelism(workers)
		// Cancel mid-run: a deadline short enough to land inside the sweep
		// on most runs. Either outcome is legal — a cancellation error or a
		// clean finish if the run beat the deadline — but a cancelled run
		// must never return a partial result as if it were complete.
		ctx, cancel := context.WithTimeout(context.Background(), 2*time.Millisecond)
		res, err := SolveOneRoundCtx(ctx, all, 4, 3, 50_000_000)
		cancel()
		if err != nil {
			if !errors.Is(err, context.DeadlineExceeded) {
				t.Fatalf("workers=%d: cancelled run returned %v, want a DeadlineExceeded chain", workers, err)
			}
		} else if res != want {
			t.Fatalf("workers=%d: run that beat the deadline differs: %+v vs %+v", workers, res, want)
		}
		// Rerun to completion: byte-identical to the uncancelled result.
		got, err := SolveOneRoundCtx(context.Background(), all, 4, 3, 50_000_000)
		if err != nil {
			t.Fatalf("workers=%d: rerun: %v", workers, err)
		}
		if got != want {
			t.Errorf("workers=%d: rerun after cancellation differs: %+v vs %+v", workers, got, want)
		}
	}
}

// TestSolveExpiredDeadline pins that an already-expired deadline returns a
// typed context error without doing a shard's worth of work.
func TestSolveExpiredDeadline(t *testing.T) {
	all := midSweepInstance(t)
	ctx, cancel := context.WithTimeout(context.Background(), time.Nanosecond)
	defer cancel()
	<-ctx.Done()
	for _, engine := range engines {
		_, err := engine.solve(ctx, all, 4, 3, 50_000_000)
		if !errors.Is(err, context.DeadlineExceeded) {
			t.Fatalf("engine=%s: err = %v, want DeadlineExceeded chain", engine.name, err)
		}
	}
}

// TestSolveChaosInjectedFaults hammers the solver under injected faults:
// panics and errors at task boundaries must surface as clean errors (no
// process crash, no goroutine leak), and a fault-free rerun must match the
// clean result exactly.
func TestSolveChaosInjectedFaults(t *testing.T) {
	all := midSweepInstance(t)
	SetSearchProbeLimit(16)
	defer SetSearchProbeLimit(0)
	defer par.SetParallelism(0)
	par.SetParallelism(4)

	want, err := SolveOneRoundCtx(context.Background(), all, 4, 3, 50_000_000)
	if err != nil {
		t.Fatal(err)
	}

	before := runtime.NumGoroutine()
	cases := []struct {
		name string
		rule faultinject.Rule
	}{
		{"panic at 3rd solver task", faultinject.Rule{Point: faultinject.PointSolverTask, Nth: 3, Action: faultinject.ActionPanic}},
		{"error at 2nd solver task", faultinject.Rule{Point: faultinject.PointSolverTask, Nth: 2, Action: faultinject.ActionError}},
		{"panic at 5th deque task", faultinject.Rule{Point: faultinject.PointParTask, Nth: 5, Action: faultinject.ActionPanic}},
		{"error at 1st deque task", faultinject.Rule{Point: faultinject.PointParTask, Nth: 1, Action: faultinject.ActionError}},
	}
	for _, tc := range cases {
		faultinject.Enable(42, tc.rule)
		_, err := SolveOneRoundCtx(context.Background(), all, 4, 3, 50_000_000)
		faultinject.Disable()
		if err == nil {
			// A panic rule may fire inside a task that was already
			// cancelled-for-rank and never reaches the injection point; but
			// with these small ordinals the fault must land.
			t.Fatalf("%s: fault did not surface as an error", tc.name)
		}
		var pe *par.PanicError
		switch tc.rule.Action {
		case faultinject.ActionPanic:
			if !errors.As(err, &pe) {
				t.Fatalf("%s: err %v does not carry *par.PanicError", tc.name, err)
			}
		case faultinject.ActionError:
			if !errors.Is(err, faultinject.ErrInjected) {
				t.Fatalf("%s: err %v does not match ErrInjected", tc.name, err)
			}
		}
	}

	// Fault-free rerun: byte-identical to the clean run.
	got, err := SolveOneRoundCtx(context.Background(), all, 4, 3, 50_000_000)
	if err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Errorf("fault-free rerun differs: %+v vs %+v", got, want)
	}

	// No goroutine leaks from the faulted sweeps.
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if n := runtime.NumGoroutine(); n > before {
		t.Errorf("goroutine leak: %d before chaos, %d after", before, n)
	}
}

// TestTableBuildCancellation pins the table build's cancellation polling:
// the one rank-ordered sweep polls its stop flag every tablePollRanks
// ranks, so a Ctl stopped before the build scans nothing and a Ctl stopped
// mid-block scans to the end of that block only; SolveOneRoundCtx on a
// cancelled context returns the wrapped cause. The stops are driven from
// the poll itself, so the test needs no timers. It runs at p=1 and p=2:
// the build is the same single sweep at every parallelism.
func TestTableBuildCancellation(t *testing.T) {
	all := midSweepInstance(t)
	const numValues = 4
	in := newSolveInput(all, numValues)
	total := int64(numValues*numValues*numValues*numValues) * int64(in.lists.count())
	blocks := int((total + tablePollRanks - 1) / tablePollRanks)
	if blocks < 4 {
		t.Fatalf("instance too small: %d ranks span %d polling blocks", total, blocks)
	}
	defer par.SetParallelism(0)
	for _, workers := range []int{1, 2} {
		par.SetParallelism(workers)

		polls := 0
		views, offs, _ := buildSolveTables(in, total, func() bool { polls++; return false })
		if views == nil || offs == nil || polls != blocks {
			t.Fatalf("workers=%d: uncancelled build polled %d times over %d blocks (tables %v)", workers, polls, blocks, views != nil)
		}

		ctl := &par.Ctl{}
		ctl.Stop()
		polls = 0
		views, offs, _ = buildSolveTables(in, total, func() bool { polls++; return ctl.Stopped() })
		if views != nil || offs != nil || polls != 1 {
			t.Fatalf("workers=%d: build stopped before its start polled %d times (tables %v), want 1 and none", workers, polls, views != nil)
		}

		// The Ctl stops inside the second block, [tablePollRanks,
		// 2·tablePollRanks): the build must finish that block and stop at
		// the third poll.
		ctl = &par.Ctl{}
		polls = 0
		views, offs, _ = buildSolveTables(in, total, func() bool {
			polls++
			if polls == 2 {
				ctl.Stop()
				return false
			}
			return ctl.Stopped()
		})
		if views != nil || offs != nil || polls != 3 {
			t.Fatalf("workers=%d: build stopped mid-block polled %d times (tables %v), want 3 and none", workers, polls, views != nil)
		}

		cause := errors.New("table build cancelled")
		ctx, cancel := context.WithCancelCause(context.Background())
		cancel(cause)
		for _, engine := range engines {
			_, err := engine.solve(ctx, all, numValues, 3, 50_000_000)
			if !errors.Is(err, cause) || !strings.HasPrefix(err.Error(), "protocol: solve aborted: ") {
				t.Fatalf("workers=%d engine=%s: err = %v, want the wrapped cancellation cause", workers, engine.name, err)
			}
		}
	}
}
