package par

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"ksettop/internal/faultinject"
)

// checkNoGoroutineLeak is the goleak-style accounting used across the
// cancellation tests: it snapshots the goroutine count up front and fails
// the test if, after a settling window, the count has not returned to the
// baseline. Registered via t.Cleanup BEFORE the body runs.
func checkNoGoroutineLeak(t *testing.T) {
	t.Helper()
	before := runtime.NumGoroutine()
	t.Cleanup(func() {
		deadline := time.Now().Add(2 * time.Second)
		for {
			runtime.GC()
			if n := runtime.NumGoroutine(); n <= before {
				return
			}
			if time.Now().After(deadline) {
				t.Errorf("goroutine leak: %d before, %d after", before, runtime.NumGoroutine())
				return
			}
			time.Sleep(10 * time.Millisecond)
		}
	})
}

func TestStopCauseFirstWins(t *testing.T) {
	ctl := &Ctl{}
	if ctl.Cause() != nil {
		t.Fatal("fresh Ctl has a cause")
	}
	first := errors.New("first")
	ctl.StopCause(first)
	ctl.StopCause(errors.New("second"))
	if !ctl.Stopped() {
		t.Fatal("StopCause did not stop")
	}
	if got := ctl.Cause(); got != first {
		t.Fatalf("Cause() = %v, want first", got)
	}
	// Plain Stop leaves no cause.
	ctl2 := &Ctl{}
	ctl2.Stop()
	if ctl2.Cause() != nil {
		t.Fatal("Stop() recorded a cause")
	}
}

func TestForEachShardCtxCancellation(t *testing.T) {
	checkNoGoroutineLeak(t)
	for _, workers := range []int{1, 2, 8} {
		withParallelism(t, workers, func() {
			ctx, cancel := context.WithCancel(context.Background())
			var visited atomic.Int64
			err := ForEachShard(ctx, 1_000_000, nil, func(_ int, from, to int64, c *Ctl) {
				for r := from; r < to; r++ {
					if r == from+10 {
						cancel()
						// The ctx watcher fires asynchronously; wait
						// (bounded) until the stop is visible so the rest of
						// the shard is provably dropped, not raced through.
						deadline := time.Now().Add(time.Second)
						for !c.Stopped() && time.Now().Before(deadline) {
							time.Sleep(time.Microsecond)
						}
					}
					if c.Stopped() {
						return
					}
					visited.Add(1)
				}
			})
			if !errors.Is(err, context.Canceled) {
				t.Fatalf("workers=%d: err = %v, want context.Canceled", workers, err)
			}
			// Each in-flight shard stops within its polling granularity; the
			// rest of the rank space is never scanned.
			if v := visited.Load(); v >= 1_000_000 {
				t.Fatalf("workers=%d: visited %d ranks despite cancellation", workers, v)
			}
		})
	}
}

func TestForEachShardCtxDeadline(t *testing.T) {
	checkNoGoroutineLeak(t)
	ctx, cancel := context.WithTimeout(context.Background(), time.Millisecond)
	defer cancel()
	<-ctx.Done() // already expired before the sweep starts
	var visited atomic.Int64
	err := ForEachShard(ctx, seqThreshold*10, nil, func(_ int, from, to int64, c *Ctl) {
		visited.Add(to - from)
	})
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want DeadlineExceeded", err)
	}
}

func TestForEachShardCtxPanicContained(t *testing.T) {
	checkNoGoroutineLeak(t)
	withParallelism(t, 4, func() {
		err := ForEachShard(context.Background(), 1_000_000, nil, func(shard int, from, to int64, c *Ctl) {
			if shard == 2 {
				panic("scan exploded")
			}
		})
		var pe *PanicError
		if !errors.As(err, &pe) {
			t.Fatalf("err = %v, want *PanicError", err)
		}
		if pe.Site != faultinject.PointParShard || pe.Shard != 2 || fmt.Sprint(pe.Value) != "scan exploded" {
			t.Fatalf("bad PanicError %+v", pe)
		}
		if len(pe.Stack) == 0 {
			t.Fatal("PanicError carries no stack")
		}
	})
}

func TestRunDequeCtxCancellation(t *testing.T) {
	checkNoGoroutineLeak(t)
	for _, workers := range []int{1, 2, 8} {
		withParallelism(t, workers, func() {
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			var ran atomic.Int64
			tasks := make([]Task, 64)
			for i := range tasks {
				tasks[i] = func(d *Deque) {
					ran.Add(1)
					cancel()
					// Wait (bounded) until the stop is visible so queued
					// tasks are provably dropped, not raced to completion.
					deadline := time.Now().Add(time.Second)
					for !d.Ctl().Stopped() && time.Now().Before(deadline) {
						time.Sleep(time.Microsecond)
					}
				}
			}
			err := RunDeque(ctx, tasks, nil)
			if !errors.Is(err, context.Canceled) {
				t.Fatalf("workers=%d: err = %v, want context.Canceled", workers, err)
			}
			if r := ran.Load(); r >= 64 {
				t.Fatalf("workers=%d: all %d tasks ran despite cancellation", workers, r)
			}
		})
	}
}

func TestRunDequePanicDoesNotDeadlock(t *testing.T) {
	checkNoGoroutineLeak(t)
	withParallelism(t, 4, func() {
		var ran atomic.Int64
		tasks := make([]Task, 32)
		for i := range tasks {
			i := i
			tasks[i] = func(d *Deque) {
				ran.Add(1)
				if i == 1 {
					panic("task exploded")
				}
			}
		}
		done := make(chan error, 1)
		go func() {
			done <- RunDeque(context.Background(), tasks, nil)
		}()
		select {
		case err := <-done:
			var pe *PanicError
			if !errors.As(err, &pe) {
				t.Fatalf("err = %v, want *PanicError", err)
			}
			if pe.Site != faultinject.PointParTask {
				t.Fatalf("bad site %q", pe.Site)
			}
		case <-time.After(5 * time.Second):
			t.Fatal("RunDeque deadlocked after task panic (workers left on cond.Wait)")
		}
	})
}

func TestFaultInjectParTask(t *testing.T) {
	checkNoGoroutineLeak(t)
	faultinject.Enable(1, faultinject.Rule{Point: faultinject.PointParTask, Nth: 2, Action: faultinject.ActionError})
	defer faultinject.Disable()
	withParallelism(t, 1, func() {
		tasks := make([]Task, 8)
		var ran atomic.Int64
		for i := range tasks {
			tasks[i] = func(d *Deque) { ran.Add(1) }
		}
		err := RunDeque(context.Background(), tasks, nil)
		if !errors.Is(err, faultinject.ErrInjected) {
			t.Fatalf("err = %v, want injected", err)
		}
	})
}

func TestFirstAndExistsStillDeterministicWithCause(t *testing.T) {
	// Guard that the cause plumbing did not disturb the early-exit
	// reducers' determinism contract.
	for _, workers := range []int{1, 3, 8} {
		withParallelism(t, workers, func() {
			got, err := First(context.Background(), 1_000_000, func(from, to int64, c *Ctl) int64 {
				for r := from; r < to; r++ {
					if c.SkipAfter(r) {
						return -1
					}
					if r%997 == 0 && r > 0 {
						return r
					}
				}
				return -1
			})
			if got != 997 || err != nil {
				t.Fatalf("workers=%d: First = %d, %v, want 997", workers, got, err)
			}
		})
	}
}

// The reducers report a cancelled sweep as its cause instead of a partial
// result: a shard cancels the context mid-sweep and every reducer must
// return context.Canceled, at every worker count.
func TestReducersReturnCancellation(t *testing.T) {
	checkNoGoroutineLeak(t)
	// scanUntilCancelled cancels on its first rank and then polls ctl until
	// the stop is visible, as the combinat scanners do.
	scanUntilCancelled := func(cancel context.CancelFunc) func(from, to int64, c *Ctl) bool {
		return func(from, to int64, c *Ctl) bool {
			cancel()
			deadline := time.Now().Add(time.Second)
			for !c.Stopped() && time.Now().Before(deadline) {
				time.Sleep(time.Microsecond)
			}
			return false
		}
	}
	for _, workers := range []int{1, 2, 8} {
		withParallelism(t, workers, func() {
			for name, sweep := range map[string]func(ctx context.Context, scan func(from, to int64, c *Ctl) bool) error{
				"First": func(ctx context.Context, scan func(from, to int64, c *Ctl) bool) error {
					_, err := First(ctx, 1_000_000, func(from, to int64, c *Ctl) int64 { scan(from, to, c); return -1 })
					return err
				},
				"Exists": func(ctx context.Context, scan func(from, to int64, c *Ctl) bool) error {
					_, err := Exists(ctx, 1_000_000, scan)
					return err
				},
				"Min": func(ctx context.Context, scan func(from, to int64, c *Ctl) bool) error {
					_, err := Min(ctx, 1_000_000, 0, func(from, to int64, c *Ctl) int64 { scan(from, to, c); return 1 })
					return err
				},
				"Max": func(ctx context.Context, scan func(from, to int64, c *Ctl) bool) error {
					_, err := Max(ctx, 1_000_000, 1, func(from, to int64, c *Ctl) int64 { scan(from, to, c); return 0 })
					return err
				},
			} {
				ctx, cancel := context.WithCancel(context.Background())
				err := sweep(ctx, scanUntilCancelled(cancel))
				cancel()
				if !errors.Is(err, context.Canceled) {
					t.Errorf("workers=%d: %s = %v, want context.Canceled", workers, name, err)
				}
			}
		})
	}
}
