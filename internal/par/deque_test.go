package par

import (
	"context"
	"sync"
	"sync/atomic"
	"testing"
)

func TestRunDequeDrainsAllTasks(t *testing.T) {
	defer SetParallelism(0)
	for _, workers := range []int{1, 2, 8} {
		SetParallelism(workers)
		var sum atomic.Int64
		tasks := make([]Task, 100)
		for i := range tasks {
			v := int64(i)
			tasks[i] = func(*Deque) { sum.Add(v) }
		}
		RunDeque(context.Background(), tasks, nil)
		if got := sum.Load(); got != 4950 {
			t.Errorf("workers=%d: sum %d, want 4950", workers, got)
		}
	}
}

func TestRunDequeSpawnedTasksRun(t *testing.T) {
	defer SetParallelism(0)
	for _, workers := range []int{1, 4} {
		SetParallelism(workers)
		var count atomic.Int64
		// Each root task spawns a chain of 5 children; all must run even
		// when spawning outlives the initial task list.
		var chain func(depth int) Task
		chain = func(depth int) Task {
			return func(d *Deque) {
				count.Add(1)
				if depth > 0 {
					d.Spawn(chain(depth - 1))
				}
			}
		}
		tasks := []Task{chain(5), chain(5), chain(5)}
		RunDeque(context.Background(), tasks, nil)
		if got := count.Load(); got != 18 {
			t.Errorf("workers=%d: ran %d tasks, want 18", workers, got)
		}
	}
}

func TestRunDequeFrontOrderSingleWorker(t *testing.T) {
	// With one worker the deque drains strictly front-first, and spawned
	// tasks run before the untouched tail.
	SetParallelism(1)
	defer SetParallelism(0)
	var order []string
	tasks := []Task{
		func(d *Deque) {
			order = append(order, "a")
			d.Spawn(func(*Deque) { order = append(order, "a.child") })
		},
		func(*Deque) { order = append(order, "b") },
	}
	RunDeque(context.Background(), tasks, nil)
	want := []string{"a", "a.child", "b"}
	if len(order) != len(want) {
		t.Fatalf("order %v, want %v", order, want)
	}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order %v, want %v", order, want)
		}
	}
}

func TestRunDequeCancellationDropsQueuedTasks(t *testing.T) {
	SetParallelism(1)
	defer SetParallelism(0)
	var ran atomic.Int64
	ctl := &Ctl{}
	tasks := make([]Task, 50)
	for i := range tasks {
		tasks[i] = func(d *Deque) {
			if ran.Add(1) == 3 {
				d.Ctl().Stop()
			}
		}
	}
	RunDeque(context.Background(), tasks, ctl)
	if got := ran.Load(); got != 3 {
		t.Errorf("ran %d tasks after Stop at 3, want 3", got)
	}
	// Spawning after cancellation is a silent no-op and must not wedge a
	// later sweep on the same ctl... a fresh RunDeque with a fresh ctl runs.
	var again atomic.Int64
	RunDeque(context.Background(), []Task{func(*Deque) { again.Add(1) }}, nil)
	if again.Load() != 1 {
		t.Errorf("fresh sweep did not run")
	}
}

func TestRunDequeConcurrentSpawn(t *testing.T) {
	// Hammer Spawn from many workers at once; run under -race in CI.
	SetParallelism(8)
	defer SetParallelism(0)
	var count atomic.Int64
	var mu sync.Mutex
	seen := map[int]bool{}
	tasks := make([]Task, 16)
	for i := range tasks {
		id := i
		tasks[i] = func(d *Deque) {
			mu.Lock()
			seen[id] = true
			mu.Unlock()
			for j := 0; j < 8; j++ {
				d.Spawn(func(*Deque) { count.Add(1) })
			}
		}
	}
	RunDeque(context.Background(), tasks, nil)
	if count.Load() != 16*8 {
		t.Errorf("spawned tasks ran %d times, want %d", count.Load(), 16*8)
	}
	if len(seen) != 16 {
		t.Errorf("initial tasks ran %d, want 16", len(seen))
	}
}
