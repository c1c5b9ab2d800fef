package par

import (
	"context"
	"runtime/debug"
	"sync"

	"ksettop/internal/faultinject"
	"ksettop/internal/obs"
)

var (
	obsDequeRuns = obs.DefaultRegistry().Counter("kset_par_deque_runs_total",
		"work-stealing deque sweeps started")
	obsDequeTasks = obs.DefaultRegistry().Counter("kset_par_deque_tasks_total",
		"deque tasks executed (initial + spawned)")
	obsDequeSpawns = obs.DefaultRegistry().Counter("kset_par_deque_spawns_total",
		"tasks spawned mid-run by running tasks (work splits stolen by idle workers)")
)

// Task is one unit of work-stealing work. A running task may carve off
// unexplored parts of its own search space and hand them back to the deque
// via Spawn, which is how subtree searches split under load.
type Task func(d *Deque)

// Deque is the shared double-ended task queue of one work-stealing sweep.
// Initial tasks are queued at the back in submission order; workers take
// from the front, so the queue drains in that order (for searches:
// lexicographic prefix order, which lets early low-rank witnesses cancel
// the high-rank tail). Tasks spawned mid-run are pushed at the FRONT —
// they are continuations of the lowest-ranked work in flight and must not
// queue behind the untouched tail.
//
// Scheduling affects only wall-clock time: callers that need deterministic
// results must reduce task outcomes by rank, not completion order (see
// protocol's solver for the pattern).
type Deque struct {
	mu      sync.Mutex
	cond    *sync.Cond
	items   []Task
	pending int // queued + running tasks
	ctl     *Ctl
}

// Spawn queues t at the front of the deque. It is safe to call from inside
// a running task (that is its purpose). After cancellation, spawns are
// dropped.
func (d *Deque) Spawn(t Task) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.ctl.Stopped() {
		return
	}
	d.items = append(d.items, nil)
	copy(d.items[1:], d.items)
	d.items[0] = t
	d.pending++
	obsDequeSpawns.Inc()
	d.cond.Signal()
}

// Ctl returns the sweep's cancellation state, shared with every task.
func (d *Deque) Ctl() *Ctl { return d.ctl }

// RunDeque drains tasks (and everything they spawn) over a pool of up to
// Parallelism() workers sharing one deque, returning when every task has
// finished or the sweep was cancelled through ctx or ctl (a nil ctl gets a
// private one). Running tasks are expected to poll ctl and wind down; task
// panics are contained into *PanicError causes instead of crashing, and
// the sweep's failure cause (if any) is returned after every worker has
// exited. Queued tasks left at cancellation are dropped, never leaked: the
// pool always drains pending to zero before returning.
func RunDeque(ctx context.Context, tasks []Task, ctl *Ctl) error {
	if len(tasks) == 0 {
		return nil
	}
	if ctl == nil {
		ctl = &Ctl{}
	}
	if ctx.Err() != nil {
		ctl.StopCause(context.Cause(ctx))
		return ctl.Cause()
	}
	release := ctl.Bind(ctx)
	defer release()
	obsDequeRuns.Inc()
	d := &Deque{items: append([]Task(nil), tasks...), pending: len(tasks), ctl: ctl}
	d.cond = sync.NewCond(&d.mu)
	workers := Parallelism()
	if workers > len(tasks) {
		// Spawns can outgrow the initial task list, but they come from
		// running tasks, so len(tasks) workers are enough to start and the
		// pool never idles below the spawn rate it can consume.
		workers = len(tasks)
	}
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			d.work()
		}()
	}
	wg.Wait()
	return ctl.Cause()
}

// runTask runs one task with panic containment: a panicking task stops the
// sweep with a structured cause, and — critically — the worker's drain loop
// still decrements pending afterwards, so sibling workers blocked on the
// condition variable are always released. (Before this recover existed, a
// task panic unwound past the pending bookkeeping and every other worker
// slept forever.)
func (d *Deque) runTask(t Task) {
	defer func() {
		if r := recover(); r != nil {
			d.ctl.StopCause(&PanicError{Site: faultinject.PointParTask, Shard: -1, Value: r, Stack: debug.Stack()})
		}
	}()
	if err := faultinject.Hit(faultinject.PointParTask); err != nil {
		d.ctl.StopCause(err)
		return
	}
	t(d)
}

// work is one worker's drain loop: take from the front, run, repeat; block
// on the condition variable while the deque is empty but tasks are still
// running (they may spawn more).
func (d *Deque) work() {
	d.mu.Lock()
	for {
		if d.ctl.Stopped() && len(d.items) > 0 {
			d.pending -= len(d.items)
			d.items = nil
			if d.pending == 0 {
				d.cond.Broadcast()
			}
		}
		if len(d.items) > 0 {
			t := d.items[0]
			d.items = d.items[1:]
			d.mu.Unlock()
			obsDequeTasks.Inc()
			d.runTask(t)
			d.mu.Lock()
			d.pending--
			if d.pending == 0 {
				d.cond.Broadcast()
			}
			continue
		}
		if d.pending == 0 {
			d.mu.Unlock()
			return
		}
		d.cond.Wait()
	}
}
