// Package par is the worker fan-out engine behind the exponential subset
// sweeps in internal/combinat, internal/graph and internal/experiments.
//
// Work is expressed as a contiguous rank space [0, total) — combination
// ranks, permutation ranks, experiment indices — split into contiguous
// shards. A pool of up to Parallelism() goroutines drains the shards in
// ascending order; every shard scanner receives a *Ctl and is expected to
// poll it so that early-exit sweeps (first witness found, floor reached,
// counterexample seen) cancel promptly across all workers.
//
// Determinism: every reducer is either order-insensitive (Exists, Min, Max)
// or selects the lowest-ranked witness (First), so results are identical
// regardless of goroutine scheduling and identical to a sequential sweep of
// the same rank order. Small totals (or Parallelism() == 1) run inline on
// the calling goroutine with zero fan-out overhead.
package par

import (
	"context"
	"fmt"
	"math"
	"os"
	"runtime"
	"runtime/debug"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"ksettop/internal/faultinject"
	"ksettop/internal/obs"
)

// Shard-granularity instrumentation: counters fire once per sweep/shard
// (never per rank), and the dispatch-wait histogram is gated behind
// obs.Enabled() so the disabled path never reads the clock. None of
// this feeds back into scheduling — determinism is untouched.
var (
	obsSweeps = obs.DefaultRegistry().Counter("kset_par_sweeps_total",
		"shard fan-outs started (inline single-shard sweeps included)")
	obsShards = obs.DefaultRegistry().Counter("kset_par_shards_total",
		"shards dispatched to the worker pool")
	obsShardsSkipped = obs.DefaultRegistry().Counter("kset_par_shards_skipped_total",
		"shards drained without scanning because the sweep was already cancelled")
	obsShardWait = obs.DefaultRegistry().Histogram("kset_par_shard_wait_seconds",
		"delay between sweep start and each shard's dispatch (queue wait)",
		obs.LatencyBuckets())
)

// EnvParallelism is the environment variable that overrides the default
// worker count (a positive integer; 0 or unset means GOMAXPROCS).
const EnvParallelism = "KSETTOP_PARALLELISM"

// seqThreshold is the rank-space size below which fan-out overhead would
// dominate; smaller sweeps run inline on the calling goroutine.
const seqThreshold = 4096

// PollMask sets the cancellation-poll stride of the sequential engine
// loops (product sets, generator pruning, protocol complexes, worst-case
// sweeps): they check their context when i&PollMask == 0, once per 4096.
const PollMask = seqThreshold - 1

// shardsPerWorker oversubscribes shards so that uneven shard costs are
// rebalanced by the pool and cancellation is observed at shard granularity.
const shardsPerWorker = 8

var override atomic.Int64

// Parallelism returns the effective worker-pool size: SetParallelism's value
// if set, else the KSETTOP_PARALLELISM environment variable, else
// GOMAXPROCS. Always ≥ 1.
func Parallelism() int {
	if n := override.Load(); n > 0 {
		return int(n)
	}
	if s := os.Getenv(EnvParallelism); s != "" {
		if n, err := strconv.Atoi(s); err == nil && n > 0 {
			return n
		}
	}
	return runtime.GOMAXPROCS(0)
}

// SetParallelism fixes the worker-pool size; n ≤ 0 restores the automatic
// default. Safe for concurrent use.
func SetParallelism(n int) {
	if n < 0 {
		n = 0
	}
	override.Store(int64(n))
}

// PanicError is a worker panic recovered at a shard or task boundary,
// carrying enough context (site, shard, stack) to report the failure as a
// structured error instead of crashing the process. ForEachShardN and
// RunDeque return it as the sweep's cause.
type PanicError struct {
	Site  string // injection/recovery site, e.g. "par.shard" or "par.task"
	Shard int    // shard index, or -1 when not meaningful (deque tasks)
	Value any    // the recovered panic value
	Stack []byte // stack of the panicking goroutine
}

func (e *PanicError) Error() string {
	if e.Shard >= 0 {
		return fmt.Sprintf("par: panic in %s (shard %d): %v", e.Site, e.Shard, e.Value)
	}
	return fmt.Sprintf("par: panic in %s: %v", e.Site, e.Value)
}

// Ctl is the shared cancellation state of one fan-out. Shard scanners poll
// it between iterations; polling is a single atomic load.
type Ctl struct {
	stop  atomic.Bool
	bound atomic.Int64 // for First: lowest witness rank published so far
	cause atomic.Pointer[causeCell]
}

type causeCell struct{ err error }

// Stop requests global cancellation of the sweep.
func (c *Ctl) Stop() { c.stop.Store(true) }

// StopCause requests cancellation and records err as the sweep's failure
// cause. The first non-nil cause wins; later causes are dropped (the sweep
// is already dying for the first reason). Stop() without a cause — witness
// found, floor reached — leaves Cause() nil.
func (c *Ctl) StopCause(err error) {
	if err != nil {
		c.cause.CompareAndSwap(nil, &causeCell{err})
	}
	c.stop.Store(true)
}

// Cause returns the failure cause recorded by StopCause, or nil if the sweep
// was never cancelled or was cancelled without a cause.
func (c *Ctl) Cause() error {
	if cell := c.cause.Load(); cell != nil {
		return cell.err
	}
	return nil
}

// Bind ties ctx's cancellation to the Ctl: when ctx is done, the sweep is
// stopped with context.Cause(ctx) as its cause. The returned release func
// detaches the watcher and must be called when the sweep ends (typically
// deferred). A ctx that can never be cancelled binds for free.
func (c *Ctl) Bind(ctx context.Context) (release func()) {
	if ctx.Done() == nil {
		return func() {}
	}
	stop := context.AfterFunc(ctx, func() {
		c.StopCause(context.Cause(ctx))
	})
	return func() { stop() }
}

// Stopped reports whether the sweep has been cancelled.
func (c *Ctl) Stopped() bool { return c.stop.Load() }

// SkipAfter reports whether scanning ranks ≥ rank has become pointless for a
// First sweep: either a witness with a lower rank is already published or the
// sweep was cancelled outright.
func (c *Ctl) SkipAfter(rank int64) bool {
	return rank >= c.bound.Load() || c.stop.Load()
}

// publishWitness lowers the shared witness bound to rank (no-op if a lower
// witness is already published).
func (c *Ctl) publishWitness(rank int64) {
	for {
		b := c.bound.Load()
		if rank >= b {
			return
		}
		if c.bound.CompareAndSwap(b, rank) {
			return
		}
	}
}

// NumShards reports how many shards ForEachShard will split [0, total) into.
func NumShards(total int64) int {
	if total <= 0 {
		return 0
	}
	workers := int64(Parallelism())
	if workers <= 1 || total < seqThreshold {
		return 1
	}
	shards := workers * shardsPerWorker
	if shards > total {
		shards = total
	}
	return int(shards)
}

// ForEachShard splits [0, total) into NumShards(total) contiguous shards and
// runs scan(shard, from, to, ctl) for each on a pool of Parallelism()
// workers, ascending shard order first, the way ForEachShardN does.
//
// Callers that presize per-shard result storage must use ForEachShardN with
// their own NumShards value — Parallelism can change between the two calls.
func ForEachShard(ctx context.Context, total int64, ctl *Ctl, scan func(shard int, from, to int64, ctl *Ctl)) error {
	return ForEachShardN(ctx, total, NumShards(total), ctl, scan)
}

// recoverShard converts a panic inside a shard scan into a structured cause
// on the sweep's Ctl, so the pool winds down cleanly instead of crashing.
func recoverShard(ctl *Ctl, shard int) {
	if r := recover(); r != nil {
		ctl.StopCause(&PanicError{Site: faultinject.PointParShard, Shard: shard, Value: r, Stack: debug.Stack()})
	}
}

// runShard runs one shard scan behind the fault-injection hook and panic
// containment.
func runShard(ctl *Ctl, shard int, from, to int64, scan func(shard int, from, to int64, ctl *Ctl)) {
	defer recoverShard(ctl, shard)
	if err := faultinject.Hit(faultinject.PointParShard); err != nil {
		ctl.StopCause(err)
		return
	}
	scan(shard, from, to, ctl)
}

// ShardBounds returns the rank range [from, to) of shard s when [0, total)
// is split into shards contiguous pieces the way ForEachShardN splits it:
// the first total%shards shards get one extra rank. Exported so that other
// tiers (the distributed sweep coordinator) can partition a rank space
// byte-identically to the in-process pool without re-deriving the balance
// rule. The computation avoids s*total products, which overflow int64 for
// rank spaces near C(64,32).
func ShardBounds(total int64, shards int, s int) (from, to int64) {
	if total <= 0 || shards <= 0 || s < 0 || s >= shards {
		return 0, 0
	}
	base, rem := total/int64(shards), total%int64(shards)
	si := int64(s)
	from = si * base
	if si < rem {
		from += si
	} else {
		from += rem
	}
	to = from + base
	if si < rem {
		to++
	}
	return from, to
}

// ForEachShardN splits [0, total) into shards contiguous shards (≥ 1 when
// total > 0; values from NumShards are always valid) and runs scan on each.
// It binds ctx cancellation to ctl (a nil ctl gets a private one), contains
// worker panics, and returns after every shard has run or observed
// cancellation. The result is the sweep's failure cause: the context's
// cause, a recovered *PanicError, or a cause the scanner recorded via
// StopCause; nil on clean completion or cause-less early exit. With a
// single shard, scan runs inline.
func ForEachShardN(ctx context.Context, total int64, shards int, ctl *Ctl, scan func(shard int, from, to int64, ctl *Ctl)) error {
	if total <= 0 || shards <= 0 {
		return nil
	}
	if ctl == nil {
		ctl = &Ctl{}
	}
	if ctx.Err() != nil {
		// Already expired: AfterFunc would fire asynchronously and could
		// lose the race against a fast sweep, so stop synchronously.
		ctl.StopCause(context.Cause(ctx))
		return ctl.Cause()
	}
	release := ctl.Bind(ctx)
	defer release()
	obsSweeps.Inc()
	if shards == 1 {
		if !ctl.Stopped() {
			obsShards.Inc()
			runShard(ctl, 0, 0, total, scan)
		}
		return ctl.Cause()
	}
	workers := Parallelism()
	if workers > shards {
		workers = shards
	}
	var sweepStart time.Time
	if obs.Enabled() {
		sweepStart = time.Now()
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for {
				s := next.Add(1) - 1
				if s >= int64(shards) {
					return
				}
				if ctl.Stopped() {
					obsShardsSkipped.Inc()
					continue // drain remaining shards without scanning
				}
				obsShards.Inc()
				if !sweepStart.IsZero() {
					obsShardWait.Observe(time.Since(sweepStart).Seconds())
				}
				from, to := ShardBounds(total, shards, int(s))
				runShard(ctl, int(s), from, to, scan)
			}
		}()
	}
	wg.Wait()
	return ctl.Cause()
}

// First returns the smallest rank in [0, total) accepted by the sweep, or -1
// if none is. scan must visit the ranks of its shard in ascending order and
// return the first accepted rank (or -1); it should poll ctl.SkipAfter(rank)
// and abort once it reports true — any witness at or beyond that rank cannot
// be the global first. The result is the lexicographically-first witness in
// rank order, independent of scheduling. A cancelled sweep returns -1 and
// the cause; so do Exists, Min and Max, whose scanners see ctx's
// cancellation through ctl.
func First(ctx context.Context, total int64, scan func(from, to int64, ctl *Ctl) int64) (int64, error) {
	ctl := &Ctl{}
	ctl.bound.Store(math.MaxInt64)
	if err := ForEachShard(ctx, total, ctl, func(_ int, from, to int64, c *Ctl) {
		if c.SkipAfter(from) {
			return // a lower-ranked witness already covers this whole shard
		}
		if r := scan(from, to, c); r >= 0 {
			c.publishWitness(r)
		}
	}); err != nil {
		return -1, err
	}
	if best := ctl.bound.Load(); best != math.MaxInt64 {
		return best, nil
	}
	return -1, nil
}

// Exists reports whether some rank in [0, total) is accepted. scan reports
// whether its shard contains an accepted rank; it should poll ctl.Stopped()
// and abort early. The first acceptance cancels all other shards.
func Exists(ctx context.Context, total int64, scan func(from, to int64, ctl *Ctl) bool) (bool, error) {
	var found atomic.Bool
	if err := ForEachShard(ctx, total, &Ctl{}, func(_ int, from, to int64, c *Ctl) {
		if scan(from, to, c) {
			found.Store(true)
			c.Stop()
		}
	}); err != nil {
		return false, err
	}
	return found.Load(), nil
}

// Min returns the minimum of the shard-local minima. floor is a proven lower
// bound on the result: once the running minimum reaches floor the sweep is
// cancelled globally (scanners observe it via ctl.Stopped()). scan returns
// the minimum over its shard, or a value ≥ any candidate (e.g. the domain
// maximum) when the shard is empty or aborted early.
func Min(ctx context.Context, total, floor int64, scan func(from, to int64, ctl *Ctl) int64) (int64, error) {
	best := atomic.Int64{}
	best.Store(math.MaxInt64)
	err := ForEachShard(ctx, total, &Ctl{}, func(_ int, from, to int64, c *Ctl) {
		local := scan(from, to, c)
		for {
			b := best.Load()
			if local >= b {
				return
			}
			if best.CompareAndSwap(b, local) {
				if local <= floor {
					c.Stop()
				}
				return
			}
		}
	})
	return best.Load(), err
}

// Max returns the maximum of the shard-local maxima. ceil is a proven upper
// bound on the result: once the running maximum reaches ceil the sweep is
// cancelled globally. scan returns the maximum over its shard, or a value ≤
// any candidate (e.g. -1) when the shard is empty or aborted early.
func Max(ctx context.Context, total, ceil int64, scan func(from, to int64, ctl *Ctl) int64) (int64, error) {
	best := atomic.Int64{}
	best.Store(math.MinInt64)
	err := ForEachShard(ctx, total, &Ctl{}, func(_ int, from, to int64, c *Ctl) {
		local := scan(from, to, c)
		for {
			b := best.Load()
			if local <= b {
				return
			}
			if best.CompareAndSwap(b, local) {
				if local >= ceil {
					c.Stop()
				}
				return
			}
		}
	})
	return best.Load(), err
}
