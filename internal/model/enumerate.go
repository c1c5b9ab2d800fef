package model

import (
	"context"
	"fmt"
	"math"
	mathbits "math/bits"
	"sync/atomic"

	"ksettop/internal/bits"
	"ksettop/internal/graph"
	"ksettop/internal/par"
)

// DefaultEnumerationBudget bounds the closure rank space swept by
// EnumerateGraphs and the exhaustive checkers built on it, unless raised
// with SetEnumerationBudget.
const DefaultEnumerationBudget = 1 << 22

var enumBudget atomic.Int64

func init() { enumBudget.Store(DefaultEnumerationBudget) }

// EnumerationBudget returns the current closure-enumeration budget: the
// largest rank space (Σ_G 2^{missing edges of G} over the generators) a
// model may span before enumeration is rejected.
func EnumerationBudget() int64 { return enumBudget.Load() }

// SetEnumerationBudget changes the enumeration budget process-wide; v ≤ 0
// restores the default. The budget replaces the old hard-coded ≤ 8-process /
// 2^22-graph caps: any model whose rank space fits the budget is enumerable,
// regardless of process count.
func SetEnumerationBudget(v int64) {
	if v <= 0 {
		v = DefaultEnumerationBudget
	}
	enumBudget.Store(v)
}

// Enumeration is a streaming rank/unrank view of a model's closure
// ⋃_i ↑G_i over the edge-subset lattice.
//
// The rank space is the disjoint union of per-generator segments: generator
// i with f_i missing (non-loop, absent) edges owns ranks
// [offsets[i], offsets[i]+2^f_i), and rank r in that segment denotes the
// edge mask base_i ∪ spread(r − offsets[i]) where spread places the k-th bit
// of the local rank on the k-th lowest free edge slot. Each model element is
// YIELDED exactly once — by the lowest-indexed generator contained in it —
// so the union over any partition of [0, Size()) into rank ranges visits
// every closure element exactly once, with no shared seen-set. That makes
// the enumeration shardable: workers scan disjoint rank ranges and never
// coordinate.
//
// Edge masks are bits.Words (bit u·n+v = edge u→v), so the enumeration is
// not limited to the 8 processes a single machine word supports; the only
// limit is the configurable rank-space budget.
type Enumeration struct {
	n       int
	bases   []bits.Words // per generator: non-loop edge mask
	free    [][]int32    // per generator: absent edge-bit positions, ascending
	offsets []int64      // segment starts; offsets[len(bases)] = Size()
}

// Enumeration builds the streaming enumerator for the model's closure. It
// fails when the rank space Σ 2^(missing edges) exceeds the budget — the
// closure itself can never be larger than the rank space.
func (m *ClosedAbove) Enumeration() (*Enumeration, error) {
	budget := EnumerationBudget()
	e := &Enumeration{n: m.n, offsets: make([]int64, 1, len(m.gens)+1)}
	var total int64
	for _, g := range m.gens {
		base := edgeWords(g)
		free := freeEdgePositions(m.n, base)
		if len(free) > 62 {
			return nil, fmt.Errorf("model: generator with %d missing edges: segment ranks exceed int64, unenumerable at any budget", len(free))
		}
		if int64(1)<<uint(len(free)) > budget-total {
			return nil, &EnumerationBudgetError{Budget: budget, Required: total + int64(1)<<uint(len(free))}
		}
		total += int64(1) << uint(len(free))
		e.bases = append(e.bases, base)
		e.free = append(e.free, free)
		e.offsets = append(e.offsets, total)
	}
	return e, nil
}

// Size returns the rank-space size Σ 2^(missing edges): an upper bound on
// the closure size, attained exactly when the model is simple.
func (e *Enumeration) Size() int64 { return e.offsets[len(e.offsets)-1] }

// N returns the number of processes.
func (e *Enumeration) N() int { return e.n }

// RangeMasks calls yield on every closure element whose rank lies in
// [lo, hi), in ascending rank order, as a non-loop edge mask (bit u·n+v).
// The mask buffer is reused between calls; yield must copy it to retain it.
// Enumeration stops early if yield returns false; RangeMasks reports whether
// it ran to completion. This is the fast path: no graph.Digraph (or any
// other allocation) per element.
func (e *Enumeration) RangeMasks(lo, hi int64, yield func(mask bits.Words) bool) bool {
	if lo < 0 {
		lo = 0
	}
	if hi > e.Size() {
		hi = e.Size()
	}
	mask := bits.NewWords(e.n * e.n)
	for i := range e.bases {
		segLo, segHi := e.offsets[i], e.offsets[i+1]
		if hi <= segLo || lo >= segHi {
			continue
		}
		from, to := segLo, segHi
		if lo > from {
			from = lo
		}
		if hi < to {
			to = hi
		}
		free := e.free[i]
		for r := from - segLo; r < to-segLo; r++ {
			mask.CopyFrom(e.bases[i])
			for t := uint64(r); t != 0; t &= t - 1 {
				mask.SetBit(int(free[mathbits.TrailingZeros64(t)]))
			}
			if !e.ownedBySegment(i, mask) {
				continue
			}
			if !yield(mask) {
				return false
			}
		}
	}
	return true
}

// ownedBySegment reports whether segment i is the canonical owner of mask:
// no lower-indexed generator is contained in it. This replaces the seed's
// shared seen-map dedup and is what makes disjoint rank ranges
// independently enumerable.
func (e *Enumeration) ownedBySegment(i int, mask bits.Words) bool {
	for j := 0; j < i; j++ {
		if mask.ContainsAll(e.bases[j]) {
			return false
		}
	}
	return true
}

// RangeGraphs is RangeMasks materialized: yield receives each closure
// element in [lo, hi) as a freshly built graph.Digraph.
func (e *Enumeration) RangeGraphs(lo, hi int64, yield func(graph.Digraph) bool) (bool, error) {
	rows := make([]bits.Set, e.n)
	var buildErr error
	done := e.RangeMasks(lo, hi, func(mask bits.Words) bool {
		e.maskRows(mask, rows)
		g, err := graph.FromRows(e.n, rows)
		if err != nil {
			buildErr = err
			return false
		}
		return yield(g)
	})
	return done, buildErr
}

// maskRows unpacks an edge mask into per-process adjacency rows (self-loops
// excluded; FromRows adds them).
func (e *Enumeration) maskRows(mask bits.Words, rows []bits.Set) {
	n := e.n
	for u := 0; u < n; u++ {
		rows[u] = 0
	}
	mask.ForEachBit(func(bit int) {
		rows[bit/n] = rows[bit/n].With(bit % n)
	})
}

// edgeWords packs the non-loop edges of g into a Words mask (bit u·n+v).
func edgeWords(g graph.Digraph) bits.Words {
	n := g.N()
	mask := bits.NewWords(n * n)
	for u := 0; u < n; u++ {
		g.Out(u).ForEach(func(v int) {
			if v != u {
				mask.SetBit(u*n + v)
			}
		})
	}
	return mask
}

// freeEdgePositions returns the non-loop edge-bit positions absent from
// base, in ascending order.
func freeEdgePositions(n int, base bits.Words) []int32 {
	var free []int32
	for u := 0; u < n; u++ {
		for v := 0; v < n; v++ {
			if u != v && !base.Has(u*n+v) {
				free = append(free, int32(u*n+v))
			}
		}
	}
	return free
}

// EnumerateGraphs calls yield on every graph of the model exactly once (the
// union of the upward closures of the generators), in ascending enumeration
// rank, stopping early if yield returns false. Models whose rank space
// exceeds the enumeration budget are rejected; a cancelled enumeration
// returns the context's cause (see EnumerateRange).
func (m *ClosedAbove) EnumerateGraphs(ctx context.Context, yield func(graph.Digraph) bool) error {
	return m.EnumerateRange(ctx, 0, math.MaxInt64, yield)
}

// enumPollMask: ctx-aware enumeration loops poll cancellation every
// enumPollMask+1 ranks — frequent enough that a cancelled sweep stops well
// within one shard, rare enough that the atomic load never shows up in
// profiles.
const enumPollMask = 1023

// EnumerateRange calls yield on the closure elements with enumeration ranks
// in [lo, hi) — the shard API: the union of EnumerateRange over any
// partition of [0, EnumerationSize()) equals EnumerateGraphs, with each
// graph yielded exactly once by exactly one shard. Cancellation or deadline
// expiry of ctx stops the scan within ~1k ranks and returns the context's
// cause.
func (m *ClosedAbove) EnumerateRange(ctx context.Context, lo, hi int64, yield func(graph.Digraph) bool) error {
	e, err := m.Enumeration()
	if err != nil {
		return err
	}
	if ctx.Err() != nil {
		// Already expired: the async Bind watcher could lose the race
		// against a fast scan, so reject synchronously.
		return fmt.Errorf("model: enumeration aborted: %w", context.Cause(ctx))
	}
	ctl := &par.Ctl{}
	release := ctl.Bind(ctx)
	defer release()
	seen := int64(0)
	cancelled := false
	_, err = e.RangeGraphs(lo, hi, func(g graph.Digraph) bool {
		if seen&enumPollMask == 0 && ctl.Stopped() {
			cancelled = true
			return false
		}
		seen++
		return yield(g)
	})
	if err != nil {
		return err
	}
	if cancelled || ctl.Stopped() {
		return fmt.Errorf("model: enumeration aborted: %w", context.Cause(ctx))
	}
	return nil
}

// EnumerationSize returns the model's rank-space size (see Enumeration).
func (m *ClosedAbove) EnumerationSize() (int64, error) {
	e, err := m.Enumeration()
	if err != nil {
		return 0, err
	}
	return e.Size(), nil
}

// AllGraphs is AllGraphsCtx on context.Background(), kept for perfbench.
func (m *ClosedAbove) AllGraphs() ([]graph.Digraph, error) {
	return m.AllGraphsCtx(context.Background())
}

// AllGraphsCtx materializes the full closure, fanning the enumeration out
// across the par worker pool. Shard results are concatenated in shard order,
// so the slice is in ascending enumeration rank — identical to a sequential
// EnumerateGraphs collect, regardless of parallelism. Cancellation stops
// every shard scanner within ~1k ranks (in-flight shards) or at the next
// shard boundary (queued shards) and returns the cause instead of a partial
// closure.
func (m *ClosedAbove) AllGraphsCtx(ctx context.Context) ([]graph.Digraph, error) {
	e, err := m.Enumeration()
	if err != nil {
		return nil, err
	}
	total := e.Size()
	shards := par.NumShards(total)
	if shards <= 1 {
		var all []graph.Digraph
		if err := m.EnumerateRange(ctx, 0, total, func(g graph.Digraph) bool {
			all = append(all, g)
			return true
		}); err != nil {
			return nil, err
		}
		return all, nil
	}
	locals := make([][]graph.Digraph, shards)
	errs := make([]error, shards)
	ctl := &par.Ctl{}
	if err := par.ForEachShardN(ctx, total, shards, ctl, func(shard int, from, to int64, c *par.Ctl) {
		var out []graph.Digraph
		seen := int64(0)
		_, errs[shard] = e.RangeGraphs(from, to, func(g graph.Digraph) bool {
			if seen&enumPollMask == 0 && c.Stopped() {
				return false
			}
			seen++
			out = append(out, g)
			return true
		})
		locals[shard] = out
	}); err != nil {
		return nil, fmt.Errorf("model: enumeration aborted: %w", err)
	}
	if ctl.Stopped() {
		return nil, fmt.Errorf("model: enumeration aborted: %w", context.Cause(ctx))
	}
	n := 0
	for shard, local := range locals {
		if errs[shard] != nil {
			return nil, errs[shard]
		}
		n += len(local)
	}
	all := make([]graph.Digraph, 0, n)
	for _, local := range locals {
		all = append(all, local...)
	}
	return all, nil
}

// GraphCountClosedForm returns |⋃_i ↑G_i| by inclusion–exclusion over the
// generator bases: Σ_{∅≠T⊆S} (−1)^{|T|+1} 2^{missing(⋃T)}. It needs no
// enumeration at all (and so no budget), which makes it the independent
// cross-check for the branching count and the streaming enumeration; it is
// exponential in the number of generators instead, so |S| ≤ 22 and ≤ 40
// missing edges per term.
func (m *ClosedAbove) GraphCountClosedForm() (int64, error) {
	k := len(m.gens)
	if k > 22 {
		return 0, fmt.Errorf("model: closed-form count supports ≤22 generators, got %d", k)
	}
	bases := make([]bits.Words, k)
	for i, g := range m.gens {
		bases[i] = edgeWords(g)
	}
	clique := m.n * (m.n - 1)
	union := bits.NewWords(m.n * m.n)
	var count int64
	for t := uint64(1); t < uint64(1)<<uint(k); t++ {
		union.Clear()
		for s := t; s != 0; s &= s - 1 {
			union.OrInto(bases[mathbits.TrailingZeros64(s)])
		}
		missing := clique - union.OnesCount()
		if missing > 40 {
			return 0, fmt.Errorf("model: closed-form term with %d missing edges overflows", missing)
		}
		term := int64(1) << uint(missing)
		if mathbits.OnesCount64(t)%2 == 1 {
			count += term
		} else {
			count -= term
		}
	}
	return count, nil
}
