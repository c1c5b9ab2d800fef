package model

import (
	"context"
	"encoding/binary"
	"fmt"
	"math"
	mathbits "math/bits"
	"slices"
	"sort"

	"ksettop/internal/bits"
	"ksettop/internal/par"
)

// countNodeBudget caps the branching nodes one closure count may charge,
// and with them its time and its memo. The count is exponential in the
// worst case: nonsplit:n=5 (1327 generators) charges 2468 nodes, the
// 6-process cycle model 411k (about 0.8 s and 70 MB of memo on a 2-CPU
// machine), the largest known model the cap admits.
const countNodeBudget = 1 << 20

// GraphCountCtx returns the number of graphs in the model, |⋃_{G∈S} ↑G|,
// by branching on edges (see countEdgeMasks) instead of enumerating the
// closure, so it needs no enumeration budget. The result is memoized per
// generator set. A cancelled count returns the cause and caches nothing; a
// count past the node budget or past int64 fails with an error matching
// ErrEnumerationBudget.
func (m *ClosedAbove) GraphCountCtx(ctx context.Context) (int, error) {
	return countCache.Do(setKey("count", m.gens), func() (int, error) {
		masks := make([]bits.Words, len(m.gens))
		for i, g := range m.gens {
			masks[i] = edgeWords(g)
		}
		count, err := countEdgeMasks(ctx, m.n, masks, countNodeBudget)
		return int(count), err
	})
}

// countEdgeMasks counts the edge sets over the n(n−1) non-loop edges of n
// processes that contain at least one of gens (edge masks, bit u·n+v), a
// monotone DNF count. It branches on the edge e that the most generators
// contain:
//
//	count(S) = count(S with e removed from every generator)  // e present
//	         + count(generators of S without e)              // e absent
//
// Each side is pruned to its minimal generators, edges that no generator
// uses factor out as a power of two, a generator left empty admits every
// edge set, and sub-counts are memoized on their sorted generator set for
// the length of this one count. Each branching node is charged against
// budget, and ctx is polled every par.PollMask+1 nodes.
func countEdgeMasks(ctx context.Context, n int, gens []bits.Words, budget int) (int64, error) {
	if ctx.Err() != nil {
		return 0, fmt.Errorf("model: closure count aborted: %w", context.Cause(ctx))
	}
	w := len(bits.NewWords(n * n))
	c := &closureCounter{ctx: ctx, w: w, budget: budget, freq: make([]int32, w*64), acc: make([]uint64, w)}
	var set []uint64
	for i, g := range gens {
		if !c.redundant(g, gens, i) {
			set = append(set, g...)
		}
	}
	c.sort(set)
	return c.scaled(set, n*(n-1))
}

// closureCounter is one count's state. A generator set is a flat []uint64
// of w-word edge masks.
type closureCounter struct {
	ctx    context.Context
	w      int
	budget int
	nodes  int
	memo   map[string]int64
	freq   []int32  // per-edge generator counts, zero between pivots
	acc    []uint64 // reused union buffer
}

// errCountOverflow reports a closure too large for the int count.
var errCountOverflow = fmt.Errorf("%w: closure count exceeds int64", ErrEnumerationBudget)

// scaled returns 2^(universe − |⋃set|) · count(set): count covers the
// edges set uses, and every other edge of the universe is free.
func (c *closureCounter) scaled(set []uint64, universe int) (int64, error) {
	v, err := c.count(set)
	if err != nil {
		return 0, err
	}
	free := universe - c.unionSize(set)
	if v > 0 && (free >= 63 || v > math.MaxInt64>>free) {
		return 0, errCountOverflow
	}
	return v << free, nil
}

// count returns the number of edge sets over ⋃set that contain a generator
// of set, a sorted antichain (so every generator holds an edge once there
// are two).
func (c *closureCounter) count(set []uint64) (int64, error) {
	w := c.w
	switch len(set) {
	case 0:
		return 0, nil
	case w:
		return 1, nil // the lone generator spans the universe
	}
	key := make([]byte, 0, 8*len(set))
	for _, x := range set {
		key = binary.LittleEndian.AppendUint64(key, x)
	}
	if v, ok := c.memo[string(key)]; ok {
		return v, nil
	}
	if c.nodes&par.PollMask == 0 && c.ctx.Err() != nil {
		return 0, fmt.Errorf("model: closure count aborted: %w", context.Cause(c.ctx))
	}
	if c.nodes++; c.nodes > c.budget {
		return 0, fmt.Errorf("%w: closure count needs more than %d branching nodes", ErrEnumerationBudget, c.budget)
	}
	universe := c.unionSize(set) - 1 // both branches drop e
	e := c.pivot(set)
	word, bit := e>>6, uint64(1)<<uint(e&63)
	var with, without []uint64
	emptied := false
	for i := 0; i < len(set); i += w {
		g := set[i : i+w]
		if g[word]&bit == 0 {
			without = append(without, g...)
			continue
		}
		with = append(with, g...)
		h := with[len(with)-w:]
		h[word] &^= bit
		emptied = emptied || bits.Words(h).OnesCount() == 0
	}

	// e present: the generators with e lose it. A generator left empty
	// admits every edge set; otherwise those with e stay an antichain, as do
	// those without, but one without e may now contain one that lost it.
	var present int64
	if emptied {
		if universe >= 63 {
			return 0, errCountOverflow
		}
		present = 1 << universe
	} else {
		next := with
		for i := 0; i < len(without); i += w {
			if g := without[i : i+w]; !c.containsAny(g, with) {
				next = append(next, g...)
			}
		}
		c.sort(next)
		var err error
		if present, err = c.scaled(next, universe); err != nil {
			return 0, err
		}
	}
	// e absent: only the generators without e remain, still a sorted
	// antichain.
	absent, err := c.scaled(without, universe)
	if err != nil {
		return 0, err
	}
	if present > math.MaxInt64-absent {
		return 0, errCountOverflow
	}
	if c.memo == nil {
		c.memo = map[string]int64{}
	}
	c.memo[string(key)] = present + absent
	return present + absent, nil
}

// pivot returns the edge that the most generators of set contain, the
// lowest such edge on a tie.
func (c *closureCounter) pivot(set []uint64) int {
	for i, x := range set {
		base := (i % c.w) << 6
		for t := x; t != 0; t &= t - 1 {
			c.freq[base+mathbits.TrailingZeros64(t)]++
		}
	}
	best := 0
	for e, f := range c.freq {
		if f > c.freq[best] {
			best = e
		}
	}
	clear(c.freq)
	return best
}

// unionSize returns |⋃set|.
func (c *closureCounter) unionSize(set []uint64) int {
	clear(c.acc)
	for i, x := range set {
		c.acc[i%c.w] |= x
	}
	return bits.Words(c.acc).OnesCount()
}

// containsAny reports whether g contains a generator of set.
func (c *closureCounter) containsAny(g bits.Words, set []uint64) bool {
	for i := 0; i < len(set); i += c.w {
		if g.ContainsAll(set[i : i+c.w]) {
			return true
		}
	}
	return false
}

// redundant reports whether gens[i] contains another generator, or repeats
// an earlier one.
func (c *closureCounter) redundant(g bits.Words, gens []bits.Words, i int) bool {
	for j, h := range gens {
		if j != i && g.ContainsAll(h) && (j < i || !h.ContainsAll(g)) {
			return true
		}
	}
	return false
}

// sort orders set's generators by their words, the canonical form the memo
// keys on.
func (c *closureCounter) sort(set []uint64) {
	sort.Sort(strided{set, c.w})
}

// strided sorts a flat set of w-word generators lexicographically.
type strided struct {
	set []uint64
	w   int
}

func (s strided) Len() int { return len(s.set) / s.w }
func (s strided) Less(i, j int) bool {
	return slices.Compare(s.set[i*s.w:i*s.w+s.w], s.set[j*s.w:j*s.w+s.w]) < 0
}
func (s strided) Swap(i, j int) {
	for t := 0; t < s.w; t++ {
		s.set[i*s.w+t], s.set[j*s.w+t] = s.set[j*s.w+t], s.set[i*s.w+t]
	}
}
