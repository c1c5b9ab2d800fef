package protocol

import (
	mathbits "math/bits"
	"slices"
	"sort"

	"ksettop/internal/bits"
)

// This file is the table-build layer of the decision-map solver: it turns
// the assignments × in-set-list rank space into the flat, read-only search
// tables (interned views, deduplicated execution constraints, CSR
// adjacency, initial domains, static value order) that both search engines
// consume. One sequential sweep interns each view and constraint exactly
// once in rank order, so the tables — and therefore the search — are
// identical for every parallelism setting.

// solveTables is the immutable context of one solve: shared read-only by
// the sequential oracle, the probe phase and every parallel subtree task.
type solveTables struct {
	k         int
	numValues int
	// views are the interned flattened views, in first-encounter rank order.
	views []View
	// execViews lists, per execution constraint, the distinct view ids it
	// touches (sorted ascending).
	execViews [][]int32
	// veStarts/veData is the transpose in CSR form: view v touches
	// constraints veData[veStarts[v]:veStarts[v+1]], ascending.
	veStarts []int32
	veData   []int32
	// initDomains holds, per view, the bitmask of values present in it —
	// the WLOG candidate decisions.
	initDomains []uint16
	// valueOrder is the static branch order of values: descending number of
	// supporting views, ties broken by ascending value. Both engines branch
	// in this order, which is what makes the "lexicographically-first
	// witness" well-defined and engine-independent.
	valueOrder []Value
}

// assembleTables builds the flat search tables from the interned views and
// constraints.
func assembleTables(k, numValues int, views *viewIntern, constraints *constraintIntern) *solveTables {
	numCons := constraints.count()
	execViews := make([][]int32, numCons)
	for c := range execViews {
		execViews[c] = constraints.get(int32(c))
	}
	veStarts := make([]int32, len(views.views)+1)
	for _, ids := range execViews {
		for _, id := range ids {
			veStarts[id+1]++
		}
	}
	for i := 1; i < len(veStarts); i++ {
		veStarts[i] += veStarts[i-1]
	}
	veData := make([]int32, veStarts[len(veStarts)-1])
	fill := make([]int32, len(views.views))
	for c, ids := range execViews {
		for _, id := range ids {
			veData[veStarts[id]+fill[id]] = int32(c)
			fill[id]++
		}
	}

	initDomains := make([]uint16, len(views.views))
	support := make([]int, numValues)
	for i, v := range views.views {
		var dom uint16
		for _, val := range v {
			if val != NoValue {
				dom |= 1 << uint(val)
			}
		}
		initDomains[i] = dom
		for t := dom; t != 0; t &= t - 1 {
			support[mathbits.TrailingZeros16(t)]++
		}
	}
	valueOrder := make([]Value, numValues)
	for i := range valueOrder {
		valueOrder[i] = i
	}
	sort.SliceStable(valueOrder, func(a, b int) bool {
		return support[valueOrder[a]] > support[valueOrder[b]]
	})

	return &solveTables{
		k:           k,
		numValues:   numValues,
		views:       views.views,
		execViews:   execViews,
		veStarts:    veStarts,
		veData:      veData,
		initDomains: initDomains,
		valueOrder:  valueOrder,
	}
}

// decisionMap materializes the solver's witness: the interned views mapped
// to their decided values.
func (t *solveTables) decisionMap(decided []Value) *DecisionMap {
	table := make(map[string]Value, len(t.views))
	for id, v := range t.views {
		table[ViewKey(v)] = decided[id]
	}
	return &DecisionMap{R: 1, Table: table}
}

// litKey packs the decision literal "view decides val" into one int32; the
// same key indexes the nogood occurrence lists.
func litKey(view int, val Value, numValues int) int32 {
	return int32(view*numValues + int(val))
}

// solveInput is the read-only context of one table-building sweep.
type solveInput struct {
	n         int
	numValues int
	inSets    []bits.Set
	execLists [][]int32
}

// tablePollRanks is how many ranks the table build scans between
// cancellation polls: par's sequential threshold, so a cancelled build stops
// within the work of one unsharded sweep.
const tablePollRanks = 4096

// buildSolveTables interns the views and execution constraints of the rank
// space [0, total), where rank r denotes assignment r/len(execLists) applied
// to list r%len(execLists), scanning in ascending rank order. It polls stop
// every tablePollRanks ranks and returns nil tables once stop reports true.
func buildSolveTables(in solveInput, total int64, stop func() bool) (*viewIntern, *constraintIntern) {
	views := newViewIntern(in.n)
	constraints := newConstraintIntern()
	assignment := make([]Value, in.n)
	viewOfInSet := make([]int32, len(in.inSets))
	refresh := func() {
		for s, inSet := range in.inSets {
			viewOfInSet[s] = views.intern(inSet, assignment)
		}
	}
	refresh()
	scratch := make([]int32, 0, in.n)
	L := int64(len(in.execLists))
	li := int64(0)
	for r := int64(0); r < total; r++ {
		if r%tablePollRanks == 0 && stop() {
			return nil, nil
		}
		ids := scratch[:0]
		for _, s := range in.execLists[li] {
			ids = append(ids, viewOfInSet[s])
		}
		constraints.insert(sortDedupInt32(ids))
		li++
		if li == L {
			li = 0
			if r+1 < total {
				incCounter(assignment, in.numValues)
				refresh()
			}
		}
	}
	return views, constraints
}

// viewIntern deduplicates flattened views through an open-addressed hash
// table. Probing compares full view contents, so hash collisions are
// harmless; a View is allocated only for each DISTINCT view.
type viewIntern struct {
	n       int
	mask    uint64  // table length − 1 (power of two)
	slots   []int32 // view id + 1, 0 = empty
	views   []View
	hashes  []uint64
	scratch View
}

func newViewIntern(n int) *viewIntern {
	const initial = 256
	return &viewIntern{
		n:       n,
		mask:    initial - 1,
		slots:   make([]int32, initial),
		scratch: make(View, n),
	}
}

// intern flattens (in, assignment) into the scratch view and returns the id
// of the equal interned view, inserting it first if new.
func (vi *viewIntern) intern(in bits.Set, assignment []Value) int32 {
	v := vi.scratch
	for i := range v {
		v[i] = NoValue
	}
	for t := uint64(in); t != 0; t &= t - 1 {
		q := mathbits.TrailingZeros64(t)
		v[q] = assignment[q]
	}
	h := bits.Hash64Seed()
	for _, val := range v {
		h = bits.Hash64Mix(h, uint64(val+1))
	}
	idx := h & vi.mask
	for {
		slot := vi.slots[idx]
		if slot == 0 {
			break
		}
		id := slot - 1
		if vi.hashes[id] == h && viewsEqual(vi.views[id], v) {
			return id
		}
		idx = (idx + 1) & vi.mask
	}
	return vi.insertAt(idx, v.Clone(), h)
}

func (vi *viewIntern) insertAt(idx uint64, v View, h uint64) int32 {
	id := int32(len(vi.views))
	vi.views = append(vi.views, v)
	vi.hashes = append(vi.hashes, h)
	vi.slots[idx] = id + 1
	if uint64(len(vi.views))*4 > (vi.mask+1)*3 {
		vi.grow()
	}
	return id
}

func (vi *viewIntern) grow() {
	vi.mask = (vi.mask+1)*2 - 1
	vi.slots = make([]int32, vi.mask+1)
	for id, h := range vi.hashes {
		idx := h & vi.mask
		for vi.slots[idx] != 0 {
			idx = (idx + 1) & vi.mask
		}
		vi.slots[idx] = int32(id) + 1
	}
}

// constraintIntern is a hash SET of sorted view-id lists, open-addressed
// like viewIntern, with contents stored in one flat arena.
type constraintIntern struct {
	mask   uint64
	slots  []int32 // constraint index + 1, 0 = empty
	hashes []uint64
	arena  []int32
	offs   []int32 // constraint c = arena[offs[c]:offs[c+1]]
}

func newConstraintIntern() *constraintIntern {
	const initial = 256
	return &constraintIntern{
		mask:  initial - 1,
		slots: make([]int32, initial),
		offs:  []int32{0},
	}
}

func (ci *constraintIntern) get(c int32) []int32 {
	return ci.arena[ci.offs[c]:ci.offs[c+1]]
}

// count returns the number of interned lists.
func (ci *constraintIntern) count() int { return len(ci.offs) - 1 }

// insert reports whether ids (sorted, unique) was absent, adding it if so.
func (ci *constraintIntern) insert(ids []int32) bool {
	h := bits.Hash64Seed()
	for _, id := range ids {
		h = bits.Hash64Mix(h, uint64(id))
	}
	idx := h & ci.mask
	for {
		slot := ci.slots[idx]
		if slot == 0 {
			break
		}
		c := slot - 1
		if ci.hashes[c] == h && slices.Equal(ci.get(c), ids) {
			return false
		}
		idx = (idx + 1) & ci.mask
	}
	c := int32(len(ci.offs) - 1)
	ci.arena = append(ci.arena, ids...)
	ci.offs = append(ci.offs, int32(len(ci.arena)))
	ci.hashes = append(ci.hashes, h)
	ci.slots[idx] = c + 1
	if uint64(len(ci.hashes))*4 > (ci.mask+1)*3 {
		ci.grow()
	}
	return true
}

func (ci *constraintIntern) grow() {
	ci.mask = (ci.mask+1)*2 - 1
	ci.slots = make([]int32, ci.mask+1)
	for c, h := range ci.hashes {
		idx := h & ci.mask
		for ci.slots[idx] != 0 {
			idx = (idx + 1) & ci.mask
		}
		ci.slots[idx] = int32(c) + 1
	}
}

// sortDedupInt32 sorts ids in place (insertion sort; callers pass at most
// one entry per process) and drops adjacent duplicates.
func sortDedupInt32(ids []int32) []int32 {
	for i := 1; i < len(ids); i++ {
		for j := i; j > 0 && ids[j] < ids[j-1]; j-- {
			ids[j], ids[j-1] = ids[j-1], ids[j]
		}
	}
	out := ids[:0]
	for i, id := range ids {
		if i == 0 || id != ids[i-1] {
			out = append(out, id)
		}
	}
	return out
}
