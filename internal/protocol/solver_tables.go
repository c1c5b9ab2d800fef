package protocol

import (
	mathbits "math/bits"
	"slices"
	"sort"

	"ksettop/internal/bits"
)

// This file is the table-build layer of the decision-map solver: it turns
// the assignments × in-set-list rank space into the flat, read-only search
// tables (interned views, execution constraints, CSR adjacency, initial
// domains, static value order) that both search engines consume. One
// sequential sweep interns each view once and writes one constraint per
// rank, in rank order, so the tables — and therefore the search — are
// identical for every parallelism setting.
//
// Constraints need no deduplication. Every graph carries all self-loops, so
// the views of one constraint together record the whole assignment, and two
// ranks under different assignments never share a constraint. Under one
// assignment a view's support is its in-set, so distinct in-set lists give
// distinct view lists, and newSolveInput has already deduplicated the
// lists. Every rank is therefore a distinct constraint.

// solveTables is the immutable context of one solve: shared read-only by
// the sequential oracle, the probe phase and every parallel subtree task.
type solveTables struct {
	k         int
	numValues int
	// views are the interned flattened views, in first-encounter rank order.
	views []View
	// consOffs/consViews list the execution constraints in CSR form, one per
	// rank: constraint c touches the distinct view ids
	// consViews[consOffs[c]:consOffs[c+1]], ascending.
	consOffs  []int32
	consViews []int32
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

// numCons returns the number of execution constraints.
func (t *solveTables) numCons() int { return len(t.consOffs) - 1 }

// assembleTables builds the flat search tables from the interned views and
// the constraint CSR.
func assembleTables(k, numValues int, views []View, consOffs, consViews []int32) *solveTables {
	veStarts := make([]int32, len(views)+1)
	for _, id := range consViews {
		veStarts[id+1]++
	}
	for i := 1; i < len(veStarts); i++ {
		veStarts[i] += veStarts[i-1]
	}
	veData := make([]int32, len(consViews))
	fill := make([]int32, len(views))
	for c := range len(consOffs) - 1 {
		for _, id := range consViews[consOffs[c]:consOffs[c+1]] {
			veData[veStarts[id]+fill[id]] = int32(c)
			fill[id]++
		}
	}

	initDomains := make([]uint16, len(views))
	support := make([]int, numValues)
	for i, v := range views {
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
		views:       views,
		consOffs:    consOffs,
		consViews:   consViews,
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
	// lists holds each distinct sorted in-set-id list once, in
	// first-occurrence graph order.
	lists *listSet
}

// tablePollRanks is how many ranks the table build scans between
// cancellation polls: par's sequential threshold, so a cancelled build stops
// within the work of one unsharded sweep.
const tablePollRanks = 4096

// buildSolveTables interns the views of the rank space [0, total), where
// rank r denotes assignment r/L applied to list r%L of the L lists, and
// writes constraint r's sorted view ids into the CSR consOffs/consViews,
// scanning in ascending rank order. Both slices are presized, so the sweep
// never grows them; the caller has checked that the entries fit int32
// offsets. It polls stop every tablePollRanks ranks and returns nil slices
// once stop reports true.
func buildSolveTables(in solveInput, total int64, stop func() bool) (views []View, consOffs, consViews []int32) {
	vi := newViewIntern(in.n)
	assignment := make([]Value, in.n)
	viewOfInSet := make([]int32, len(in.inSets))
	refresh := func() {
		for s, inSet := range in.inSets {
			viewOfInSet[s] = vi.intern(inSet, assignment)
		}
	}
	refresh()
	L := int64(in.lists.count())
	consOffs = make([]int32, 1, total+1)
	consViews = make([]int32, 0, (total+L-1)/L*int64(len(in.lists.arena)))
	li := int64(0)
	for r := int64(0); r < total; r++ {
		if r%tablePollRanks == 0 && stop() {
			return nil, nil, nil
		}
		start := len(consViews)
		for _, s := range in.lists.get(int32(li)) {
			consViews = append(consViews, viewOfInSet[s])
		}
		consViews = consViews[:start+len(sortDedupInt32(consViews[start:]))]
		consOffs = append(consOffs, int32(len(consViews)))
		li++
		if li == L {
			li = 0
			if r+1 < total {
				incCounter(assignment, in.numValues)
				refresh()
			}
		}
	}
	return vi.views, consOffs, consViews
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

// listSet is a hash SET of sorted int32 lists, open-addressed like
// viewIntern, with contents stored in one flat arena. newSolveInput dedups
// the graphs' in-set-id lists through it.
type listSet struct {
	mask   uint64
	slots  []int32 // list index + 1, 0 = empty
	hashes []uint64
	arena  []int32
	offs   []int32 // list c = arena[offs[c]:offs[c+1]]
}

func newListSet() *listSet {
	const initial = 256
	return &listSet{
		mask:  initial - 1,
		slots: make([]int32, initial),
		offs:  []int32{0},
	}
}

func (ls *listSet) get(c int32) []int32 {
	return ls.arena[ls.offs[c]:ls.offs[c+1]]
}

// count returns the number of distinct lists.
func (ls *listSet) count() int { return len(ls.offs) - 1 }

// insert adds ids (sorted, unique) unless it is present.
func (ls *listSet) insert(ids []int32) {
	h := bits.Hash64Seed()
	for _, id := range ids {
		h = bits.Hash64Mix(h, uint64(id))
	}
	idx := h & ls.mask
	for {
		slot := ls.slots[idx]
		if slot == 0 {
			break
		}
		c := slot - 1
		if ls.hashes[c] == h && slices.Equal(ls.get(c), ids) {
			return
		}
		idx = (idx + 1) & ls.mask
	}
	c := int32(len(ls.offs) - 1)
	ls.arena = append(ls.arena, ids...)
	ls.offs = append(ls.offs, int32(len(ls.arena)))
	ls.hashes = append(ls.hashes, h)
	ls.slots[idx] = c + 1
	if uint64(len(ls.hashes))*4 > (ls.mask+1)*3 {
		ls.grow()
	}
}

func (ls *listSet) grow() {
	ls.mask = (ls.mask+1)*2 - 1
	ls.slots = make([]int32, ls.mask+1)
	for c, h := range ls.hashes {
		idx := h & ls.mask
		for ls.slots[idx] != 0 {
			idx = (idx + 1) & ls.mask
		}
		ls.slots[idx] = int32(c) + 1
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
