package protocol

import mathbits "math/bits"

// This file is the state layer of the decision-map solver: the
// forward-checking backtracking state shared by both search engines, the
// reason bookkeeping that conflict analysis resolves into decision-literal
// nogoods, and the bounded nogood (conflict-clause) store.

// nogoodStore is a bounded set of learned conflict clauses. A clause is a
// set of decision literals (litKey-packed view/value pairs) that cannot all
// hold in any solution — the product of conflict analysis resolving a dead
// end back to the decisions that caused it. The store is append-only up to
// maxClauses (first-learned kept, deterministic); later clauses are dropped.
// Occurrence lists index clauses by literal so assignment can maintain
// per-clause matched-literal counters.
//
// Sharing discipline: the probe phase writes the shared store; once the
// parallel phase starts it is frozen and read concurrently by every worker
// (read-mostly by construction — no synchronization needed). Each subtree
// task learns into its own private store on top.
type nogoodStore struct {
	numValues  int
	maxClauses int
	lens       []int32           // literal count per clause
	litOffs    []int32           // clause c = lits[litOffs[c]:litOffs[c+1]]
	lits       []int32           // flat literal arena
	hasAny     []bool            // view -> appears in some clause (cheap filter)
	occ        map[int32][]int32 // literal key -> clause ids
}

func newNogoodStore(numViews, numValues, maxClauses int) *nogoodStore {
	return &nogoodStore{
		numValues:  numValues,
		maxClauses: maxClauses,
		litOffs:    []int32{0},
		hasAny:     make([]bool, numViews),
		occ:        make(map[int32][]int32),
	}
}

// count returns the number of recorded clauses.
func (ng *nogoodStore) count() int { return len(ng.lens) }

// clause returns the literal keys of clause c.
func (ng *nogoodStore) clause(c int32) []int32 {
	return ng.lits[ng.litOffs[c]:ng.litOffs[c+1]]
}

// add records keys as a clause, reporting whether it was stored (clauses
// beyond the store bound or length cap are dropped — the search stays
// sound, just prunes less).
func (ng *nogoodStore) add(keys []int32) bool {
	if len(keys) == 0 || len(keys) > maxNogoodLen || len(ng.lens) >= ng.maxClauses {
		return false
	}
	c := int32(len(ng.lens))
	ng.lens = append(ng.lens, int32(len(keys)))
	ng.lits = append(ng.lits, keys...)
	ng.litOffs = append(ng.litOffs, int32(len(ng.lits)))
	for _, key := range keys {
		ng.occ[key] = append(ng.occ[key], c)
		ng.hasAny[int(key)/ng.numValues] = true
	}
	return true
}

// conflictKind tags what assign tripped over, so conflict analysis knows
// which reason chain to unwind.
type conflictKind int8

const (
	conflictNone conflictKind = iota
	// conflictExec: execution conflictID accumulated k+1 distinct values.
	conflictExec
	// conflictView: view conflictID lost its whole domain (or an implied
	// value was gone / contradicted by the time it was applied).
	conflictView
	// conflictClause: a learned clause became fully matched; conflictID is
	// the global clause index (frozen clauses first, then local).
	conflictClause
)

// cspState is the forward-checking backtracking state of the decision-map
// search. The single inference rule: once an execution has k distinct
// decided values, every unassigned view in it must decide within that set
// (its domain intersects the execution's value mask); empty domains prune,
// singleton domains propagate. On top of that, the matched-literal counters
// of the frozen and local nogood stores flag a conflict as soon as the
// current assignment covers a learned clause.
//
// Reason bookkeeping for conflict analysis:
//   - firstSetter[e·numValues+v] is the view whose assignment first put
//     value v into execution e's mask. Valid while the count is positive;
//     stale entries are never read (stack discipline: later setters unwind
//     first).
//   - removedBy[u·numValues+v] is the execution whose saturation removed
//     value v from view u's domain. Valid while the value is removed;
//     removals are monotone within a branch, so one live writer each.
//   - isDecision[u] marks branch decisions (and task prefix assumptions),
//     the literals conflict analysis resolves everything back to.
type cspState struct {
	t         *solveTables
	k         int
	numValues int
	decided   []Value
	domains   []uint16
	counts    []int32 // flat [execution][value] decision counts
	distinct  []int32
	valueMask []uint16 // per execution: values with count > 0
	// viewExecs in CSR form: view v touches constraint indices
	// veData[veStarts[v]:veStarts[v+1]], ascending.
	veStarts []int32
	veData   []int32
	trail    []trailEntry

	firstSetter []int32
	removedBy   []int32
	isDecision  []bool

	// frozen is the read-only shared clause store (nil for the oracle);
	// learn is this state's private, writable store (nil when learning is
	// off). ngMatched counts currently-assigned literals per clause, frozen
	// clauses first, then learned clauses offset by frozenCount.
	frozen      *nogoodStore
	learn       *nogoodStore
	frozenCount int
	ngMatched   []int32

	// conflict descriptor: the FIRST conflict the latest failing assign
	// detected.
	conflict   conflictKind
	conflictID int32

	// frameOf[u] is the search-frame index of decision view u (-1 for
	// implied views and task prefix assumptions); seen/seenEpoch dedup the
	// conflict-analysis worklist.
	frameOf   []int32
	seen      []int32
	seenEpoch int32

	// factsMark is the trail length right after propagateFacts — the reset
	// point for pooled task states.
	factsMark int
}

// newCSPState builds a fresh search state over the shared tables. frozen is
// consulted read-only; learn receives clauses recorded via learnNogood.
func newCSPState(t *solveTables, frozen, learn *nogoodStore) *cspState {
	numViews, numCons := len(t.views), t.numCons()
	s := &cspState{
		t:           t,
		k:           t.k,
		numValues:   t.numValues,
		decided:     make([]Value, numViews),
		domains:     append([]uint16(nil), t.initDomains...),
		counts:      make([]int32, numCons*t.numValues),
		distinct:    make([]int32, numCons),
		valueMask:   make([]uint16, numCons),
		veStarts:    t.veStarts,
		veData:      t.veData,
		firstSetter: make([]int32, numCons*t.numValues),
		removedBy:   make([]int32, numViews*t.numValues),
		isDecision:  make([]bool, numViews),
		frozen:      frozen,
		learn:       learn,
		frameOf:     make([]int32, numViews),
		seen:        make([]int32, numViews),
	}
	for i := range s.decided {
		s.decided[i] = NoValue
		s.frameOf[i] = -1
	}
	if frozen != nil {
		s.frozenCount = frozen.count()
	}
	n := s.frozenCount
	if learn != nil {
		n += learn.count()
	}
	if n > 0 {
		s.ngMatched = make([]int32, n)
	}
	return s
}

// resetForTask returns a recycled state to its post-fact-propagation
// condition (mark = the trail length right after propagateFacts) with a
// fresh private clause store. The caller must have let the previous task
// finish normally (every search path unwinds fully except a found witness,
// which the task copies out before release), so unwinding to the facts
// mark restores domains, counts, masks and the frozen-store matched
// counters exactly; the facts themselves stay assigned — they are implied
// by the instance, identical for every task, and never appear as clause
// literals (a singleton-domain view is never picked as a decision), so
// keeping them costs nothing and saves re-propagating the whole constraint
// table per task. Only the private-store counters need truncating.
func (s *cspState) resetForTask(mark int, learn *nogoodStore) {
	s.unwind(mark)
	s.learn = learn
	s.ngMatched = s.ngMatched[:s.frozenCount]
	s.conflict, s.conflictID = conflictNone, 0
}

type trailEntry struct {
	view      int
	oldDomain uint16
	assigned  bool // true: undo an assignment; false: restore oldDomain
}

// viewExecs returns the constraint indices touching view v.
func (s *cspState) viewExecs(v int) []int32 {
	return s.veData[s.veStarts[v]:s.veStarts[v+1]]
}

// learnNogood records the decision-literal keys as a conflict clause in the
// local store. The caller guarantees every literal is currently assigned,
// so the new clause's matched counter starts fully saturated and unwinds
// symmetrically as the decisions roll back.
func (s *cspState) learnNogood(keys []int32) {
	if s.learn == nil || len(keys) == 0 {
		return
	}
	if s.learn.add(keys) {
		s.ngMatched = append(s.ngMatched, int32(len(keys)))
	}
}

// bumpNogoods adjusts the matched counters of every clause containing the
// literal (v, val) by delta and reports whether some clause became fully
// matched (a conflict), recording the first such clause in the conflict
// descriptor.
func (s *cspState) bumpNogoods(v int, val Value, delta int32) bool {
	conflict := false
	key := litKey(v, val, s.numValues)
	if s.frozen != nil && s.frozen.hasAny[v] {
		lens := s.frozen.lens
		for _, c := range s.frozen.occ[key] {
			s.ngMatched[c] += delta
			if delta > 0 && s.ngMatched[c] == lens[c] && !conflict {
				conflict = true
				s.noteConflict(conflictClause, c)
			}
		}
	}
	if s.learn != nil && s.learn.hasAny[v] {
		off := int32(s.frozenCount)
		lens := s.learn.lens
		for _, c := range s.learn.occ[key] {
			s.ngMatched[off+c] += delta
			if delta > 0 && s.ngMatched[off+c] == lens[c] && !conflict {
				conflict = true
				s.noteConflict(conflictClause, off+c)
			}
		}
	}
	return conflict
}

// noteConflict records the first conflict of the current assign.
func (s *cspState) noteConflict(kind conflictKind, id int32) {
	if s.conflict == conflictNone {
		s.conflict, s.conflictID = kind, id
	}
}

// assign commits view id to value d (asDecision marks it a branch decision
// or prefix assumption for conflict analysis) and runs propagation. It
// reports false on conflict, leaving the conflict descriptor set; all state
// changes are recorded on the trail either way.
//
// Bookkeeping is all-or-nothing per assignment: even after a conflict is
// detected, the per-execution count/distinct/mask updates and the nogood
// matched counters run to completion for the assignment being committed, so
// unwind's full-list decrements mirror them exactly. (The seed engine
// returned mid-loop here, leaving partially-incremented counts that unwind
// then fully decremented — counts went negative, later assignments
// double-counted distinct values, and the search pruned on phantom
// conflicts.)
func (s *cspState) assign(id int, d Value, asDecision bool) bool {
	s.conflict, s.conflictID = conflictNone, 0
	queue := [][2]int{{id, int(d)}}
	first := asDecision
	for len(queue) > 0 {
		v, val := queue[0][0], Value(queue[0][1])
		queue = queue[1:]
		if s.decided[v] != NoValue {
			if s.decided[v] != val {
				s.noteConflict(conflictView, int32(v))
				return false
			}
			continue
		}
		if s.domains[v]&(1<<uint(val)) == 0 {
			s.noteConflict(conflictView, int32(v))
			return false
		}
		s.decided[v] = val
		s.isDecision[v] = first
		first = false
		s.trail = append(s.trail, trailEntry{view: v, assigned: true})
		conflict := s.bumpNogoods(v, val, 1)
		for _, e := range s.viewExecs(v) {
			c := &s.counts[int(e)*s.numValues+int(val)]
			*c++
			if *c > 1 {
				continue
			}
			s.firstSetter[int(e)*s.numValues+int(val)] = int32(v)
			s.distinct[e]++
			s.valueMask[e] |= 1 << uint(val)
			if int(s.distinct[e]) > s.k {
				if !conflict {
					conflict = true
					s.noteConflict(conflictExec, e)
				}
				continue
			}
			if conflict || int(s.distinct[e]) < s.k {
				continue
			}
			// Execution e is saturated: restrict its unassigned views.
			for _, u := range s.t.consViews[s.t.consOffs[e]:s.t.consOffs[e+1]] {
				if s.decided[u] != NoValue {
					continue
				}
				nd := s.domains[u] & s.valueMask[e]
				if nd == s.domains[u] {
					continue
				}
				s.trail = append(s.trail, trailEntry{view: int(u), oldDomain: s.domains[u]})
				for rm := s.domains[u] &^ nd; rm != 0; rm &= rm - 1 {
					s.removedBy[int(u)*s.numValues+mathbits.TrailingZeros16(rm)] = e
				}
				s.domains[u] = nd
				switch onesCount16(nd) {
				case 0:
					conflict = true
					s.noteConflict(conflictView, u)
				case 1:
					queue = append(queue, [2]int{int(u), trailingZeros16(nd)})
				}
				if conflict {
					break
				}
			}
		}
		if conflict {
			return false
		}
	}
	return true
}

// unwind rolls the trail back to the given mark.
func (s *cspState) unwind(mark int) {
	for i := len(s.trail) - 1; i >= mark; i-- {
		t := s.trail[i]
		if !t.assigned {
			s.domains[t.view] = t.oldDomain
			continue
		}
		val := s.decided[t.view]
		s.decided[t.view] = NoValue
		s.isDecision[t.view] = false
		s.bumpNogoods(t.view, val, -1)
		for _, e := range s.viewExecs(t.view) {
			c := &s.counts[int(e)*s.numValues+int(val)]
			*c--
			if *c == 0 {
				s.distinct[e]--
				s.valueMask[e] &^= 1 << uint(val)
			}
		}
	}
	s.trail = s.trail[:mark]
}

// propagateFacts assigns every view whose initial domain is a singleton
// (views that see exactly one distinct value). These are implications of
// the instance itself — no decision involved, so conflict analysis resolves
// them to nothing — and committing them once up front keeps them out of
// every branch point. Returns false if the facts alone are contradictory
// (the instance is UNSAT outright).
func (s *cspState) propagateFacts() bool {
	for v, dom := range s.t.initDomains {
		if s.decided[v] != NoValue || onesCount16(dom) != 1 {
			continue
		}
		if !s.assign(v, trailingZeros16(dom), false) {
			return false
		}
	}
	return true
}

// Conflict analysis ----------------------------------------------------------

// analyzeConflict resolves the current conflict descriptor back to the set
// of decision literals that caused it, returned as sorted litKeys — a valid
// nogood. Implied assignments are expanded through their reasons: a forced
// view through the removals that emptied the rest of its domain, each
// removal through the saturated execution's k first-setter views, until
// only decisions (and instance facts, which resolve to nothing) remain.
func (s *cspState) analyzeConflict() []int32 {
	var out []int32
	var work []int32
	s.seenEpoch++
	push := func(w int32) {
		if s.seen[w] != s.seenEpoch {
			s.seen[w] = s.seenEpoch
			work = append(work, w)
		}
	}
	pushExec := func(e int32) {
		for m := s.valueMask[e]; m != 0; m &= m - 1 {
			push(s.firstSetter[int(e)*s.numValues+mathbits.TrailingZeros16(m)])
		}
	}
	// expandRemovals pushes the reasons every currently-removed value of
	// view u is gone.
	expandRemovals := func(u int32) {
		removed := s.t.initDomains[u] &^ s.domains[u]
		for m := removed; m != 0; m &= m - 1 {
			pushExec(s.removedBy[int(u)*s.numValues+mathbits.TrailingZeros16(m)])
		}
	}
	switch s.conflict {
	case conflictExec:
		pushExec(s.conflictID)
	case conflictView:
		u := s.conflictID
		if s.decided[u] != NoValue {
			push(u)
		}
		expandRemovals(u)
	case conflictClause:
		c := s.conflictID
		var keys []int32
		if int(c) < s.frozenCount {
			keys = s.frozen.clause(c)
		} else {
			keys = s.learn.clause(c - int32(s.frozenCount))
		}
		for _, key := range keys {
			push(key / int32(s.numValues))
		}
	default:
		return nil
	}
	for len(work) > 0 {
		w := work[len(work)-1]
		work = work[:len(work)-1]
		if s.isDecision[w] {
			out = append(out, litKey(int(w), s.decided[w], s.numValues))
			continue
		}
		// Implied: forced because every other initial-domain value was
		// removed (instance facts have no other values — they resolve to
		// nothing, ending the chain).
		expandRemovals(w)
	}
	return sortDedupInt32(out)
}

// selectView picks the unassigned view with the smallest domain
// (fail-first, lowest id on ties), or -1 when every view is decided. Both
// engines use this selector, which keeps their branch orders — and
// therefore the witness a SAT search finds first — identical.
func (s *cspState) selectView() int {
	best, bestSize := -1, 17
	for v, d := range s.decided {
		if d != NoValue {
			continue
		}
		size := onesCount16(s.domains[v])
		if size < bestSize {
			best, bestSize = v, size
			if size <= 1 {
				break
			}
		}
	}
	return best
}

func onesCount16(x uint16) int { return mathbits.OnesCount16(x) }

func trailingZeros16(x uint16) int { return mathbits.TrailingZeros16(x) }
