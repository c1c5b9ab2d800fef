package protocol

import (
	"context"
	"log/slog"
	"sort"
	"sync"
	"sync/atomic"

	"ksettop/internal/checkpoint"
	"ksettop/internal/faultinject"
	"ksettop/internal/obs"
	"ksettop/internal/par"
)

// This file is the parallel engine of the decision-map solver: a sequential
// learning probe with a restart ladder, a deterministic decomposition of
// the top of the search tree into value-branch prefixes, a work-stealing
// sweep of those prefixes over the shared par.Deque, and a rank-ordered
// reduction that makes the reported SolveResult — Solvable, witness Map,
// node statistics and budget errors — byte-identical at every parallelism
// setting.
//
// Determinism argument, in deduction order:
//  1. The probe is sequential and its ladder thresholds are fixed, so its
//     outcome, node count and learned-clause store are schedule-free.
//  2. The shared store is frozen before decomposition; decomposition replays
//     deterministic prefixes against it, so the task list (and prefixNodes)
//     is schedule-free.
//  3. Each task searches its subtree with the frozen store plus a PRIVATE
//     learned store, and splits off sibling prefixes based only on its own
//     node counter — so every task's node count, learned count, outcome and
//     spawned children are schedule-free, no matter which worker runs it or
//     when it is stolen.
//  4. The reduction consumes task records in lexicographic prefix order and
//     stops at the first terminal event (witness or budget trip). Tasks at
//     ranks beyond the current best event are cancelled; by construction
//     they sort after the chosen event, so cancellation timing can never
//     change what the reduction sees.

// Budget configuration ----------------------------------------------------

// defaultNodeBudget is the stock search budget CLI tools and experiments
// use when no -solver-budget is given.
const defaultNodeBudget = 50_000_000

var nodeBudgetOverride atomic.Int64

// DefaultNodeBudget returns the process-wide default solver node budget
// (settable via SetDefaultNodeBudget / the -solver-budget flag).
func DefaultNodeBudget() int {
	if n := nodeBudgetOverride.Load(); n > 0 {
		return int(n)
	}
	return defaultNodeBudget
}

// SetDefaultNodeBudget overrides the default solver node budget; n ≤ 0
// restores the stock value.
func SetDefaultNodeBudget(n int) {
	if n < 0 {
		n = 0
	}
	nodeBudgetOverride.Store(int64(n))
}

// Tuning constants of the parallel engine. These are part of the node
// accounting: changing them changes Nodes/Stats (deterministically), so
// they are compile-time constants, with only the probe limit exposed as a
// knob for tests and benchmarks that need to force the parallel phase on
// small instances.
const (
	// stockProbeLimit bounds the sequential probe phase.
	stockProbeLimit = 1 << 15
	// probeLadderBase is the first restart threshold; each restart
	// quadruples it.
	probeLadderBase = 1 << 12
	// maxSharedNogoods bounds the probe's shared clause store.
	maxSharedNogoods = 1 << 13
	// maxTaskNogoods bounds each subtree task's private store.
	maxTaskNogoods = 1 << 11
	// maxNogoodLen drops clauses longer than this many decisions.
	maxNogoodLen = 16
	// targetTasks is how many value-branch prefixes decomposition aims
	// for. Fixed (NOT derived from Parallelism()) so the task tree — and
	// with it the node accounting — is identical at every worker count.
	targetTasks = 64
	// maxExpansions caps decomposition work when branching is degenerate.
	maxExpansions = 4 * targetTasks
	// splitNodeThreshold: a task that has already spent this many nodes
	// and still faces ≥2 untried value branches along its open frames
	// hands its whole remaining frontier (the depth-first spine) to the
	// deque as fresh prefix tasks.
	splitNodeThreshold = 1 << 10
)

var probeLimitOverride atomic.Int64

// SetSearchProbeLimit overrides the parallel engine's sequential probe
// limit (n ≤ 0 restores the stock value). Results remain deterministic
// across parallelism for any fixed value; node statistics are only
// comparable between runs using the same limit. Intended for tests and
// benchmarks that must force the work-stealing phase on small instances.
func SetSearchProbeLimit(n int) {
	if n < 0 {
		n = 0
	}
	probeLimitOverride.Store(int64(n))
}

func probeLimit() int {
	if n := probeLimitOverride.Load(); n > 0 {
		return int(n)
	}
	return stockProbeLimit
}

// SearchStats breaks the engine's deterministic node accounting down by
// phase. All fields are identical for every parallelism setting; under
// SolveOneRoundSeq they stay zero (SolveResult.Nodes carries the count).
type SearchStats struct {
	// ProbeNodes is the sequential learning probe's node count.
	ProbeNodes int
	// PrefixNodes is the decomposition's branch-point count.
	PrefixNodes int
	// TaskNodes sums the node counts of the task records the rank-ordered
	// reduction consumed (every task on an UNSAT instance; tasks up to the
	// witness on a SAT one).
	TaskNodes int
	// Tasks is the number of task records the reduction consumed.
	Tasks int
	// SharedNogoods is the frozen store's clause count after the probe.
	SharedNogoods int
	// TaskNogoods sums the private clauses learned by consumed tasks.
	TaskNogoods int
}

// Probe phase ----------------------------------------------------------------

type probeOutcome struct {
	status searchStatus // statusSolved | statusRefuted | statusCapped | statusCancelled
	nodes  int
	state  *cspState // holds the witness assignment when solved
}

// probe runs the sequential CBJ search under a restart ladder: each
// attempt's node cap quadruples, conflict clauses persist across restarts
// in the shared store, and the phase ends when the instance is decided or
// the probe limit (or the budget, if smaller) is exhausted. stop, when
// non-nil, aborts the phase with statusCancelled (external cancellation
// only — it never participates in the deterministic accounting of runs
// that complete).
func probe(t *solveTables, shared *nogoodStore, budget int, stop func(nodes int) bool) probeOutcome {
	s := newCSPState(t, nil, shared)
	if !s.propagateFacts() {
		return probeOutcome{status: statusRefuted, state: s}
	}
	if s.selectView() == -1 {
		// The facts alone complete the assignment.
		return probeOutcome{status: statusSolved, state: s}
	}
	limit := probeLimit()
	if budget < limit {
		limit = budget
	}
	used := 0
	ladder := probeLadderBase
	for {
		attempt := ladder
		if rest := limit - used; attempt > rest {
			attempt = rest
		}
		ctx := &cbjCtx{s: s, cap: attempt, stop: stop}
		st := ctx.run()
		used += ctx.nodes
		if st == statusSolved || st == statusRefuted || st == statusCancelled {
			return probeOutcome{status: st, nodes: used, state: s}
		}
		if used >= limit {
			return probeOutcome{status: statusCapped, nodes: used, state: s}
		}
		ladder *= 4
	}
}

// Decomposition --------------------------------------------------------------

// searchTask is one unexplored value-branch prefix of the search tree.
// path is the branch-index route from the root (positions in the static
// value order at each decision), decisions the corresponding litKeys.
type searchTask struct {
	path      []uint8
	decisions []int32
}

type taskStatus int8

const (
	taskCompleted taskStatus = iota // subtree exhaustively refuted
	taskWitness                     // found its lexicographically-first solution
	taskBudget                      // tripped the per-task node cap
	taskCancelled                   // aborted after observing a lower-ranked event
)

// taskRecord is one task's deterministic outcome.
type taskRecord struct {
	path    []uint8
	nodes   int
	learned int
	status  taskStatus
	decided []Value // witness assignment when status == taskWitness
}

// decompose splits the top of the search tree into at least targetTasks
// value-branch prefixes (branching permitting) by breadth-first expansion
// in branch order. Prefixes that complete the assignment during expansion
// become witness records directly. Returns the open prefixes, the records,
// and the number of branch points expanded.
func decompose(t *solveTables, shared *nogoodStore) ([]searchTask, []taskRecord, int) {
	queue := []searchTask{{}}
	var records []taskRecord
	prefixNodes := 0
	s := newCSPState(t, shared, nil)
	if !s.propagateFacts() {
		// Unreachable: the probe refutes fact-level contradictions before
		// the parallel phase starts.
		return nil, nil, 0
	}
	factsMark := len(s.trail)
	for exp := 0; len(queue) > 0 && len(queue) < targetTasks && exp < maxExpansions; exp++ {
		p := queue[0]
		queue = queue[1:]
		if !replayPrefix(s, p.decisions) {
			// Unreachable: the prefix assigned cleanly when it was created
			// and replay against the same frozen store is deterministic;
			// treat as a refuted prefix if it ever fires.
			s.unwind(factsMark)
			continue
		}
		best := s.selectView()
		if best == -1 {
			records = append(records, taskRecord{
				path:    p.path,
				status:  taskWitness,
				decided: append([]Value(nil), s.decided...),
			})
			s.unwind(factsMark)
			continue
		}
		prefixNodes++
		dom := s.domains[best]
		for i, val := range t.valueOrder {
			if dom&(1<<uint(val)) == 0 {
				continue
			}
			mark := len(s.trail)
			if s.assign(best, val, true) {
				child := searchTask{
					path:      append(append([]uint8(nil), p.path...), uint8(i)),
					decisions: append(append([]int32(nil), p.decisions...), litKey(best, val, t.numValues)),
				}
				queue = append(queue, child)
			}
			s.unwind(mark)
		}
		s.unwind(factsMark)
	}
	return queue, records, prefixNodes
}

// replayPrefix re-applies a task's decision prefix (as assumptions) onto a
// state holding only pre-propagated facts, reporting whether every
// assignment succeeded.
func replayPrefix(s *cspState, decisions []int32) bool {
	for _, key := range decisions {
		if !s.assign(int(key)/s.numValues, Value(int(key)%s.numValues), true) {
			return false
		}
	}
	return true
}

// pathLess is the lexicographic order on branch paths (a proper prefix
// sorts before its extensions).
func pathLess(a, b []uint8) bool {
	n := len(a)
	if len(b) < n {
		n = len(b)
	}
	for i := 0; i < n; i++ {
		if a[i] != b[i] {
			return a[i] < b[i]
		}
	}
	return len(a) < len(b)
}

// Work-stealing sweep --------------------------------------------------------

// parallelRun is the shared coordination state of one work-stealing sweep.
type parallelRun struct {
	tables  *solveTables
	shared  *nogoodStore
	taskCap int // per-task node cap (the budget minus probe and prefix nodes)
	budget  int // the full node budget the rank-ordered reduction enforces
	ctl     *par.Ctl

	// statePool recycles cspStates between tasks: the big flat arrays
	// (counts, firstSetter, matched counters) are identical after an
	// unwind to the post-facts mark, so a recycled state only needs a
	// fresh private clause store. Which worker reuses which state is
	// scheduling-dependent, but a reset state is indistinguishable from a
	// fresh one, so results stay deterministic.
	statePool sync.Pool

	mu      sync.Mutex
	records []taskRecord
	// bound is the lexicographically-smallest event path published so far;
	// tasks whose root path sorts after it abort. Stored behind an atomic
	// pointer so the hot cancellation poll is a single load.
	bound atomic.Pointer[[]uint8]

	// Live budget accounting (all under mu). The rank-ordered reduction
	// charges nodes in lexicographic path order, so the sweep can mirror
	// that sum INCREMENTALLY: pending holds the sorted paths of every task
	// queued or running, stash the finished records not yet chargeable, and
	// prefixSum the charged prefix (seeded with probe + decomposition
	// nodes). A record becomes chargeable once no pending task sorts below
	// it — exactly when its position in the final reduction order is
	// settled. The moment the charged prefix crosses the budget, the
	// crossing path is published as the bound, cancelling every
	// strictly-later task: the reduction provably stops at (or before) the
	// crossing record, so those tasks' records were never going to be
	// consumed. This is what fixes the tasks × budget overshoot — the old
	// sweep only detected the aggregate trip after EVERY task had burned
	// its private cap — without touching the deterministic reduction.
	pending   [][]uint8
	stash     []taskRecord
	prefixSum int
	acctDone  bool

	// Checkpoint bookkeeping (under mu). frontier holds every queued or
	// running task by path — exactly the prefixes a resumed run must
	// re-execute; record() retires an entry when its task reaches a
	// deterministic conclusion, but a CANCELLED task stays on the frontier
	// (its outcome is schedule-dependent, so resume re-runs it). known is
	// only set on a resumed sweep: the restored record and frontier paths,
	// consulted by the spawn hook so a re-executed parent does not re-spawn
	// a child the checkpoint already accounted for.
	frontier map[string]searchTask
	known    map[string]bool
}

// addFrontier registers a task as pending (sorted insert for the budget
// accounting) and tracks it on the checkpoint frontier.
func (pr *parallelRun) addFrontier(task searchTask) {
	pr.mu.Lock()
	defer pr.mu.Unlock()
	i := sort.Search(len(pr.pending), func(i int) bool { return !pathLess(pr.pending[i], task.path) })
	pr.pending = append(pr.pending, nil)
	copy(pr.pending[i+1:], pr.pending[i:])
	pr.pending[i] = task.path
	pr.frontier[string(task.path)] = task
}

// frontierSorted returns the open frontier in lexicographic path order for
// deterministic checkpoint encoding. Caller holds pr.mu.
func (pr *parallelRun) frontierSorted() []searchTask {
	out := make([]searchTask, 0, len(pr.frontier))
	for _, task := range pr.frontier {
		out = append(out, task)
	}
	sort.Slice(out, func(i, j int) bool { return pathLess(out[i].path, out[j].path) })
	return out
}

// cancelledFor reports whether a task rooted at path is dominated by an
// already-published event.
func (pr *parallelRun) cancelledFor(path []uint8) bool {
	b := pr.bound.Load()
	return b != nil && pathLess(*b, path)
}

// publishBoundLocked lowers the shared event bound to path (caller holds
// pr.mu or is in single-threaded setup).
func (pr *parallelRun) publishBoundLocked(path []uint8) {
	if cur := pr.bound.Load(); cur == nil || pathLess(path, *cur) {
		p := append([]uint8(nil), path...)
		pr.bound.Store(&p)
	}
}

// record stores a task outcome, removes it from the pending set, publishes
// its path as the new bound when it is a terminal event ranked below the
// current one, and folds newly-chargeable records into the live budget
// accounting.
func (pr *parallelRun) record(r taskRecord) {
	pr.mu.Lock()
	defer pr.mu.Unlock()
	pr.records = append(pr.records, r)
	i := sort.Search(len(pr.pending), func(i int) bool { return !pathLess(pr.pending[i], r.path) })
	if i < len(pr.pending) && !pathLess(r.path, pr.pending[i]) {
		pr.pending = append(pr.pending[:i], pr.pending[i+1:]...)
	}
	if r.status != taskCancelled {
		// Deterministic conclusion reached: the task leaves the checkpoint
		// frontier. Cancelled tasks stay — a resumed run re-executes them.
		delete(pr.frontier, string(r.path))
	}
	if r.status == taskWitness || r.status == taskBudget {
		pr.publishBoundLocked(r.path)
	}
	j := sort.Search(len(pr.stash), func(j int) bool { return !pathLess(pr.stash[j].path, r.path) })
	pr.stash = append(pr.stash, taskRecord{})
	copy(pr.stash[j+1:], pr.stash[j:])
	pr.stash[j] = r
	pr.foldLocked()
}

// foldLocked advances the live budget accounting over every record whose
// reduction position is settled (no pending task sorts below it). It stops
// permanently at the first terminal or cancelled record — the reduction
// stops there too — and publishes the crossing path as the event bound the
// moment the charged prefix exceeds the budget.
func (pr *parallelRun) foldLocked() {
	for !pr.acctDone && len(pr.stash) > 0 {
		r := pr.stash[0]
		if len(pr.pending) > 0 && pathLess(pr.pending[0], r.path) {
			return // a lower-ranked task is still in flight
		}
		pr.stash = pr.stash[1:]
		if r.status != taskCompleted {
			pr.acctDone = true // reduction stops at this record
			return
		}
		pr.prefixSum += r.nodes
		if pr.prefixSum > pr.budget {
			pr.publishBoundLocked(r.path)
			pr.acctDone = true
			return
		}
	}
}

// budgetCrossed is the running-task side of the live accounting, polled
// from a task's stop hook: if the task at path is the LOWEST pending path —
// so the charged prefix below it is final — and its own progress pushes the
// sum past the budget, the task's path becomes the event bound. That
// cancels everything strictly after it; the task itself keeps running to
// its deterministic conclusion (cancelledFor is strict), so the node count
// the reduction charges at the trip is schedule-free. Overshoot is thereby
// bounded by ONE task's private cap instead of tasks × cap.
func (pr *parallelRun) budgetCrossed(path []uint8, nodes int) {
	pr.mu.Lock()
	defer pr.mu.Unlock()
	if pr.acctDone || len(pr.pending) == 0 {
		return
	}
	min := pr.pending[0]
	if pathLess(min, path) || pathLess(path, min) {
		return // not the lowest pending task
	}
	if pr.prefixSum+nodes > pr.budget {
		pr.publishBoundLocked(path)
		pr.acctDone = true
	}
}

// runTask searches one prefix's subtree. The root branch point handles
// work splitting: once the task has burned splitNodeThreshold nodes, every
// still-untried root value is spawned onto the deque as its own task and
// this task retires.
func (pr *parallelRun) runTask(task searchTask, d *par.Deque) {
	if pr.cancelledFor(task.path) || pr.ctl.Stopped() {
		pr.record(taskRecord{path: task.path, status: taskCancelled})
		return
	}
	if err := faultinject.Hit(faultinject.PointSolverTask); err != nil {
		pr.ctl.StopCause(err)
		pr.record(taskRecord{path: task.path, status: taskCancelled})
		return
	}
	t := pr.tables
	local := newNogoodStore(len(t.views), t.numValues, maxTaskNogoods)
	var s *cspState
	if pooled := pr.statePool.Get(); pooled != nil {
		s = pooled.(*cspState)
		s.resetForTask(s.factsMark, local)
	} else {
		s = newCSPState(t, pr.shared, local)
		if !s.propagateFacts() {
			// Unreachable: the probe refutes fact-level contradictions
			// before the parallel phase starts.
			pr.record(taskRecord{path: task.path, status: taskCompleted})
			return
		}
		s.factsMark = len(s.trail)
	}
	defer pr.statePool.Put(s)
	if !replayPrefix(s, task.decisions) {
		// A split-spawned sibling whose root value turns out inconsistent:
		// refuted without branching, zero nodes.
		pr.record(taskRecord{path: task.path, status: taskCompleted})
		return
	}
	ctx := &cbjCtx{
		s:   s,
		cap: pr.taskCap,
		stop: func(nodes int) bool {
			if pr.cancelledFor(task.path) || pr.ctl.Stopped() {
				return true
			}
			pr.budgetCrossed(task.path, nodes)
			return false
		},
		splitThreshold: splitNodeThreshold,
	}
	ctx.spawn = func(pathSuffix []uint8, decisions []int32) {
		// Hand an untried value-branch prefix to the deque; whoever steals
		// it restarts from the (deterministic) extended prefix. Register it
		// pending FIRST so the budget accounting sees it before any worker
		// can record it.
		child := searchTask{
			path:      append(append([]uint8(nil), task.path...), pathSuffix...),
			decisions: append(append([]int32(nil), task.decisions...), decisions...),
		}
		if pr.known[string(child.path)] {
			// Resumed sweep: the checkpoint already carries this child as a
			// restored record or frontier task, so re-spawning it would
			// double-count its deterministic outcome.
			return
		}
		pr.addFrontier(child)
		d.Spawn(func(dd *par.Deque) { pr.runTask(child, dd) })
	}
	rec := taskRecord{path: task.path}
	switch st := ctx.run(); st {
	case statusSolved:
		rec.status = taskWitness
		rec.decided = append([]Value(nil), s.decided...)
		// The witness path is the one exit that leaves frames open (the
		// caller reads the assignment); pop them now that the witness is
		// copied out, so the pooled state's frameOf entries are clean for
		// the next task that recycles it.
		ctx.popFrames()
	case statusRefuted, statusSplit:
		rec.status = taskCompleted
	case statusCapped:
		rec.status = taskBudget
	case statusCancelled:
		rec.status = taskCancelled
	}
	rec.nodes = ctx.nodes
	rec.learned = local.count()
	pr.record(rec)
}

// Engine entry ---------------------------------------------------------------

type parallelResult struct {
	solved  bool
	decided []Value
	nodes   int
	stats   SearchStats
}

// debugSweepNodes records the total nodes actually explored by the last
// parallel sweep across ALL task records, cancelled ones included. This is
// wall-clock work, schedule-dependent by nature; it exists so the budget
// regression tests can assert the overshoot stays near one task's cap
// instead of tasks × cap. Not part of the public deterministic accounting.
var debugSweepNodes atomic.Int64

// solveParallel runs the full parallel engine: probe, decomposition,
// work-stealing sweep, rank-ordered reduction. ctx cancellation (and
// injected faults or contained worker panics) abort the sweep promptly with
// an error; runs that complete are byte-identical at every parallelism.
func solveParallel(ctx context.Context, t *solveTables, budget int) (parallelResult, error) {
	ctl := &par.Ctl{}
	release := ctl.Bind(ctx)
	defer release()
	res := parallelResult{}
	if ctx != nil && ctx.Err() != nil {
		ctl.StopCause(context.Cause(ctx))
		return res, cancelCause(ctl, ctx)
	}
	// A checkpoint runner on the context arms durable sweeps: a staged
	// section with this workload's fingerprint resumes the frozen store,
	// finished records and open frontier; otherwise the sweep registers a
	// capture so periodic (and final) saves persist its progress.
	runner := checkpoint.FromContext(ctx)
	var ckptFP uint64
	var resumed *solverCkptState
	if runner != nil {
		ckptFP = solverFingerprint(t, budget)
		if payload, ok := runner.Resume(kindSolverFrontier, ckptFP); ok {
			st, err := decodeSolverCheckpoint(payload, t)
			if err != nil {
				slog.Warn("checkpoint: solver section unusable; recomputing", "err", err)
			} else {
				resumed = st
			}
		}
	}

	var shared *nogoodStore
	var tasks []searchTask
	var records []taskRecord
	var prefixNodes int
	if resumed != nil {
		// The probe and decomposition are already paid for: their node
		// counters, the frozen store and the open frontier all come from the
		// checkpoint, and the restored frontier tasks re-run to the same
		// deterministic outcomes the interrupted sweep would have produced.
		shared = resumed.shared
		tasks = resumed.frontier
		records = resumed.records
		prefixNodes = resumed.prefixNodes
		res.nodes = resumed.probeNodes + prefixNodes
		res.stats.ProbeNodes = resumed.probeNodes
		res.stats.PrefixNodes = prefixNodes
		res.stats.SharedNogoods = shared.count()
	} else {
		shared = newNogoodStore(len(t.views), t.numValues, maxSharedNogoods)
		var probeStop func(int) bool
		if ctx != nil && ctx.Done() != nil {
			probeStop = func(int) bool { return ctl.Stopped() }
		}
		_, probeSpan := obs.StartSpan(ctx, "solver.probe")
		po := probe(t, shared, budget, probeStop)
		res.nodes = po.nodes
		res.stats.ProbeNodes = po.nodes
		res.stats.SharedNogoods = shared.count()
		probeSpan.SetInt("nodes", int64(po.nodes))
		probeSpan.SetInt("shared_nogoods", int64(res.stats.SharedNogoods))
		probeSpan.End()
		switch po.status {
		case statusSolved:
			res.solved = true
			res.decided = append([]Value(nil), po.state.decided...)
			return res, nil
		case statusRefuted:
			return res, nil
		case statusCancelled:
			return res, cancelCause(ctl, ctx)
		}
		if po.nodes >= budget {
			return res, errBudget(budget, res.nodes)
		}

		// The probe hit its limit: freeze the shared store and go wide.
		_, decompSpan := obs.StartSpan(ctx, "solver.decompose")
		tasks, records, prefixNodes = decompose(t, shared)
		decompSpan.SetInt("tasks", int64(len(tasks)))
		decompSpan.SetInt("prefix_nodes", int64(prefixNodes))
		decompSpan.End()
		res.stats.PrefixNodes = prefixNodes
		res.nodes += prefixNodes
		if res.nodes >= budget {
			return res, errBudget(budget, res.nodes)
		}
	}
	// Budget semantics in the parallel phase: every task gets the full
	// remaining budget as its PRIVATE cap, and the rank-ordered reduction
	// enforces the aggregate deterministically afterwards. The live
	// accounting in parallelRun (prefixSum / pending / budgetCrossed)
	// mirrors the reduction incrementally and cancels everything ranked
	// past the first budget crossing, so the sweep's overshoot is bounded
	// by one task's private cap — not taskCap × tasks — while the records
	// the reduction consumes stay byte-identical across worker counts (a
	// plain shared live counter would cancel tasks the deterministic
	// reduction still needs).
	pr := &parallelRun{
		tables:    t,
		shared:    shared,
		taskCap:   budget - res.nodes,
		budget:    budget,
		ctl:       ctl,
		records:   records,
		prefixSum: res.nodes,
		frontier:  make(map[string]searchTask, len(tasks)),
	}
	// Witnesses found during decomposition — and, on resume, every restored
	// terminal record — bound the sweep from the start and seed the
	// accounting stash (they are settled records).
	for _, r := range records {
		if r.status == taskWitness || r.status == taskBudget {
			pr.publishBoundLocked(r.path)
		}
		pr.stash = append(pr.stash, r)
	}
	if resumed != nil {
		pr.known = make(map[string]bool, len(records)+len(tasks))
		for _, r := range records {
			pr.known[string(r.path)] = true
		}
		for _, task := range tasks {
			pr.known[string(task.path)] = true
		}
	}
	sort.Slice(pr.stash, func(i, j int) bool { return pathLess(pr.stash[i].path, pr.stash[j].path) })
	sort.Slice(tasks, func(i, j int) bool { return pathLess(tasks[i].path, tasks[j].path) })
	deqTasks := make([]par.Task, len(tasks))
	for i, task := range tasks {
		task := task
		pr.addFrontier(task)
		deqTasks[i] = func(d *par.Deque) { pr.runTask(task, d) }
	}
	if runner != nil {
		// The frozen store never changes during the sweep, so it is encoded
		// once; each capture only re-encodes records and frontier. The
		// unregister retains the final capture, so the CLI's last SaveNow on
		// an interrupt persists the exact state the sweep stopped in.
		sharedBytes := encodeSharedStore(shared)
		probeNodes := res.stats.ProbeNodes
		unregister := runner.Register(kindSolverFrontier, ckptFP, func() ([]byte, error) {
			return pr.encodeCheckpoint(probeNodes, prefixNodes, sharedBytes), nil
		})
		defer unregister()
	}
	sweepCtx, sweepSpan := obs.StartSpan(ctx, "solver.sweep")
	sweepSpan.SetInt("tasks", int64(len(deqTasks)))
	err := par.RunDeque(sweepCtx, deqTasks, ctl)
	sweepSpan.End()
	if err != nil {
		return res, cancelCause(ctl, ctx)
	}
	if cause := ctl.Cause(); cause != nil {
		// External cancellation (context, injected fault) observed by a
		// task rather than the deque itself.
		return res, cancelCause(ctl, ctx)
	}

	// Rank-ordered reduction: consume records in lexicographic path order,
	// stopping at the first terminal event. Every record before that event
	// is a fully-refuted subtree whose deterministic node count joins the
	// aggregate; records past it (including any cancelled ones) never
	// influence the result.
	sort.Slice(pr.records, func(i, j int) bool { return pathLess(pr.records[i].path, pr.records[j].path) })
	sweepNodes := int64(res.nodes)
	for _, r := range pr.records {
		sweepNodes += int64(r.nodes)
	}
	debugSweepNodes.Store(sweepNodes)
	for _, r := range pr.records {
		if r.status == taskCancelled {
			break
		}
		res.nodes += r.nodes
		res.stats.TaskNodes += r.nodes
		res.stats.TaskNogoods += r.learned
		res.stats.Tasks++
		if r.status == taskWitness {
			if res.nodes > budget {
				return res, errBudget(budget, res.nodes)
			}
			res.solved = true
			res.decided = r.decided
			return res, nil
		}
		if r.status == taskBudget || res.nodes > budget {
			return res, errBudget(budget, res.nodes)
		}
	}
	return res, nil
}
