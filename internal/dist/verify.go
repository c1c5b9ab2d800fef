package dist

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"ksettop/internal/faultinject"
	"ksettop/internal/model"
	"ksettop/internal/obs"
	"ksettop/internal/par"
)

// This file is the coordinator's quorum cross-validation: a CRC check
// catches corrupted bytes but not a lying worker that checksums its own
// wrong result, so a deterministic VerifyFraction of committed shards (plus
// every shard whose hedge-loser bytes disagree) is re-executed on distinct
// ring replicas before the merge. An agreeing replica settles the shard; a
// disagreeing one escalates to a majority vote over ≥ quorumReplicas
// distinct results, with a local recompute as the tie-breaking arbiter —
// ops are deterministic, so local bytes are ground truth. Every vote that
// loses to the decided truth is a recorded divergence feeding the
// quarantine score, and an overturned commit is corrected in place (and in
// the journal: replay is last-record-wins) before the merge, keeping the
// sweep byte-identical to the sequential engine.

// localWorker is the pseudo-worker name of coordinator-side local compute
// (the verification arbiter and degraded-mode serving). Never scored.
const localWorker = "(local)"

// verifySalt decorrelates the shard-selection hash from the retry jitter.
const verifySalt = 0xb12a47e5c0ffee11

// verifier tracks the cross-validation state of one sweep.
type verifier struct {
	c       *Coordinator
	job     Job
	op      Op
	m       *model.ClosedAbove
	jr      *Journal
	pending int // shards flagged for verification and not yet settled
}

func (c *Coordinator) newVerifier(job Job, op Op, m *model.ClosedAbove, jr *Journal) *verifier {
	return &verifier{c: c, job: job, op: op, m: m, jr: jr}
}

// selected reports whether shard is in the deterministic VerifyFraction
// sample for this sweep's seed.
func (v *verifier) selected(shard int) bool {
	f := v.c.cfg.VerifyFraction
	if f <= 0 {
		return false
	}
	if f >= 1 {
		return true
	}
	return splitmix64(v.c.cfg.Seed^verifySalt^uint64(shard))%10000 < uint64(f*10000)
}

// dispatch launches at most one verification probe per unsettled shard: the
// next untried eligible ring replica, or the local arbiter once replicas
// are exhausted.
func (v *verifier) dispatch(runCtx context.Context, states []*shardState, done chan completion, now time.Time) {
	if v.pending <= 0 {
		return
	}
	for _, st := range states {
		if !st.committed || !st.needVerify || st.verified {
			continue
		}
		// One probe at a time; an outstanding hedge loser also counts — its
		// completion is a free vote.
		if len(st.grants) > 0 || st.arbiter {
			continue
		}
		if now.Before(st.verifyNextTry) {
			continue
		}
		if target, ok := v.c.pickVerifier(st); ok {
			v.c.launchVerify(runCtx, v.job, st, target, done)
		} else {
			v.launchArbiter(runCtx, st, done)
		}
	}
}

// pickVerifier walks the shard's ring sequence for an eligible replica that
// has neither voted nor failed a verification attempt.
func (c *Coordinator) pickVerifier(st *shardState) (string, bool) {
	for _, w := range c.ring.Sequence(st.key, len(c.cfg.Workers)) {
		if st.verifyTried[w] {
			continue
		}
		if _, voted := st.votes[w]; voted {
			continue
		}
		if !c.eligible(w) {
			continue
		}
		return w, true
	}
	return "", false
}

// launchVerify grants a verification re-execution of shard st to worker.
func (c *Coordinator) launchVerify(runCtx context.Context, job Job, st *shardState, worker string, done chan completion) {
	spanCtx, span := obs.StartSpan(runCtx, "dist.verify")
	span.SetInt("shard", int64(st.idx))
	span.SetAttr("worker", worker)
	gctx, cancel := context.WithTimeout(spanCtx, c.cfg.LeaseTTL)
	g := &grant{worker: worker, started: time.Now(), cancel: cancel, verify: true}
	st.grants = append(st.grants, g)
	st.verifyTried[worker] = true
	c.met.leasesGranted.Inc()
	req := ExecRequest{
		Op:      job.Op,
		Model:   job.Model,
		Shard:   st.idx,
		From:    st.from,
		To:      st.to,
		LeaseMs: c.cfg.LeaseTTL.Milliseconds(),
	}
	shard := st.idx
	go func() {
		defer cancel()
		payload, spans, err := c.exec(gctx, worker, req)
		if err != nil {
			span.SetAttr("error", err.Error())
		}
		span.End()
		comp := completion{shard: shard, g: g, payload: payload, spans: spans, err: err, elapsed: time.Since(g.started)}
		select {
		case done <- comp:
		case <-runCtx.Done():
		}
	}()
}

// launchArbiter recomputes shard st locally — the deterministic tie-breaker
// once distinct replicas are exhausted or the quorum is unreachable.
func (v *verifier) launchArbiter(runCtx context.Context, st *shardState, done chan completion) {
	st.arbiter = true
	v.c.met.verifyLocalArbiter.Inc()
	g := &grant{worker: localWorker, started: time.Now(), cancel: func() {}, verify: true}
	shard, from, to := st.idx, st.from, st.to
	op, m := v.op, v.m
	go func() {
		payload, err := op.Run(runCtx, m, from, to, nil)
		comp := completion{shard: shard, g: g, payload: payload, err: err, elapsed: time.Since(g.started)}
		select {
		case done <- comp:
		case <-runCtx.Done():
		}
	}()
}

// onCompletion folds one verification result into st's vote set and settles
// the shard when the vote is conclusive.
func (v *verifier) onCompletion(st *shardState, comp completion) error {
	if comp.g.worker == localWorker {
		st.arbiter = false
	}
	if st.verified || !st.needVerify {
		return nil
	}
	if comp.err != nil {
		if comp.g.worker == localWorker {
			return fmt.Errorf("dist: shard %d: local verification recompute: %w", st.idx, comp.err)
		}
		v.c.recordFailure(comp.g.worker, failureWeight(comp.err))
		st.verifyNextTry = time.Now().Add(v.c.backoff(st.idx, len(st.verifyTried)))
		return nil
	}
	if comp.g.worker == localWorker {
		// Local bytes are ground truth by determinism.
		return v.settle(st, comp.payload, "local recompute")
	}
	v.c.met.verifyQuorumVotes.Inc()
	st.votes[comp.g.worker] = comp.payload
	if len(st.votes) == 2 {
		// First independent replica: agreement settles the shard outright.
		if bytes.Equal(comp.payload, st.result) {
			v.c.met.verifyOK.Inc()
			return v.settle(st, st.result, "replica "+comp.g.worker)
		}
		v.c.met.verifyMismatches.Inc()
		v.c.met.divergenceEvents.Inc()
		v.c.log.Warn("dist: verification replica disagrees with committed result; escalating to quorum",
			"shard", st.idx, "replica", comp.g.worker, "committed_by", st.committedBy)
		return nil
	}
	if truth, ok := majorityVote(st.votes, quorumReplicas); ok {
		return v.settle(st, truth, "quorum majority")
	}
	return nil
}

// onDuplicate cross-checks a completion for an already-committed shard. An
// agreeing duplicate (hedge loser, late retry) is a free confirming vote; a
// disagreeing one is a recorded divergence event that forces the shard into
// verification — or, if its truth is already settled, convicts the loser
// directly.
func (v *verifier) onDuplicate(st *shardState, comp completion) error {
	c := v.c
	c.met.duplicateResults.Inc()
	if bytes.Equal(comp.payload, st.result) {
		c.recordSuccess(comp.g.worker)
		if st.needVerify && !st.verified && comp.g.worker != st.committedBy {
			st.votes[comp.g.worker] = comp.payload
			c.met.verifyOK.Inc()
			return v.settle(st, st.result, "agreeing duplicate "+comp.g.worker)
		}
		return nil
	}
	c.met.crossCheckMismatches.Inc()
	c.met.divergenceEvents.Inc()
	c.log.Warn("dist: duplicate result disagrees with committed result",
		"shard", st.idx, "worker", comp.g.worker, "committed_by", st.committedBy)
	if st.verified {
		c.recordDivergence(comp.g.worker, st.idx, v.job.Op)
		return nil
	}
	if comp.g.worker != st.committedBy {
		st.votes[comp.g.worker] = comp.payload
	}
	if !st.needVerify {
		st.needVerify = true
		v.pending++
		c.met.verifySelected.Inc()
	}
	return nil
}

// settle decides st's truth: every recorded vote that disagrees is a
// divergence against its worker, an overturned commit is corrected in place
// (plus a journal correction record — replay is last-record-wins), and an
// unjournaled verified shard is journaled now.
func (v *verifier) settle(st *shardState, truth []byte, source string) error {
	for w, vote := range st.votes {
		if !bytes.Equal(vote, truth) {
			v.c.recordDivergence(w, st.idx, v.job.Op)
		}
	}
	if !bytes.Equal(st.result, truth) {
		v.c.met.verifyOverturned.Inc()
		v.c.log.Warn("dist: committed result overturned", "shard", st.idx, "committed_by", st.committedBy, "by", source)
		st.result = append([]byte(nil), truth...)
		if st.journaled && v.jr != nil {
			if err := v.jr.Append(st.idx, st.result); err != nil {
				return err
			}
		}
	}
	if !st.journaled && v.jr != nil {
		if err := v.jr.Append(st.idx, st.result); err != nil {
			return err
		}
		st.journaled = true
	}
	if st.needVerify && !st.verified {
		st.verified = true
		v.pending--
	}
	return nil
}

// majorityVote decides truth once at least quorum distinct workers have
// voted and one byte-string holds a strict majority.
func majorityVote(votes map[string][]byte, quorum int) ([]byte, bool) {
	if len(votes) < quorum {
		return nil, false
	}
	counts := make(map[string]int, len(votes))
	var best []byte
	bestN := 0
	for _, p := range votes {
		counts[string(p)]++
		if n := counts[string(p)]; n > bestN {
			bestN, best = n, p
		}
	}
	if bestN*2 > len(votes) {
		return best, true
	}
	return nil, false
}

// failureWeight maps a grant error to quarantine evidence: a corrupt
// response is near-Byzantine, everything else is crash-fault noise.
func failureWeight(err error) float64 {
	if errors.Is(err, errCorruptResponse) {
		return corruptScore
	}
	return transportScore
}

// finishLocal is degraded-mode serving: with the live-and-trusted fleet
// below the floor, the remaining shards are computed by the local engine
// (same sharding, same ops, so the merge stays byte-identical) and pending
// verifications are settled by local recompute.
func (c *Coordinator) finishLocal(ctx context.Context, v *verifier, states []*shardState, total int64, budget *Budget) error {
	runCtx, cancel := context.WithCancelCause(ctx)
	defer cancel(nil)
	var mu sync.Mutex // serializes state/journal/verifier mutation across pool workers
	ctl := &par.Ctl{}
	return par.ForEachShardN(runCtx, total, len(states), ctl, func(s int, from, to int64, ctl *par.Ctl) {
		st := states[s]
		if st.committed && (!st.needVerify || st.verified) {
			return
		}
		payload, err := v.op.Run(runCtx, v.m, from, to, nil)
		if err != nil {
			ctl.StopCause(err)
			return
		}
		mu.Lock()
		defer mu.Unlock()
		if st.committed {
			if err := v.settle(st, payload, "degraded local recompute"); err != nil {
				ctl.StopCause(err)
			}
			return
		}
		if err := faultinject.Hit(faultinject.PointDistCommit); err != nil {
			ctl.StopCause(fmt.Errorf("dist: coordinator killed at commit of shard %d: %w", st.idx, err))
			return
		}
		st.committed = true
		st.committedBy = localWorker
		st.result = payload
		c.met.shardsCommitted.Inc()
		if st.needVerify && !st.verified {
			st.verified = true
			v.pending--
		}
		if v.jr != nil {
			if err := v.jr.Append(st.idx, payload); err != nil {
				ctl.StopCause(err)
				return
			}
			st.journaled = true
		}
		if err := budget.Charge(to - from); err != nil {
			c.met.budgetTrips.Inc()
			ctl.StopCause(err)
			cancel(err)
		}
	})
}
