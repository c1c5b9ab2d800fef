package dist

import (
	"context"

	"ksettop/internal/cli"
	"ksettop/internal/par"
)

// RunLocal executes job in-process: the same rank sharding, ops and merge as
// the distributed path, driven by the par work-stealing pool instead of
// remote workers. It is the fallback when no workers are configured and the
// reference the chaos tests compare the distributed path against. shards ≤ 0
// picks 4 × the pool parallelism.
//
// The shared Budget is charged at shard completion by every pool worker, so
// a trip cancels the sweep context and surfaces within roughly one shard of
// extra work (in-flight shards poll cancellation every ~1k ranks).
func RunLocal(ctx context.Context, job Job, shards int) ([]byte, error) {
	op, ok := opTable[job.Op]
	if !ok {
		return nil, errUnknownOp(job.Op)
	}
	m, err := cli.ParseModel(job.Model)
	if err != nil {
		return nil, err
	}
	total, err := m.EnumerationSize()
	if err != nil {
		return nil, err
	}
	if total <= 0 {
		return op.Merge(nil)
	}
	if shards <= 0 {
		shards = 4 * par.Parallelism()
	}
	if int64(shards) > total {
		shards = int(total)
	}
	budget := NewBudget(job.Budget)
	parts := make([][]byte, shards)
	runCtx, cancel := context.WithCancelCause(ctx)
	defer cancel(nil)
	ctl := &par.Ctl{}
	if err := par.ForEachShardN(runCtx, total, shards, ctl, func(s int, from, to int64, ctl *par.Ctl) {
		payload, err := op.Run(runCtx, m, from, to, nil)
		if err != nil {
			ctl.StopCause(err)
			return
		}
		parts[s] = payload
		if err := budget.Charge(to - from); err != nil {
			ctl.StopCause(err)
			cancel(err) // in-flight shards observe this within ~1k ranks
		}
	}); err != nil {
		return nil, err
	}
	return op.Merge(parts)
}

// RunSequential executes job as a single shard over the whole rank space —
// the canonical reference output every distributed or local sweep must match
// byte for byte. The budget, if any, is charged once at the end (a
// sequential sweep has no early-surface opportunity).
func RunSequential(ctx context.Context, job Job) ([]byte, error) {
	op, ok := opTable[job.Op]
	if !ok {
		return nil, errUnknownOp(job.Op)
	}
	m, err := cli.ParseModel(job.Model)
	if err != nil {
		return nil, err
	}
	total, err := m.EnumerationSize()
	if err != nil {
		return nil, err
	}
	if total <= 0 {
		return op.Merge(nil)
	}
	part, err := op.Run(ctx, m, 0, total, nil)
	if err != nil {
		return nil, err
	}
	if err := NewBudget(job.Budget).Charge(total); err != nil {
		return nil, err
	}
	return op.Merge([][]byte{part})
}
