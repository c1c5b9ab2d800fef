// Command ksetbounds computes the paper's k-set agreement bounds for a
// closed-above model.
//
// Usage:
//
//	ksetbounds -model stars:n=5,s=2 -rounds 3
//	ksetbounds -model adj:'0>1 2;1>2;2>0' -rounds 2 -verify
//
// With -verify, the best one-round bounds are additionally re-checked by
// exhaustive simulation (upper) and exhaustive decision-map search plus
// protocol-complex connectivity (lower) when the instance is small enough.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"time"

	"ksettop/internal/cli"
	"ksettop/internal/core"
	"ksettop/internal/obs"
	"ksettop/internal/par"
	"ksettop/internal/protocol"
)

func main() {
	if err := run(); err != nil {
		cli.Exit("ksetbounds", err)
	}
}

func run() (err error) {
	spec := flag.String("model", "star:n=4", "model specification (see package doc)")
	rounds := flag.Int("rounds", 1, "analyze rounds 1..r")
	verify := flag.Bool("verify", false, "re-check the one-round bounds mechanically")
	parallelism := flag.Int("parallelism", 0, "worker-pool size (0 = KSETTOP_PARALLELISM or GOMAXPROCS)")
	solverBudget := flag.Int("solver-budget", 0, cli.SolverBudgetFlagUsage)
	memoSnapshot := flag.String("memo-snapshot", "", cli.MemoSnapshotUsage)
	logLevel := flag.String("log-level", "info", cli.LogLevelFlagUsage)
	traceOut := flag.String("trace-out", "", cli.TraceOutFlagUsage)
	checkpointPath := flag.String("checkpoint", "", cli.CheckpointFlagUsage)
	checkpointInterval := flag.Duration("checkpoint-interval", 30*time.Second, cli.CheckpointIntervalFlagUsage)
	flag.Parse()
	obs.SetProcessName("ksetbounds")
	if err := cli.ApplyLogLevelFlag(*logLevel); err != nil {
		return err
	}
	flushTrace := cli.StartTraceOut(*traceOut)
	defer func() {
		if err := flushTrace(); err != nil {
			fmt.Fprintln(os.Stderr, "ksetbounds: trace-out:", err)
		}
	}()
	ctx, stopSignals := cli.SignalContext(context.Background())
	defer stopSignals()
	jobKey := cli.JobKey("ksetbounds", *spec, fmt.Sprint(*rounds), fmt.Sprint(*verify),
		fmt.Sprint(*solverBudget))
	ctx, ckpt := cli.StartCheckpoint(ctx, *checkpointPath, jobKey, *checkpointInterval)
	defer func() {
		if ferr := cli.FinishDurable(ckpt, *memoSnapshot, err); err == nil {
			err = ferr
		}
	}()
	par.SetParallelism(*parallelism)
	if err := cli.ApplySolverBudgetFlag(*solverBudget); err != nil {
		return err
	}
	if err := cli.LoadMemoSnapshot(*memoSnapshot); err != nil {
		return err
	}

	m, err := cli.ParseModel(*spec)
	if err != nil {
		return err
	}
	a, err := core.Analyze(m, *rounds)
	if err != nil {
		return err
	}
	fmt.Print(a.Render())

	if !*verify {
		return cli.SaveMemoSnapshot(*memoSnapshot)
	}
	up, err := core.BestUpperOneRound(m)
	if err != nil {
		return err
	}
	fmt.Printf("verify upper %d-set by simulation: ", up.K)
	if err := core.VerifyUpperBySimulation(m, up, 4_000_000); err != nil {
		fmt.Println("FAIL:", err)
	} else {
		fmt.Println("ok")
	}
	lo, err := core.BestLowerOneRound(m)
	if err != nil {
		return err
	}
	if lo.K < 1 {
		fmt.Println("verify lower: vacuous (k = 0), nothing to check")
		return cli.SaveMemoSnapshot(*memoSnapshot)
	}
	fmt.Printf("verify lower %d-set by decision-map search: ", lo.K)
	if m.N() <= 4 {
		if err := core.VerifyLowerBySolver(m, lo, protocol.DefaultNodeBudget()); err != nil {
			fmt.Println("FAIL:", err)
		} else {
			fmt.Println("ok")
		}
	} else {
		fmt.Println("skipped (n > 4)")
	}
	fmt.Printf("verify lower %d-set by protocol-complex connectivity: ", lo.K)
	if m.N() <= 3 {
		if err := core.VerifyLowerByTopology(m, lo); err != nil {
			fmt.Println("FAIL:", err)
		} else {
			fmt.Println("ok")
		}
	} else {
		fmt.Println("skipped (n > 3)")
	}
	return cli.SaveMemoSnapshot(*memoSnapshot)
}
