// Command ksetexperiments regenerates every table and figure reproduction
// indexed by experiments.All (E1–E17) and prints them as plain-text tables
// — the repository's record of the paper's reproduced results.
//
// Usage:
//
//	ksetexperiments                 # run everything
//	ksetexperiments -only E1,E8     # run a subset
//	ksetexperiments -parallelism 8  # pin the worker-pool size
//
// Experiments fan out across the worker pool and their internal subset
// sweeps shard through the same engine; tables are printed in experiment
// order and are byte-identical for every -parallelism value (also settable
// via KSETTOP_PARALLELISM).
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
	"time"

	"ksettop/internal/cli"
	"ksettop/internal/dist"
	"ksettop/internal/experiments"
	"ksettop/internal/model"
	"ksettop/internal/obs"
	"ksettop/internal/par"
)

func main() {
	if err := run(context.Background(), os.Args[1:], os.Stdout); err != nil {
		cli.Exit("ksetexperiments", err)
	}
}

// run is the whole tool: it parses args, prints the selected tables to
// stdout, and stops early with the cause once parent or a SIGINT/SIGTERM
// cancels the run.
func run(parent context.Context, args []string, stdout io.Writer) (err error) {
	fs := flag.NewFlagSet("ksetexperiments", flag.ExitOnError)
	only := fs.String("only", "", "comma-separated experiment IDs (default all)")
	parallelism := fs.Int("parallelism", 0, "worker-pool size (0 = KSETTOP_PARALLELISM or GOMAXPROCS)")
	memoSnapshot := fs.String("memo-snapshot", "", cli.MemoSnapshotUsage)
	solverBudget := fs.Int("solver-budget", 0, cli.SolverBudgetFlagUsage)
	workers := fs.String("workers", "", cli.WorkersFlagUsage)
	verifyFraction := fs.Float64("verify-fraction", 0, cli.VerifyFractionFlagUsage)
	quarantineThreshold := fs.Float64("quarantine-threshold", 0, cli.QuarantineThresholdFlagUsage)
	logLevel := fs.String("log-level", "info", cli.LogLevelFlagUsage)
	traceOut := fs.String("trace-out", "", cli.TraceOutFlagUsage)
	checkpointPath := fs.String("checkpoint", "", cli.CheckpointFlagUsage)
	checkpointInterval := fs.Duration("checkpoint-interval", 30*time.Second, cli.CheckpointIntervalFlagUsage)
	if err := fs.Parse(args); err != nil {
		return err
	}
	obs.SetProcessName("ksetexperiments")
	if err := cli.ApplyLogLevelFlag(*logLevel); err != nil {
		return err
	}
	flushTrace := cli.StartTraceOut(*traceOut)
	defer func() {
		if err := flushTrace(); err != nil {
			fmt.Fprintln(os.Stderr, "ksetexperiments: trace-out:", err)
		}
	}()
	ctx, stopSignals := cli.SignalContext(parent)
	defer stopSignals()
	jobKey := cli.JobKey("ksetexperiments", *only,
		fmt.Sprint(*solverBudget))
	ctx, ckpt := cli.StartCheckpoint(ctx, *checkpointPath, jobKey, *checkpointInterval)
	defer func() {
		if ferr := cli.FinishDurable(ckpt, *memoSnapshot, err); err == nil {
			err = ferr
		}
	}()
	par.SetParallelism(*parallelism)
	if list := cli.SplitWorkers(*workers); len(list) > 0 {
		coord := dist.NewCoordinator(dist.CoordConfig{
			Workers:             list,
			VerifyFraction:      *verifyFraction,
			QuarantineThreshold: *quarantineThreshold,
		})
		coord.Start(ctx)
		model.SetDistributor(coord)
		defer model.SetDistributor(nil)
	}
	if err := cli.ApplySolverBudgetFlag(*solverBudget); err != nil {
		return err
	}
	if err := cli.LoadMemoSnapshot(*memoSnapshot); err != nil {
		return err
	}

	want := map[string]bool{}
	if *only != "" {
		for _, id := range strings.Split(*only, ",") {
			want[strings.TrimSpace(id)] = true
		}
	}
	var selected []experiments.Runner
	for _, r := range experiments.All() {
		if len(want) == 0 || want[r.ID] {
			selected = append(selected, r)
		}
	}
	failures := 0
	for _, o := range experiments.RunAll(ctx, selected) {
		if o.Err != nil {
			return fmt.Errorf("%s: %w", o.ID, o.Err)
		}
		text := o.Table.Render()
		fmt.Fprint(stdout, text)
		fmt.Fprintf(stdout, "(%s in %v)\n\n", o.ID, o.Elapsed.Round(time.Millisecond))
		if strings.Contains(text, "MISMATCH") || strings.Contains(text, "FAIL") {
			failures++
		}
	}
	if failures > 0 {
		return fmt.Errorf("%d experiment(s) had failing rows", failures)
	}
	return cli.SaveMemoSnapshot(*memoSnapshot)
}
