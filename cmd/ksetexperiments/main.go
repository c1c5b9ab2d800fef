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
	"fmt"
	"io"
	"strings"
	"time"

	"ksettop/internal/cli"
	"ksettop/internal/experiments"
)

func main() { cli.Main("ksetexperiments", run) }

// run is the whole tool: it parses args, prints the selected tables to
// stdout, and stops early with the cause once parent or a SIGINT/SIGTERM
// cancels the run.
func run(parent context.Context, args []string, stdout io.Writer) error {
	c := cli.New("ksetexperiments")
	only := c.Flags.String("only", "", "comma-separated experiment IDs (default all)")
	solverBudget := c.SolverBudget()
	c.Checkpoint(cli.CheckpointFlagUsage, cli.CheckpointIntervalFlagUsage, func() []string {
		return []string{*only, fmt.Sprint(*solverBudget)}
	})
	return c.Run(parent, args, func(ctx context.Context) error {
		return printTables(ctx, stdout, *only)
	})
}

// printTables runs the experiments named by only (all when empty) and
// prints their tables; any MISMATCH or FAIL cell fails the run.
func printTables(ctx context.Context, stdout io.Writer, only string) error {
	want := map[string]bool{}
	if only != "" {
		for _, id := range strings.Split(only, ",") {
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
	return nil
}
