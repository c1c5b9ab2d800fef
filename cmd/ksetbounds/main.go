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
	"errors"
	"fmt"
	"io"

	"ksettop/internal/cli"
	"ksettop/internal/core"
	"ksettop/internal/model"
	"ksettop/internal/protocol"
)

func main() { cli.Main("ksetbounds", run) }

// run is the whole tool: it parses args, prints the bound table (and the
// -verify cells) to stdout, and stops early with the cause once parent or
// a SIGINT/SIGTERM cancels the run.
func run(parent context.Context, args []string, stdout io.Writer) error {
	c := cli.New("ksetbounds")
	spec := c.Flags.String("model", "star:n=4", "model specification (see package doc)")
	rounds := c.Flags.Int("rounds", 1, "analyze rounds 1..r")
	verify := c.Flags.Bool("verify", false, "re-check the one-round bounds mechanically")
	solverBudget := c.SolverBudget()
	c.Checkpoint(cli.CheckpointFlagUsage, cli.CheckpointIntervalFlagUsage, func() []string {
		return []string{*spec, fmt.Sprint(*rounds), fmt.Sprint(*verify), fmt.Sprint(*solverBudget)}
	})
	return c.Run(parent, args, func(ctx context.Context) error {
		m, err := cli.ParseModel(*spec)
		if err != nil {
			return err
		}
		a, err := core.AnalyzeCtx(ctx, m, *rounds)
		if err != nil {
			return err
		}
		fmt.Fprint(stdout, a.Render())
		if *verify {
			return verifyOneRound(ctx, stdout, m, a.Best[0])
		}
		return nil
	})
}

// verifyOneRound re-checks the analysis's best one-round bounds and prints
// one cell per check. A check that fails prints FAIL: and the remaining
// checks still run; an interrupted check ends the run with its error, so the
// tool exits 3 and keeps its checkpoint. Every check runs on ctx, which
// carries the checkpoint runner to the solver.
func verifyOneRound(ctx context.Context, w io.Writer, m *model.ClosedAbove, best core.BoundPair) error {
	up, lo := best.Upper, best.Lower
	fmt.Fprintf(w, "verify upper %d-set by simulation: ", up.K)
	if err := verifyCell(w, core.VerifyUpperBySimulationCtx(ctx, m, up, 4_000_000)); err != nil {
		return err
	}
	if lo.K < 1 {
		fmt.Fprintln(w, "verify lower: vacuous (k = 0), nothing to check")
		return nil
	}
	fmt.Fprintf(w, "verify lower %d-set by decision-map search: ", lo.K)
	if m.N() <= 4 {
		if err := verifyCell(w, core.VerifyLowerBySolverCtx(ctx, m, lo, protocol.DefaultNodeBudget())); err != nil {
			return err
		}
	} else {
		fmt.Fprintln(w, "skipped (n > 4)")
	}
	fmt.Fprintf(w, "verify lower %d-set by protocol-complex connectivity: ", lo.K)
	if m.N() <= 3 {
		return verifyCell(w, core.VerifyLowerByTopology(ctx, m, lo))
	}
	fmt.Fprintln(w, "skipped (n > 3)")
	return nil
}

// verifyCell prints one check's outcome: ok, FAIL: with the error, skipped
// on an enumeration-budget trip (a check that cannot run has not failed), or
// interrupted, in which case the error is returned.
func verifyCell(w io.Writer, err error) error {
	switch {
	case errors.Is(err, cli.ErrInterrupted):
		fmt.Fprintln(w, "interrupted")
		return err
	case errors.Is(err, model.ErrEnumerationBudget):
		fmt.Fprintf(w, "skipped (budget: %v)\n", err)
	case err != nil:
		fmt.Fprintln(w, "FAIL:", err)
	default:
		fmt.Fprintln(w, "ok")
	}
	return nil
}
