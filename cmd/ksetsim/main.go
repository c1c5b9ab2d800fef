// Command ksetsim runs round-based executions of the paper's algorithms on
// a closed-above model and reports decisions.
//
// Usage:
//
//	ksetsim -model star:n=4 -rounds 1 -values 4 -mode worst
//	ksetsim -model simple-cycle:n=5 -rounds 3 -mode random -seed 7
//
// Modes:
//
//	worst    exhaustive sweep of assignments × generator sequences; prints
//	         the worst execution (most distinct decisions) with its trace.
//	random   one random execution sampled from the model.
package main

import (
	"context"
	"flag"
	"fmt"
	"math/rand"
	"os"

	"ksettop/internal/cli"
	"ksettop/internal/obs"
	"ksettop/internal/par"
	"ksettop/internal/protocol"
)

func main() {
	if err := run(); err != nil {
		cli.Exit("ksetsim", err)
	}
}

func run() (err error) {
	spec := flag.String("model", "star:n=4", "model specification (see ksetbounds)")
	rounds := flag.Int("rounds", 1, "communication rounds")
	values := flag.Int("values", 0, "number of initial values (default n)")
	mode := flag.String("mode", "worst", "worst | random")
	seed := flag.Int64("seed", 1, "random seed for -mode random")
	limit := flag.Int("limit", 4_000_000, "execution budget for -mode worst")
	parallelism := flag.Int("parallelism", 0, "worker-pool size (0 = KSETTOP_PARALLELISM or GOMAXPROCS)")
	memoSnapshot := flag.String("memo-snapshot", "", cli.MemoSnapshotUsage)
	logLevel := flag.String("log-level", "info", cli.LogLevelFlagUsage)
	traceOut := flag.String("trace-out", "", cli.TraceOutFlagUsage)
	flag.Parse()
	obs.SetProcessName("ksetsim")
	if err := cli.ApplyLogLevelFlag(*logLevel); err != nil {
		return err
	}
	flushTrace := cli.StartTraceOut(*traceOut)
	defer func() {
		if err := flushTrace(); err != nil {
			fmt.Fprintln(os.Stderr, "ksetsim: trace-out:", err)
		}
	}()
	// No checkpointable engine here — a SIGINT/SIGTERM still cancels the
	// sweep promptly (through ctx), flushes trace + memo snapshot through
	// the deferred FinishDurable, and exits ExitInterrupted.
	ctx, stopSignals := cli.SignalContext(context.Background())
	defer stopSignals()
	defer func() {
		if ferr := cli.FinishDurable(nil, *memoSnapshot, err); err == nil {
			err = ferr
		}
	}()
	par.SetParallelism(*parallelism)
	if err := cli.LoadMemoSnapshot(*memoSnapshot); err != nil {
		return err
	}

	m, err := cli.ParseModel(*spec)
	if err != nil {
		return err
	}
	numValues := *values
	if numValues == 0 {
		numValues = m.N()
	}
	algo := protocol.MinAlgorithm{R: *rounds}

	switch *mode {
	case "worst":
		res, err := protocol.WorstCase(ctx, m.Generators(), numValues, *rounds, algo, *limit)
		if err != nil {
			return err
		}
		fmt.Printf("%s, %d values, %d rounds, min algorithm\n", m, numValues, *rounds)
		fmt.Printf("executions swept: %d (generator adversary)\n", res.Executions)
		fmt.Printf("worst-case distinct decisions: %d\n", res.WorstDistinct)
		fmt.Println("worst execution:")
		if err := printExecution(res.Witness, algo); err != nil {
			return err
		}
		return cli.SaveMemoSnapshot(*memoSnapshot)
	case "random":
		rng := rand.New(rand.NewSource(*seed))
		adv := &protocol.RandomAdversary{Gens: m.Generators(), ExtraProb: 0.3, Rng: rng}
		initial := make([]protocol.Value, m.N())
		for p := range initial {
			initial[p] = rng.Intn(numValues)
		}
		e, err := protocol.BuildExecution(adv, *rounds, initial)
		if err != nil {
			return err
		}
		if err := printExecution(e, algo); err != nil {
			return err
		}
		return cli.SaveMemoSnapshot(*memoSnapshot)
	default:
		return fmt.Errorf("unknown mode %q", *mode)
	}
}

func printExecution(e protocol.Execution, algo protocol.Algorithm) error {
	res, err := protocol.Run(e, algo)
	if err != nil {
		return err
	}
	fmt.Printf("  initial values: %v\n", e.Initial)
	for r, g := range e.Graphs {
		fmt.Printf("  round %d graph:  %v\n", r+1, g)
	}
	for p, v := range res.Views {
		fmt.Printf("  p%d view %v decides %d\n", p, v, res.Decisions[p])
	}
	fmt.Printf("  distinct decisions: %d\n", res.DistinctCount())
	return nil
}
