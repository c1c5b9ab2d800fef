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
	"fmt"
	"io"
	"math/rand"

	"ksettop/internal/cli"
	"ksettop/internal/protocol"
)

func main() { cli.Main("ksetsim", run) }

// run is the whole tool: it parses args and prints the executions to
// stdout. A SIGINT/SIGTERM cancels the sweep promptly (through ctx) and
// ends the run with the interrupt.
func run(parent context.Context, args []string, stdout io.Writer) error {
	c := cli.New("ksetsim")
	spec := c.Flags.String("model", "star:n=4", "model specification (see ksetbounds)")
	rounds := c.Flags.Int("rounds", 1, "communication rounds")
	values := c.Flags.Int("values", 0, "number of initial values (default n)")
	mode := c.Flags.String("mode", "worst", "worst | random")
	seed := c.Flags.Int64("seed", 1, "random seed for -mode random")
	limit := c.Flags.Int("limit", 4_000_000, "execution budget for -mode worst")
	return c.Run(parent, args, func(ctx context.Context) error {
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
			fmt.Fprintf(stdout, "%s, %d values, %d rounds, min algorithm\n", m, numValues, *rounds)
			fmt.Fprintf(stdout, "executions swept: %d (generator adversary)\n", res.Executions)
			fmt.Fprintf(stdout, "worst-case distinct decisions: %d\n", res.WorstDistinct)
			fmt.Fprintln(stdout, "worst execution:")
			return printExecution(stdout, res.Witness, algo)
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
			return printExecution(stdout, e, algo)
		default:
			return fmt.Errorf("unknown mode %q", *mode)
		}
	})
}

func printExecution(w io.Writer, e protocol.Execution, algo protocol.Algorithm) error {
	res, err := protocol.Run(e, algo)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "  initial values: %v\n", e.Initial)
	for r, g := range e.Graphs {
		fmt.Fprintf(w, "  round %d graph:  %v\n", r+1, g)
	}
	for p, v := range res.Views {
		fmt.Fprintf(w, "  p%d view %v decides %d\n", p, v, res.Decisions[p])
	}
	fmt.Fprintf(w, "  distinct decisions: %d\n", res.DistinctCount())
	return nil
}
