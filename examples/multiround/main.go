// Multi-round dissemination: covering-number sequences (Def 6.6) predict how
// many rounds the min algorithm needs on ring-like models, and the simulator
// confirms the prediction round by round.
package main

import (
	"context"
	"fmt"
	"log"

	"ksettop"
)

func main() {
	ctx := context.Background()
	for _, n := range []int{4, 6, 8} {
		cyc, err := ksettop.Cycle(n)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("simple model ↑cycle(%d)\n", n)

		// Thm 6.7: if the i-th covering sequence reaches n at round r, then
		// i-set agreement is solvable in r rounds.
		for i := 1; i <= 2; i++ {
			seq, err := ksettop.CoveringSequence(cyc, i)
			if err != nil {
				log.Fatal(err)
			}
			if !seq.ReachesAll {
				fmt.Printf("  %d-th covering sequence %v stalls\n", i, seq.Values)
				continue
			}
			fmt.Printf("  %d-th covering sequence %v → %d-set agreement in %d rounds\n",
				i, seq.Values, i, seq.Round)

			// Confirm by exhaustive simulation against the cycle adversary.
			res, err := ksettop.WorstCase(ctx, []ksettop.Digraph{cyc}, i+1, seq.Round,
				ksettop.MinAlgorithm(seq.Round), 8_000_000)
			if err != nil {
				log.Fatal(err)
			}
			status := "confirmed"
			if res.WorstDistinct > i {
				status = fmt.Sprintf("VIOLATED (%d distinct)", res.WorstDistinct)
			}
			fmt.Printf("    simulation over %d executions: worst %d distinct — %s\n",
				res.Executions, res.WorstDistinct, status)
		}

		// Per-round bound table from the product machinery (Thm 6.3/6.10).
		m, err := ksettop.SimpleModel(cyc)
		if err != nil {
			log.Fatal(err)
		}
		maxR := n - 1
		if maxR > 4 {
			maxR = 4
		}
		a, err := ksettop.Analyze(ctx, m, maxR)
		if err != nil {
			log.Fatal(err)
		}
		for _, p := range a.Best {
			fmt.Printf("  r=%d: %d-set solvable (%s: %s)\n", p.Rounds, p.Upper.K, p.Upper.Theorem, p.Upper.Note)
		}
		fmt.Println()
	}
}
