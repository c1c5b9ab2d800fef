// Non-split models: derive the minimal generators of the classic non-split
// predicate ("every pair of processes hears from a common process", used by
// Charron-Bost et al. for approximate consensus) by monotone-predicate
// search, then compute the paper's k-set agreement bounds for the resulting
// closed-above model.
package main

import (
	"context"
	"fmt"
	"log"

	"ksettop"
)

func main() {
	ctx := context.Background()
	for n := 3; n <= 4; n++ {
		// Search all 2^(n(n-1)) graphs for the ⊆-minimal non-split ones:
		// these generate the non-split closed-above model.
		gens, err := ksettop.MinimalGraphs(n, ksettop.Digraph.IsNonSplit)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("non-split predicate on n=%d: %d minimal generator graphs\n", n, len(gens))
		if n == 3 {
			for _, g := range gens {
				fmt.Printf("  %v\n", g)
			}
		}

		m, err := ksettop.NewModel(gens)
		if err != nil {
			log.Fatal(err)
		}
		a, err := ksettop.Analyze(ctx, m, 2)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Print(a.Render())

		// The non-split predicate is famous for making *approximate*
		// consensus solvable; exact consensus stays out of reach, and the
		// engine shows how close k-set agreement gets in one round.
		best := a.Best[0]
		fmt.Printf("one-round verdict: solvable at %d-set, impossible at %d-set\n\n", best.Upper.K, best.Lower.K)
	}
}
