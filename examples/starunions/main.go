// Star unions: a parameter sweep of the Thm 6.13 family. For every s, the
// symmetric union-of-s-stars model solves exactly (n−s+1)-set agreement —
// the paper's flagship tight-bound family. For small instances the
// impossibility side is re-proved by exhaustive decision-map search.
package main

import (
	"context"
	"fmt"
	"log"

	"ksettop"
)

func main() {
	ctx := context.Background()
	fmt.Println("Thm 6.13 sweep: symmetric unions of s stars on n processes")
	fmt.Printf("%-4s %-4s %-12s %-12s %-8s %s\n", "n", "s", "impossible", "solvable", "tight", "solver check")
	for n := 3; n <= 7; n++ {
		for s := 1; s <= n-1; s++ {
			lower, upper, err := ksettop.StarUnionBounds(n, s)
			if err != nil {
				log.Fatal(err)
			}
			solver := "-"
			if n <= 4 {
				m, err := ksettop.UnionOfStarsModel(n, s)
				if err != nil {
					log.Fatal(err)
				}
				if err := ksettop.VerifyLowerBySolver(ctx, m, lower, ksettop.DefaultNodeBudget()); err != nil {
					solver = "FAIL: " + err.Error()
				} else {
					solver = "verified"
				}
			}
			fmt.Printf("%-4d %-4d %-12s %-12s %-8v %s\n",
				n, s,
				fmt.Sprintf("%d-set", lower.K),
				fmt.Sprintf("%d-set", upper.K),
				upper.K == lower.K+1,
				solver)
		}
	}
	fmt.Println("\nreading: with s broadcasters per round, the adversary can always silence")
	fmt.Println("all but s processes, so at most n−s+1 values can be eliminated — and the")
	fmt.Println("min algorithm achieves exactly that in a single round.")
}
