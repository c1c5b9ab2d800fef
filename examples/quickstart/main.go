// Quickstart: build a closed-above model, compute the paper's k-set
// agreement bounds, and run one execution of the min-dissemination
// algorithm.
package main

import (
	"context"
	"fmt"
	"log"

	"ksettop"
)

func main() {
	ctx := context.Background()
	// The Thm 6.13 family: at every round, some 2 processes (unknown in
	// advance) broadcast to everyone — the symmetric union-of-2-stars model
	// on 5 processes.
	m, err := ksettop.UnionOfStarsModel(5, 2)
	if err != nil {
		log.Fatal(err)
	}

	// Full bound report for rounds 1..3: (n−s+1) = 4-set agreement is
	// solvable in one round, (n−s) = 3-set agreement is impossible at any
	// round count — the bounds are tight and do not improve with rounds.
	analysis, err := ksettop.Analyze(ctx, m, 3)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Print(analysis.Render())

	// Run the paper's one-round algorithm on the worst generator adversary.
	res, err := ksettop.WorstCase(ctx, m.Generators(), 5, 1, ksettop.MinAlgorithm(1), 1_000_000)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nmin algorithm, worst case over %d executions: %d distinct decisions\n",
		res.Executions, res.WorstDistinct)
	fmt.Printf("worst-case inputs: %v\n", res.Witness.Initial)

	// Machine-check the upper bound claim on the full model closure.
	up := analysis.Best[0].Upper
	if err := ksettop.VerifyUpperBySimulation(ctx, m, up, 4_000_000); err != nil {
		log.Fatalf("upper bound verification failed: %v", err)
	}
	fmt.Printf("verified: %d-set agreement solvable in one round (%s)\n", up.K, up.Theorem)
}
