// Topology explorer: walk the §4 pipeline end to end on a small model —
// uninterpreted simplex → pseudosphere → interpreted protocol complex →
// homological connectivity — and read the k-set agreement verdict off the
// Betti numbers.
package main

import (
	"context"
	"fmt"
	"log"

	"ksettop"
	"ksettop/internal/topology"
)

func main() {
	ctx := context.Background()
	star, err := ksettop.Star(3, 0)
	if err != nil {
		log.Fatal(err)
	}

	// Def 4.3: the uninterpreted simplex of one graph.
	sigma := topology.UninterpretedSimplex(star)
	fmt.Println("uninterpreted simplex of star(3):")
	for p := 0; p < 3; p++ {
		view, _ := sigma.ViewOf(p)
		fmt.Printf("  p%d sees %v\n", p, view)
	}

	// Lemma 4.8: the simple model ↑star is a pseudosphere.
	ps := topology.UninterpretedPseudosphere(star)
	fmt.Printf("pseudosphere C_↑star: %d facets, guaranteed %d-connected (Lemma 4.7)\n",
		ps.FacetCount(), ps.ConnectivityBound())

	// Thm 4.12 on the symmetric model: still (n−2)-connected.
	m, err := ksettop.NonEmptyKernelModel(3)
	if err != nil {
		log.Fatal(err)
	}
	if err := ksettop.VerifyUninterpretedConnectivity(ctx, m); err != nil {
		log.Fatal(err)
	}
	fmt.Println("Sym(star): uninterpreted complex verified 1-connected (Thm 4.12)")

	// Interpret on 3 input values and measure the protocol complex.
	inputs, err := topology.InputAssignments(3, 3)
	if err != nil {
		log.Fatal(err)
	}
	pc, err := topology.ProtocolComplexOneRound(ctx, m.Generators(), inputs)
	if err != nil {
		log.Fatal(err)
	}
	ac, _, err := pc.ToAbstract()
	if err != nil {
		log.Fatal(err)
	}
	betti, err := topology.ReducedBettiNumbersCtx(ctx, ac, 1)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("one-round protocol complex: %d facets, betti %v\n", ac.FacetCount(), betti)
	fmt.Println("reading: β̃0 = β̃1 = 0 → 1-connected → 2-set agreement impossible")
	fmt.Println("([HKR13] Thm 10.3.1), matching Thm 5.4/6.13 exactly (n−s = 2).")

	// Contrast with the clique model, where consensus IS solvable: the
	// protocol complex falls apart into one component per input.
	clique, err := ksettop.Complete(3)
	if err != nil {
		log.Fatal(err)
	}
	pcClique, err := topology.ProtocolComplexOneRound(ctx, []ksettop.Digraph{clique}, inputs)
	if err != nil {
		log.Fatal(err)
	}
	acClique, _, err := pcClique.ToAbstract()
	if err != nil {
		log.Fatal(err)
	}
	bettiClique, err := topology.ReducedBettiNumbersCtx(ctx, acClique, 0)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("clique protocol complex: β̃0 = %d (27 components — fully synchronized views)\n",
		bettiClique[0])
}
