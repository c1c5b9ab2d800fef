package ksettop

import (
	"context"
	"strings"
	"testing"
)

func TestFacadeQuickstartFlow(t *testing.T) {
	m, err := UnionOfStarsModel(4, 2)
	if err != nil {
		t.Fatalf("UnionOfStarsModel: %v", err)
	}
	a, err := Analyze(context.Background(), m, 2)
	if err != nil {
		t.Fatalf("Analyze: %v", err)
	}
	text := a.Render()
	if !strings.Contains(text, "3-set") || !strings.Contains(text, "2-set") {
		t.Errorf("render missing tight pair:\n%s", text)
	}

	b, err := Bounds(context.Background(), m, 1)
	if err != nil {
		t.Fatalf("Bounds: %v", err)
	}
	if best := b.Best(); best.Upper.K != 3 || best.Lower.K != 2 || best != a.Best[0] {
		t.Errorf("bounds = %+v, want 3/2 as in the analysis %+v", best, a.Best[0])
	}
}

func TestFacadeGraphHelpers(t *testing.T) {
	g, err := Cycle(5)
	if err != nil {
		t.Fatalf("Cycle: %v", err)
	}
	sq, err := Power(g, 2)
	if err != nil {
		t.Fatalf("Power: %v", err)
	}
	p, err := Product(g, g)
	if err != nil {
		t.Fatalf("Product: %v", err)
	}
	if !sq.Equal(p) {
		t.Errorf("Power(g,2) != Product(g,g)")
	}
	if got := DominationNumber(g); got != 3 {
		t.Errorf("γ(cycle5) = %d, want 3", got)
	}
	set, size := MinDominatingSet(g)
	if size != 3 || g.OutSet(set) != g.Procs() {
		t.Errorf("MinDominatingSet wrong: %v size %d", set, size)
	}
}

func TestFacadeSimulation(t *testing.T) {
	star, err := Star(3, 0)
	if err != nil {
		t.Fatalf("Star: %v", err)
	}
	res, err := Run(Execution{
		Graphs:  []Digraph{star},
		Initial: []int{2, 0, 1},
	}, DominatingSetMinAlgorithm(star))
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	for p, d := range res.Decisions {
		if d != 2 {
			t.Errorf("decision[%d] = %d, want center value 2", p, d)
		}
	}

	m, err := NonEmptyKernelModel(3)
	if err != nil {
		t.Fatalf("NonEmptyKernelModel: %v", err)
	}
	wc, err := WorstCase(context.Background(), m.Generators(), 3, 1, MinAlgorithm(1), 1_000_000)
	if err != nil {
		t.Fatalf("WorstCase: %v", err)
	}
	if wc.WorstDistinct != 3 {
		t.Errorf("worst = %d, want 3", wc.WorstDistinct)
	}
}

func TestFacadeSequencesAndVerification(t *testing.T) {
	cyc, _ := Cycle(4)
	seq, err := CoveringSequence(cyc, 1)
	if err != nil {
		t.Fatalf("CoveringSequence: %v", err)
	}
	if !seq.ReachesAll || seq.Round != 3 {
		t.Errorf("sequence %v reaches=%v round=%d, want true/3", seq.Values, seq.ReachesAll, seq.Round)
	}

	m, _ := SimpleModel(cyc)
	b, _ := Bounds(context.Background(), m, 1)
	up := b.Best().Upper
	if err := VerifyUpperBySimulation(context.Background(), m, up, 2_000_000); err != nil {
		t.Errorf("verification failed: %v", err)
	}
	if err := VerifyUninterpretedConnectivity(context.Background(), m); err != nil {
		t.Errorf("Thm 4.12 verification failed: %v", err)
	}
}
