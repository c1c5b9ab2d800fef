package topology

import (
	"context"
	"testing"
)

func TestNerveSharedVertex(t *testing.T) {
	// Two triangles sharing vertex 2: nerve = one edge.
	a := mustAbstract(t, 5, [][]int{{0, 1, 2}})
	b := mustAbstract(t, 5, [][]int{{2, 3, 4}})
	nerve, err := Nerve([]*AbstractComplex{a, b})
	if err != nil {
		t.Fatalf("Nerve: %v", err)
	}
	if nerve.FacetCount() != 1 || nerve.Dimension() != 1 {
		t.Errorf("nerve = %v, want single edge", nerve)
	}
	if !NerveIsSimplex(nerve) {
		t.Errorf("nerve on two overlapping elements should be a simplex")
	}
}

func TestNerveDisjoint(t *testing.T) {
	a := mustAbstract(t, 4, [][]int{{0, 1}})
	b := mustAbstract(t, 4, [][]int{{2, 3}})
	nerve, err := Nerve([]*AbstractComplex{a, b})
	if err != nil {
		t.Fatalf("Nerve: %v", err)
	}
	if nerve.Dimension() != 0 || nerve.SimplexCount(0) != 2 {
		t.Errorf("nerve of disjoint cover should be two isolated vertices: %v", nerve)
	}
	if NerveIsSimplex(nerve) {
		t.Errorf("disjoint nerve is not a simplex")
	}
}

func TestNerveCycleCover(t *testing.T) {
	// Three arcs covering a circle pairwise-overlapping but with empty
	// triple intersection: nerve is the boundary of a triangle (a circle).
	// Arcs on vertices 0..5 (hexagon): {0,1,2}, {2,3,4}, {4,5,0}.
	a := mustAbstract(t, 6, [][]int{{0, 1}, {1, 2}})
	b := mustAbstract(t, 6, [][]int{{2, 3}, {3, 4}})
	c := mustAbstract(t, 6, [][]int{{4, 5}, {5, 0}})
	nerve, err := Nerve([]*AbstractComplex{a, b, c})
	if err != nil {
		t.Fatalf("Nerve: %v", err)
	}
	if nerve.FacetCount() != 3 || nerve.Dimension() != 1 {
		t.Errorf("nerve should be the triangle boundary, got %v facets dim %d",
			nerve.FacetCount(), nerve.Dimension())
	}
	// Nerve lemma sanity: both the hexagon and its nerve are circles.
	hexagon := mustAbstract(t, 6, [][]int{{0, 1}, {1, 2}, {2, 3}, {3, 4}, {4, 5}, {5, 0}})
	bHex, _ := ReducedBettiNumbersCtx(context.Background(), hexagon, 1)
	bNerve, _ := ReducedBettiNumbersCtx(context.Background(), nerve, 1)
	if bHex[0] != bNerve[0] || bHex[1] != bNerve[1] {
		t.Errorf("nerve lemma sanity failed: hexagon %v vs nerve %v", bHex, bNerve)
	}
}

func TestNerveEdgeCases(t *testing.T) {
	nerve, err := Nerve(nil)
	if err != nil || !nerve.IsEmpty() {
		t.Errorf("empty cover should give empty nerve")
	}
	a := mustAbstract(t, 3, [][]int{{0}})
	empty := mustAbstract(t, 3, nil)
	nerve, err = Nerve([]*AbstractComplex{a, empty})
	if err != nil {
		t.Fatalf("Nerve: %v", err)
	}
	if nerve.SimplexCount(0) != 1 {
		t.Errorf("empty cover element should contribute no nerve vertex: %v", nerve)
	}
	b := mustAbstract(t, 4, [][]int{{0}})
	if _, err := Nerve([]*AbstractComplex{a, b}); err == nil {
		t.Errorf("mismatched ambient vertex sets should error")
	}
}
