package topology

import (
	"context"
	"testing"

	"ksettop/internal/bits"
)

func TestPseudosphereBasics(t *testing.T) {
	// Figure 3(b): P1,P2 with views {v1,v2} (encoded 0,1), P3 with view {v}.
	ps := NewPseudosphere([][]int{{0, 1}, {0, 1}, {7}})
	if ps.NumColors() != 3 || ps.NonemptyColors() != 3 {
		t.Errorf("colors wrong: %d/%d", ps.NumColors(), ps.NonemptyColors())
	}
	if ps.FacetCount() != 4 {
		t.Errorf("facets = %d, want 2·2·1 = 4", ps.FacetCount())
	}
	if ps.ConnectivityBound() != 1 {
		t.Errorf("connectivity bound = %d, want n−2 = 1", ps.ConnectivityBound())
	}
	count := 0
	ps.Facets(func(s Simplex[int]) bool {
		if s.Dimension() != 2 {
			t.Errorf("facet dim = %d, want 2", s.Dimension())
		}
		count++
		return true
	})
	if count != 4 {
		t.Errorf("enumerated %d facets, want 4", count)
	}
	// Early stop.
	count = 0
	ps.Facets(func(Simplex[int]) bool { count++; return false })
	if count != 1 {
		t.Errorf("early stop visited %d facets, want 1", count)
	}
}

func TestPseudosphereDuplicatesAndEmpty(t *testing.T) {
	ps := NewPseudosphere([][]int{{3, 3, 3}, {}, {1, 2}})
	if ps.NonemptyColors() != 2 {
		t.Errorf("nonempty colors = %d, want 2", ps.NonemptyColors())
	}
	if ps.FacetCount() != 2 {
		t.Errorf("facets = %d, want 1·2 = 2 (duplicates dropped)", ps.FacetCount())
	}
	void := NewPseudosphere[int]([][]int{{}, {}})
	if !void.IsVoid() || void.FacetCount() != 0 {
		t.Errorf("void pseudosphere mishandled")
	}
	if void.ConnectivityBound() != -2 {
		t.Errorf("void connectivity bound = %d, want -2", void.ConnectivityBound())
	}
}

func TestPseudosphereIntersectionLemma(t *testing.T) {
	// Lemma 4.6: φ(Π;U) ∩ φ(Π;V) = φ(Π;U∩V). Verify both symbolically and
	// on materialized complexes.
	u := NewPseudosphere([][]int{{0, 1, 2}, {0, 1}, {5}})
	w := NewPseudosphere([][]int{{1, 2, 3}, {1}, {5, 6}})
	inter, err := u.Intersect(w)
	if err != nil {
		t.Fatalf("Intersect: %v", err)
	}
	wantViews := [][]int{{1, 2}, {1}, {5}}
	for c, want := range wantViews {
		got := inter.Views(c)
		if len(got) != len(want) {
			t.Fatalf("color %d views = %v, want %v", c, got, want)
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("color %d views = %v, want %v", c, got, want)
			}
		}
	}

	// Materialized: complex(U) ∩ complex(W) == complex(U∩W).
	cu, cw, ci := u.ToComplex(), w.ToComplex(), inter.ToComplex()
	pairwise := cu.Intersection(cw)
	if pairwise.FacetCount() != ci.FacetCount() {
		t.Errorf("materialized intersection facets = %d, want %d",
			pairwise.FacetCount(), ci.FacetCount())
	}
	for _, f := range ci.Facets() {
		if !pairwise.ContainsSimplex(f) {
			t.Errorf("missing facet %v in materialized intersection", f)
		}
	}

	mismatched := NewPseudosphere([][]int{{0}})
	if _, err := u.Intersect(mismatched); err == nil {
		t.Errorf("mismatched color counts should error")
	}
}

func TestPseudosphereConnectivityViaHomology(t *testing.T) {
	// Lemma 4.7: φ(Π; V_i) is (m−2)-connected with m nonempty colors.
	// With 3 colors and 2 views each, the pseudosphere is the boundary of
	// the octahedron ≅ S²: 1-connected with β̃_2 = 1.
	ps := NewPseudosphere([][]int{{0, 1}, {0, 1}, {0, 1}})
	ac, _, err := ps.ToComplex().ToAbstract()
	if err != nil {
		t.Fatalf("ToAbstract: %v", err)
	}
	if ac.FacetCount() != 8 {
		t.Fatalf("octahedron should have 8 facets, got %d", ac.FacetCount())
	}
	betti, err := ReducedBettiNumbersCtx(context.Background(), ac, 2)
	if err != nil {
		t.Fatalf("ReducedBettiNumbers: %v", err)
	}
	if betti[0] != 0 || betti[1] != 0 || betti[2] != 1 {
		t.Errorf("octahedron betti = %v, want [0 0 1]", betti)
	}
	ok, _, _ := IsHomologicallyKConnected(context.Background(), ac, ps.ConnectivityBound())
	if !ok {
		t.Errorf("pseudosphere should be homologically %d-connected", ps.ConnectivityBound())
	}
}

func TestPseudosphereContainsFacet(t *testing.T) {
	ps := NewPseudosphere([][]bits.Set{
		{bits.New(0), bits.New(0, 1)},
		{bits.New(1)},
	})
	facet, _ := NewSimplex(
		Vertex[bits.Set]{Color: 0, View: bits.New(0)},
		Vertex[bits.Set]{Color: 1, View: bits.New(1)},
	)
	if !ps.ContainsFacet(facet) {
		t.Errorf("facet should be contained")
	}
	bad, _ := NewSimplex(
		Vertex[bits.Set]{Color: 0, View: bits.New(5)},
		Vertex[bits.Set]{Color: 1, View: bits.New(1)},
	)
	if ps.ContainsFacet(bad) {
		t.Errorf("unknown view should not be contained")
	}
	short, _ := NewSimplex(Vertex[bits.Set]{Color: 0, View: bits.New(0)})
	if ps.ContainsFacet(short) {
		t.Errorf("partial-support simplex is not a facet")
	}
}
