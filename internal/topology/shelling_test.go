package topology

import (
	"context"
	"testing"
)

func TestFigure4aShellable(t *testing.T) {
	// Figure 4(a): two triangles glued along an edge.
	c := mustAbstract(t, 4, [][]int{{0, 1, 2}, {1, 2, 3}})
	order, ok, err := FindShellingOrder(c)
	if err != nil {
		t.Fatalf("FindShellingOrder: %v", err)
	}
	if !ok {
		t.Fatalf("Figure 4a complex must be shellable")
	}
	valid, err := IsShellingOrder(c, order)
	if err != nil || !valid {
		t.Errorf("returned order %v rejected: valid=%v err=%v", order, valid, err)
	}
}

func TestFigure4bNotShellable(t *testing.T) {
	// Figure 4(b): two triangles sharing only a vertex. The intersection of
	// the second facet with the first is 0-dimensional, never (d−1) = 1.
	c := mustAbstract(t, 5, [][]int{{0, 1, 2}, {2, 3, 4}})
	ok, err := IsShellable(c)
	if err != nil {
		t.Fatalf("IsShellable: %v", err)
	}
	if ok {
		t.Errorf("Figure 4b complex must not be shellable")
	}
}

func TestIsShellingOrderValidation(t *testing.T) {
	c := mustAbstract(t, 4, [][]int{{0, 1, 2}, {1, 2, 3}})
	if _, err := IsShellingOrder(c, []int{0}); err == nil {
		t.Errorf("wrong-length order should error")
	}
	if _, err := IsShellingOrder(c, []int{0, 0}); err == nil {
		t.Errorf("repeated index should error")
	}
	ok, err := IsShellingOrder(c, []int{0, 1})
	if err != nil || !ok {
		t.Errorf("[0,1] should be a shelling order: %v %v", ok, err)
	}
	ok, _ = IsShellingOrder(c, []int{1, 0})
	if !ok {
		t.Errorf("[1,0] should be a shelling order by symmetry")
	}

	nonPure := mustAbstract(t, 4, [][]int{{0, 1, 2}, {3}})
	if _, err := IsShellingOrder(nonPure, []int{0, 1}); err == nil {
		t.Errorf("non-pure complex should error")
	}
	if _, _, err := FindShellingOrder(nonPure); err == nil {
		t.Errorf("non-pure complex should error in search")
	}
}

func TestLemma415BoundarySubcomplexAnyOrderShells(t *testing.T) {
	// Lemma 4.15 ([HKR13] Thm 13.2.2): any pure (d−1)-subcomplex of the
	// boundary of a d-simplex is shellable and EVERY facet order is a
	// shelling order. Check all orders of ∂Δ³ and of a 3-facet subcomplex.
	full := [][]int{{0, 1, 2}, {0, 1, 3}, {0, 2, 3}, {1, 2, 3}}
	for _, facets := range [][][]int{full, full[:3], full[:2]} {
		c := mustAbstract(t, 4, facets)
		m := c.FacetCount()
		perms := allPerms(m)
		for _, p := range perms {
			ok, err := IsShellingOrder(c, p)
			if err != nil {
				t.Fatalf("IsShellingOrder(%v): %v", p, err)
			}
			if !ok {
				t.Errorf("order %v of a boundary subcomplex must shell (Lemma 4.15)", p)
			}
		}
	}
}

func allPerms(m int) [][]int {
	var out [][]int
	perm := make([]int, m)
	for i := range perm {
		perm[i] = i
	}
	var rec func(k int)
	rec = func(k int) {
		if k == m {
			cp := make([]int, m)
			copy(cp, perm)
			out = append(out, cp)
			return
		}
		for i := k; i < m; i++ {
			perm[k], perm[i] = perm[i], perm[k]
			rec(k + 1)
			perm[k], perm[i] = perm[i], perm[k]
		}
	}
	rec(0)
	return out
}

func TestShellableImpliesHomologyOfWedgeOfSpheres(t *testing.T) {
	// A shellable d-complex is homotopy equivalent to a wedge of d-spheres:
	// reduced homology vanishes below d. Cross-check the two machineries on
	// the boundary of the tetrahedron (shellable, and a 2-sphere).
	c := mustAbstract(t, 4, [][]int{{0, 1, 2}, {0, 1, 3}, {0, 2, 3}, {1, 2, 3}})
	ok, err := IsShellable(c)
	if err != nil || !ok {
		t.Fatalf("∂Δ³ must be shellable: %v %v", ok, err)
	}
	betti, err := ReducedBettiNumbersCtx(context.Background(), c, 2)
	if err != nil {
		t.Fatalf("ReducedBettiNumbers: %v", err)
	}
	if betti[0] != 0 || betti[1] != 0 || betti[2] != 1 {
		t.Errorf("∂Δ³ betti = %v, want [0 0 1]", betti)
	}
}

func TestEmptyAndSingleFacetShellable(t *testing.T) {
	empty := mustAbstract(t, 3, nil)
	ok, err := IsShellable(empty)
	if err != nil || !ok {
		t.Errorf("empty complex is trivially shellable")
	}
	single := mustAbstract(t, 3, [][]int{{0, 1, 2}})
	ok, err = IsShellable(single)
	if err != nil || !ok {
		t.Errorf("single facet is shellable")
	}
}
