package topology

import (
	"context"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
)

func intHomologyOf(t *testing.T, n int, gens [][]int, maxDim int) *IntegerHomology {
	t.Helper()
	c := mustAbstract(t, n, gens)
	h, err := IntegerHomologyGroups(c, maxDim)
	if err != nil {
		t.Fatalf("IntegerHomologyGroups: %v", err)
	}
	return h
}

func TestIntegerHomologyClassicSpaces(t *testing.T) {
	tests := []struct {
		name    string
		n       int
		gens    [][]int
		betti   []int
		torsion [][]int64
	}{
		{"point", 1, [][]int{{0}}, []int{0, 0}, [][]int64{nil, nil}},
		{"two points", 2, [][]int{{0}, {1}}, []int{1, 0}, [][]int64{nil, nil}},
		{"circle", 3, [][]int{{0, 1}, {1, 2}, {0, 2}}, []int{0, 1}, [][]int64{nil, nil}},
		{"disk", 3, [][]int{{0, 1, 2}}, []int{0, 0}, [][]int64{nil, nil}},
		{"sphere", 4, [][]int{{0, 1, 2}, {0, 1, 3}, {0, 2, 3}, {1, 2, 3}},
			[]int{0, 0, 1}, [][]int64{nil, nil, nil}},
		{"wedge of two circles", 5, [][]int{
			{0, 1}, {1, 2}, {0, 2}, {2, 3}, {3, 4}, {2, 4},
		}, []int{0, 2}, [][]int64{nil, nil}},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			h := intHomologyOf(t, tt.n, tt.gens, len(tt.betti)-1)
			for q := range tt.betti {
				if h.Betti[q] != tt.betti[q] {
					t.Errorf("β̃_%d = %d, want %d", q, h.Betti[q], tt.betti[q])
				}
				if len(h.Torsion[q]) != len(tt.torsion[q]) {
					t.Errorf("torsion_%d = %v, want %v", q, h.Torsion[q], tt.torsion[q])
				}
			}
		})
	}
}

func TestIntegerHomologyProjectivePlaneTorsion(t *testing.T) {
	// RP²: H̃_1 = ℤ/2 (pure torsion), H̃_2 = 0 over ℤ. This is exactly where
	// integral homology is sharper than GF(2) (which reports β̃_1 = β̃_2 = 1).
	gens := [][]int{
		{0, 1, 4}, {0, 1, 5}, {0, 2, 3}, {0, 2, 5}, {0, 3, 4},
		{1, 2, 3}, {1, 2, 4}, {1, 3, 5}, {2, 4, 5}, {3, 4, 5},
	}
	h := intHomologyOf(t, 6, gens, 2)
	if h.Betti[0] != 0 || h.Betti[1] != 0 || h.Betti[2] != 0 {
		t.Errorf("RP² free ranks = %v, want all zero", h.Betti)
	}
	if len(h.Torsion[1]) != 1 || h.Torsion[1][0] != 2 {
		t.Errorf("H̃_1 torsion = %v, want [2]", h.Torsion[1])
	}
	if len(h.Torsion[2]) != 0 {
		t.Errorf("H̃_2 torsion = %v, want none", h.Torsion[2])
	}
	if s := h.String(); !strings.Contains(s, "ℤ/2") {
		t.Errorf("String() = %q, want ℤ/2 mentioned", s)
	}

	// The connectivity verdicts must agree in sign: RP² is 0-connected but
	// not 1-connected under both theories.
	c := mustAbstract(t, 6, gens)
	okInt, _, err := IsIntegrallyKConnected(c, 1)
	if err != nil {
		t.Fatalf("IsIntegrallyKConnected: %v", err)
	}
	okGF2, _, err := IsHomologicallyKConnected(context.Background(), c, 1)
	if err != nil {
		t.Fatalf("IsHomologicallyKConnected: %v", err)
	}
	if okInt || okGF2 {
		t.Errorf("RP² must fail 1-connectivity in both theories: int=%v gf2=%v", okInt, okGF2)
	}
	okInt, _, _ = IsIntegrallyKConnected(c, 0)
	if !okInt {
		t.Errorf("RP² is 0-connected")
	}
}

func TestIntegerHomologyEdgeCases(t *testing.T) {
	empty := mustAbstract(t, 2, nil)
	if _, err := IntegerHomologyGroups(empty, 0); err == nil {
		t.Errorf("empty complex should be rejected")
	}
	if ok, _, _ := IsIntegrallyKConnected(empty, -1); ok {
		t.Errorf("empty complex is not (-1)-connected")
	}
	if ok, _, _ := IsIntegrallyKConnected(empty, -2); !ok {
		t.Errorf("everything is (-2)-connected")
	}
	pt := mustAbstract(t, 1, [][]int{{0}})
	if _, err := IntegerHomologyGroups(pt, -1); err == nil {
		t.Errorf("negative dimension should be rejected")
	}
	if ok, _, _ := IsIntegrallyKConnected(pt, -1); !ok {
		t.Errorf("nonempty complex is (-1)-connected")
	}
	h := intHomologyOf(t, 1, [][]int{{0}}, 0)
	if h.String() != "H̃_0=0" {
		t.Errorf("String() = %q", h.String())
	}
}

func TestQuickIntegerMatchesGF2RanksModTorsion(t *testing.T) {
	// For complexes without 2-torsion beyond what GF(2) sees:
	// β̃^GF2_q = β̃^ℤ_q + t_q + t_{q-1}, where t_q counts even torsion
	// coefficients of H̃_q (universal coefficients over GF(2)).
	cfg := &quick.Config{MaxCount: 40, Rand: rand.New(rand.NewSource(77))}
	prop := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		var gens [][]int
		for i := 0; i < 6; i++ {
			size := 1 + r.Intn(4)
			s := make([]int, size)
			for j := range s {
				s[j] = r.Intn(7)
			}
			gens = append(gens, s)
		}
		c, err := NewAbstract(7, gens)
		if err != nil || c.IsEmpty() {
			return true
		}
		d := c.Dimension()
		gf2, err := ReducedBettiNumbersCtx(context.Background(), c, d)
		if err != nil {
			return false
		}
		ih, err := IntegerHomologyGroups(c, d)
		if err != nil {
			return false
		}
		evenTorsion := func(q int) int {
			if q < 0 || q >= len(ih.Torsion) {
				return 0
			}
			n := 0
			for _, t := range ih.Torsion[q] {
				if t%2 == 0 {
					n++
				}
			}
			return n
		}
		for q := 0; q <= d; q++ {
			if gf2[q] != ih.Betti[q]+evenTorsion(q)+evenTorsion(q-1) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, cfg); err != nil {
		t.Errorf("universal-coefficient consistency failed: %v", err)
	}
}

func TestIntegerHomologyOnProtocolComplexes(t *testing.T) {
	// The star-model uninterpreted complex is integrally (n−2)-connected —
	// the sharper version of the Thm 4.12 check.
	ps := NewPseudosphere([][]int{{0, 1}, {0, 1}, {0, 1}})
	ac, _, err := ps.ToComplex().ToAbstract()
	if err != nil {
		t.Fatalf("ToAbstract: %v", err)
	}
	ok, h, err := IsIntegrallyKConnected(ac, 1)
	if err != nil {
		t.Fatalf("IsIntegrallyKConnected: %v", err)
	}
	if !ok {
		t.Errorf("octahedron must be integrally 1-connected: %v", h)
	}
	full, err := IntegerHomologyGroups(ac, 2)
	if err != nil {
		t.Fatalf("IntegerHomologyGroups: %v", err)
	}
	if full.Betti[2] != 1 || len(full.Torsion[2]) != 0 {
		t.Errorf("octahedron H̃_2 = %v/%v, want ℤ", full.Betti[2], full.Torsion[2])
	}
}
