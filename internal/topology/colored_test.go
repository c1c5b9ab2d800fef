package topology

import (
	"context"
	"testing"

	"ksettop/internal/bits"
)

func v(color int, view bits.Set) Vertex[bits.Set] {
	return Vertex[bits.Set]{Color: color, View: view}
}

func mustSimplex(t *testing.T, vs ...Vertex[bits.Set]) Simplex[bits.Set] {
	t.Helper()
	s, err := NewSimplex(vs...)
	if err != nil {
		t.Fatalf("NewSimplex: %v", err)
	}
	return s
}

func TestNewSimplexValidation(t *testing.T) {
	s := mustSimplex(t, v(2, bits.New(2)), v(0, bits.New(0)), v(1, bits.New(1)))
	if s.Dimension() != 2 {
		t.Errorf("dimension = %d, want 2", s.Dimension())
	}
	cols := s.Colors()
	if cols[0] != 0 || cols[1] != 1 || cols[2] != 2 {
		t.Errorf("colors not sorted: %v", cols)
	}
	if _, err := NewSimplex(v(0, bits.New(0)), v(0, bits.New(1))); err == nil {
		t.Errorf("duplicate color should fail")
	}
	view, ok := s.ViewOf(1)
	if !ok || view != bits.New(1) {
		t.Errorf("ViewOf(1) = %v %v", view, ok)
	}
	if _, ok := s.ViewOf(9); ok {
		t.Errorf("ViewOf missing color should report false")
	}
}

func TestSimplexFaceAndIntersect(t *testing.T) {
	big := mustSimplex(t, v(0, bits.New(0)), v(1, bits.New(1)), v(2, bits.New(2)))
	face := mustSimplex(t, v(0, bits.New(0)), v(2, bits.New(2)))
	notFace := mustSimplex(t, v(0, bits.New(0, 1)))

	if !face.IsFaceOf(big) {
		t.Errorf("face should be a face of big")
	}
	if notFace.IsFaceOf(big) {
		t.Errorf("different view should not be a face")
	}
	inter := big.Intersect(notFace)
	if len(inter) != 0 {
		t.Errorf("intersection should be empty, got %v", inter)
	}
	inter = big.Intersect(face)
	if len(inter) != 2 {
		t.Errorf("intersection should have 2 vertices, got %v", inter)
	}
}

func TestComplexAddFacetMaximality(t *testing.T) {
	c := NewComplex[bits.Set]()
	big := mustSimplex(t, v(0, bits.New(0)), v(1, bits.New(1)), v(2, bits.New(2)))
	face := mustSimplex(t, v(0, bits.New(0)), v(1, bits.New(1)))

	c.AddFacet(face)
	c.AddFacet(big) // absorbs face
	if c.FacetCount() != 1 {
		t.Fatalf("facets = %d, want 1 after absorption", c.FacetCount())
	}
	c.AddFacet(face) // face of existing: ignored
	if c.FacetCount() != 1 {
		t.Errorf("adding a face should not change facets")
	}
	other := mustSimplex(t, v(0, bits.New(0, 1)), v(1, bits.New(1)))
	c.AddFacet(other)
	if c.FacetCount() != 2 {
		t.Errorf("distinct facet should be added: %d", c.FacetCount())
	}
	if c.Dimension() != 2 || c.IsPure() {
		t.Errorf("dim=%d pure=%v, want 2/false", c.Dimension(), c.IsPure())
	}
	if !c.ContainsSimplex(face) {
		t.Errorf("face should be contained")
	}
}

func TestComplexUnionIntersection(t *testing.T) {
	a := NewComplex[bits.Set]()
	b := NewComplex[bits.Set]()
	s1 := mustSimplex(t, v(0, bits.New(0)), v(1, bits.New(1)))
	s2 := mustSimplex(t, v(0, bits.New(0)), v(1, bits.New(0, 1)))
	a.AddFacet(s1)
	b.AddFacet(s1)
	b.AddFacet(s2)

	inter := a.Intersection(b)
	if inter.FacetCount() != 1 {
		t.Errorf("intersection facets = %d, want 1", inter.FacetCount())
	}
	if !inter.ContainsSimplex(s1) {
		t.Errorf("intersection should contain the shared facet")
	}

	a.Union(b)
	if a.FacetCount() != 2 {
		t.Errorf("union facets = %d, want 2", a.FacetCount())
	}
}

func TestComplexIntersectionPartialOverlap(t *testing.T) {
	// Facets sharing only the color-0 vertex intersect in that vertex.
	a := NewComplex[bits.Set]()
	b := NewComplex[bits.Set]()
	a.AddFacet(mustSimplex(t, v(0, bits.New(0)), v(1, bits.New(1))))
	b.AddFacet(mustSimplex(t, v(0, bits.New(0)), v(1, bits.New(0, 1))))
	inter := a.Intersection(b)
	if inter.FacetCount() != 1 || inter.Dimension() != 0 {
		t.Errorf("intersection should be the single shared vertex: %d facets dim %d",
			inter.FacetCount(), inter.Dimension())
	}
}

func TestToAbstract(t *testing.T) {
	c := NewComplex[bits.Set]()
	c.AddFacet(mustSimplex(t, v(0, bits.New(0)), v(1, bits.New(1)), v(2, bits.New(2))))
	c.AddFacet(mustSimplex(t, v(0, bits.New(0, 1)), v(1, bits.New(1)), v(2, bits.New(2))))
	ac, verts, err := c.ToAbstract()
	if err != nil {
		t.Fatalf("ToAbstract: %v", err)
	}
	if len(verts) != 4 {
		t.Errorf("vertices = %d, want 4 (two color-0 views + one each for 1,2)", len(verts))
	}
	if ac.FacetCount() != 2 || ac.Dimension() != 2 {
		t.Errorf("abstract complex wrong: %v", ac)
	}
	// Two triangles sharing an edge: contractible.
	betti, err := ReducedBettiNumbersCtx(context.Background(), ac, 1)
	if err != nil {
		t.Fatalf("ReducedBettiNumbers: %v", err)
	}
	if betti[0] != 0 || betti[1] != 0 {
		t.Errorf("glued triangles betti = %v, want zeros", betti)
	}
}

func TestComplexVertices(t *testing.T) {
	c := NewComplex[bits.Set]()
	if !c.IsEmpty() || c.Dimension() != -1 {
		t.Errorf("fresh complex should be empty with dim -1")
	}
	c.AddFacet(mustSimplex(t, v(1, bits.New(1)), v(0, bits.New(0))))
	vs := c.Vertices()
	if len(vs) != 2 || vs[0].Color != 0 {
		t.Errorf("Vertices() = %v", vs)
	}
}
