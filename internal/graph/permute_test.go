package graph

import (
	"context"
	"math/rand"
	"slices"
	"strings"
	"testing"
)

// TestSortByKeyMatchesKeyStrings pins sortByKey and CompareKeys to the
// order of the Key strings they replace, over seeded random graphs of mixed
// sizes: prefix-length ties, and rows past 8 processes, whose Key bytes
// order differently from the row values.
func TestSortByKeyMatchesKeyStrings(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	var gs []Digraph
	for i := 0; i < 300; i++ {
		g, err := Random(1+rng.Intn(12), rng.Float64(), rng)
		if err != nil {
			t.Fatal(err)
		}
		gs = append(gs, g)
	}
	for i, g := range gs {
		h := gs[(i*7+1)%len(gs)]
		if got, want := CompareKeys(g, h), strings.Compare(g.Key(), h.Key()); got != want {
			t.Fatalf("CompareKeys(%v, %v) = %d, key strings compare %d", g, h, got, want)
		}
	}
	sorted := slices.Clone(gs)
	sortByKey(sorted)
	for i := 1; i < len(sorted); i++ {
		if sorted[i-1].Key() > sorted[i].Key() {
			t.Fatalf("sortByKey: %v before %v", sorted[i-1], sorted[i])
		}
	}
	star, err := UnionOfStars(5, []int{0, 1})
	if err != nil {
		t.Fatal(err)
	}
	closure, err := SymClosure([]Digraph{star})
	if err != nil {
		t.Fatal(err)
	}
	products, err := ProductSet(context.Background(), closure, 2)
	if err != nil {
		t.Fatal(err)
	}
	for name, out := range map[string][]Digraph{"SymClosure": closure, "ProductSet": products} {
		for i := 1; i < len(out); i++ {
			if out[i-1].Key() >= out[i].Key() {
				t.Fatalf("%s: graph %d not strictly after graph %d in key order", name, i, i-1)
			}
		}
	}
}

// TestDigraphSetHashCollision drives digraphSet's overflow path, which only
// a 64-bit hash collision reaches: distinct graphs inserted under one hash
// must all stay members, in insertion order, and an equal graph must be
// found whichever slot holds it.
func TestDigraphSetHashCollision(t *testing.T) {
	a, b, c := MustNew(3), MustNew(3), MustNew(3)
	if err := b.AddEdge(0, 1); err != nil {
		t.Fatal(err)
	}
	if err := c.AddEdge(1, 2); err != nil {
		t.Fatal(err)
	}
	s := newDigraphSet()
	const h = 42
	s.insert(h, a)
	s.insert(h, b)
	if !s.has(h, a.out) || !s.has(h, b.out) || s.has(h, c.out) {
		t.Fatalf("membership under one hash: a %v, b %v, c %v; want true, true, false",
			s.has(h, a.out), s.has(h, b.out), s.has(h, c.out))
	}
	s.insert(h, c)
	if !s.has(h, c.out) || len(s.all) != 3 || !s.all[2].Equal(c) || len(s.overflow[h]) != 2 {
		t.Fatalf("third colliding graph: member %v, %d members, %d in overflow", s.has(h, c.out), len(s.all), len(s.overflow[h]))
	}
	if s.has(h+1, a.out) {
		t.Errorf("a graph was found under a hash it was never inserted with")
	}
}
