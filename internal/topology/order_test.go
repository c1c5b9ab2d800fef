package topology

import (
	"context"
	"fmt"
	"math/rand"
	"slices"
	"strconv"
	"strings"
	"testing"

	"ksettop/internal/graph"
	"ksettop/internal/model"
)

// The orders below were defined by fmt-built string keys; the complexes now
// build their keys with strconv appends and compare abstract simplexes
// without keys. These tests recompute the fmt keys and pin every order to
// them.

func fmtVertexKey[V comparable](v Vertex[V]) string { return fmt.Sprintf("%d:%v", v.Color, v.View) }

func fmtSimplexKey[V comparable](s Simplex[V]) string {
	var b strings.Builder
	for _, v := range s {
		fmt.Fprintf(&b, "%d:%v|", v.Color, v.View)
	}
	return b.String()
}

func joinedKey(s []int) string {
	parts := make([]string, len(s))
	for i, v := range s {
		parts[i] = strconv.Itoa(v)
	}
	return strings.Join(parts, ",")
}

// pinOrders checks Vertices, Facets, ToAbstract's vertex numbering and the
// abstract complex's facet order against the fmt keys.
func pinOrders[V comparable](t *testing.T, name string, c *Complex[V]) {
	t.Helper()
	facets := c.Facets()
	distinct := map[string]bool{}
	for i, f := range facets {
		if f.Key() != fmtSimplexKey(f) {
			t.Fatalf("%s: Key %q, fmt key %q", name, f.Key(), fmtSimplexKey(f))
		}
		if i > 0 && fmtSimplexKey(facets[i-1]) >= fmtSimplexKey(f) {
			t.Fatalf("%s: facet %d not strictly after facet %d in fmt key order", name, i, i-1)
		}
		for _, v := range f {
			distinct[fmtVertexKey(v)] = true
		}
	}
	verts := c.Vertices()
	if len(verts) != len(distinct) {
		t.Fatalf("%s: %d vertices, want %d distinct", name, len(verts), len(distinct))
	}
	for i := 1; i < len(verts); i++ {
		if fmtVertexKey(verts[i-1]) >= fmtVertexKey(verts[i]) {
			t.Fatalf("%s: vertex %d not strictly after vertex %d in fmt key order", name, i, i-1)
		}
	}
	ac, table, err := c.ToAbstract()
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(table, verts) {
		t.Fatalf("%s: ToAbstract vertex table differs from Vertices", name)
	}
	index := map[string]int{}
	for i, v := range table {
		index[fmtVertexKey(v)] = i
	}
	var want []string
	for _, f := range facets {
		ids := make([]int, len(f))
		for i, v := range f {
			ids[i] = index[fmtVertexKey(v)]
		}
		slices.Sort(ids)
		want = append(want, joinedKey(ids))
	}
	slices.Sort(want)
	var got []string
	for _, f := range ac.Facets() {
		got = append(got, joinedKey(f))
	}
	if !slices.Equal(got, want) {
		t.Fatalf("%s: abstract facets %v, want %v in joined-key order", name, got, want)
	}
}

// TestComplexOrdersMatchFmtKeys pins the orders of a seeded random n = 4
// model's interpreted protocol complexes (2 and 3 values) and of its
// uninterpreted complex.
func TestComplexOrdersMatchFmtKeys(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	gens := make([]graph.Digraph, 2)
	for i := range gens {
		g, err := graph.Random(4, 0.75, rng)
		if err != nil {
			t.Fatal(err)
		}
		gens[i] = g
	}
	m, err := model.New(gens)
	if err != nil {
		t.Fatal(err)
	}
	for _, values := range []int{2, 3} {
		inputs, err := InputAssignments(4, values)
		if err != nil {
			t.Fatal(err)
		}
		pc, err := ProtocolComplexOneRound(context.Background(), m.Generators(), inputs)
		if err != nil {
			t.Fatal(err)
		}
		pinOrders(t, fmt.Sprintf("protocol complex, %d values", values), pc)
	}
	uc, err := UninterpretedComplex(m.Generators())
	if err != nil {
		t.Fatal(err)
	}
	pinOrders(t, "uninterpreted complex", uc)
}

// TestCompareSimplexKeysMatchesJoinedKeys checks the key-free comparison on
// random vertex lists with one- to three-digit vertices, where a decimal
// prefix ("1" of "12") must sort as the joined strings do.
func TestCompareSimplexKeysMatchesJoinedKeys(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	list := func() []int {
		s := make([]int, rng.Intn(4))
		for i := range s {
			s[i] = rng.Intn(150)
		}
		return s
	}
	for i := 0; i < 5000; i++ {
		a, b := list(), list()
		if rng.Intn(4) == 0 {
			b = append(slices.Clone(a), b...)
		}
		if got, want := compareSimplexKeys(a, b), strings.Compare(joinedKey(a), joinedKey(b)); got != want {
			t.Fatalf("compareSimplexKeys(%v, %v) = %d, joined keys compare %d", a, b, got, want)
		}
	}
}
