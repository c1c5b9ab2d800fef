package topology

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"strconv"
	"strings"
	"testing"

	"ksettop/internal/bits"
	"ksettop/internal/cli"
	"ksettop/internal/graph"
	"ksettop/internal/model"
)

// The orders below were defined by fmt-built string keys. The complexes now
// intern their vertices and store facets as vertex-id tuples: they render
// each distinct vertex's key once, order facets by their vertices' key
// ranks, and compare abstract simplexes by decimal arithmetic, without
// keys. These tests recompute the fmt keys and pin every order to them.

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

// TestComplexOrdersMatchFmtKeys pins the orders of the interpreted protocol
// complexes (2 and 3 values) and the uninterpreted complex of a seeded
// random n = 4 model, and of seeded random gens: models at n = 4 and 5 —
// the generator-set specs query-cold's betti requests carry.
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
	pinModelOrders(t, "seed-4 model", m)
	for seed := int64(1); seed <= 3; seed++ {
		rng := rand.New(rand.NewSource(seed))
		for _, n := range []int{4, 5} {
			gens := make([]graph.Digraph, 1+rng.Intn(3))
			for i := range gens {
				g, err := graph.Random(n, 0.8, rng)
				if err != nil {
					t.Fatal(err)
				}
				gens[i] = g
			}
			m, err := model.New(gens)
			if err != nil {
				t.Fatal(err)
			}
			spec := cli.FormatModel(m)
			if m, err = cli.ParseModel(spec); err != nil {
				t.Fatal(err)
			}
			pinModelOrders(t, spec, m)
		}
	}
}

// pinModelOrders pins the orders of m's protocol complexes over 2 and 3
// values and of its uninterpreted complex.
func pinModelOrders(t *testing.T, name string, m *model.ClosedAbove) {
	t.Helper()
	for _, values := range []int{2, 3} {
		inputs, err := InputAssignments(m.N(), values)
		if err != nil {
			t.Fatal(err)
		}
		pc, err := ProtocolComplexOneRound(context.Background(), m.Generators(), inputs)
		if err != nil {
			t.Fatal(err)
		}
		pinOrders(t, fmt.Sprintf("%s: protocol complex, %d values", name, values), pc)
	}
	uc, err := UninterpretedComplex(m.Generators())
	if err != nil {
		t.Fatal(err)
	}
	pinOrders(t, name+": uninterpreted complex", uc)
}

// TestCompareSimplexKeysMatchesJoinedKeys checks the key-free comparison on
// random vertex lists: one- to three-digit vertices, where a decimal prefix
// ("1" of "12") must sort as the joined strings do, and boundary values
// where the digit count changes (9/10, 99/100, 10^k ± 1 up to 10^18, the
// largest int) and decimal prefixes of each other (1, 10, 100, 11, …).
func TestCompareSimplexKeysMatchesJoinedKeys(t *testing.T) {
	boundary := []int{0, 1, 2, 9, 10, 11, 12, 19, 20, 99, 100, 101, 109, 110, 111, 999, 1000, 1001, math.MaxInt64, math.MaxInt64 - 1}
	for k, p := 1, 10; k <= 18; k, p = k+1, p*10 {
		boundary = append(boundary, p-1, p, p+1, p/10*11, p+p/10+1)
	}
	rng := rand.New(rand.NewSource(5))
	list := func() []int {
		s := make([]int, rng.Intn(4))
		for i := range s {
			if rng.Intn(2) == 0 {
				s[i] = boundary[rng.Intn(len(boundary))]
			} else {
				s[i] = rng.Intn(150)
			}
		}
		return s
	}
	check := func(a, b []int) {
		t.Helper()
		if got, want := compareSimplexKeys(a, b), strings.Compare(joinedKey(a), joinedKey(b)); got != want {
			t.Fatalf("compareSimplexKeys(%v, %v) = %d, joined keys compare %d", a, b, got, want)
		}
	}
	for _, x := range boundary {
		for _, y := range boundary {
			check([]int{x}, []int{y})
			check([]int{x, 5}, []int{y})
		}
	}
	for i := 0; i < 20000; i++ {
		a, b := list(), list()
		if rng.Intn(4) == 0 {
			b = append(slices.Clone(a), b...)
		}
		check(a, b)
	}
}

// FuzzProtocolComplex builds the protocol complex of fuzzed generator rows
// (n ≤ 5, 1–3 generators, 1–3 values) and checks ToAbstract's vertex table
// and facet list against an oracle that never touches Complex: it
// enumerates every generator, input and view choice, renders each vertex
// as fmt would ("p:{q:v …}"), and numbers and orders everything by those
// strings.
func FuzzProtocolComplex(f *testing.F) {
	f.Add([]byte{3, 1, 1, 0x06, 0x05, 0x03})
	f.Add([]byte{4, 2, 2, 0x0e, 0x0d, 0x0b, 0x07, 0x02, 0x04, 0x08, 0x01})
	f.Add([]byte{5, 1, 2, 0x1e, 0x1d, 0x1b, 0x17, 0x0f})
	f.Add([]byte{2, 3, 3, 0x02, 0x00, 0x00, 0x01, 0x03, 0x03})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 3 {
			return
		}
		n, k, values := 1+int(data[0])%5, 1+int(data[1])%3, 1+int(data[2])%3
		rows := data[3:]
		gens := make([]graph.Digraph, k)
		for i := range gens {
			rs := make([]bits.Set, n)
			for u := range rs {
				if j := i*n + u; j < len(rows) {
					rs[u] = bits.Set(rows[j]) & bits.Full(n)
				}
			}
			g, err := graph.FromRows(n, rs)
			if err != nil {
				t.Fatal(err)
			}
			gens[i] = g
		}
		// Each generator contributes Π_p 2^(n−|In(p)|) facets per input.
		inputs, err := InputAssignments(n, values)
		if err != nil {
			t.Fatal(err)
		}
		raw := 0
		for _, g := range gens {
			per := 1
			for p := 0; p < n; p++ {
				per <<= n - g.In(p).Count()
			}
			raw += per * len(inputs)
		}
		if raw > 1<<12 {
			return
		}
		pc, err := ProtocolComplexOneRound(context.Background(), gens, inputs)
		if err != nil {
			t.Fatal(err)
		}
		ac, table, err := pc.ToAbstract()
		if err != nil {
			t.Fatal(err)
		}
		wantVerts, wantFacets := protocolComplexOracle(gens, inputs)
		var gotVerts []string
		for _, v := range table {
			gotVerts = append(gotVerts, fmtVertexKey(v))
		}
		if !slices.Equal(gotVerts, wantVerts) {
			t.Fatalf("vertex table %v, oracle %v", gotVerts, wantVerts)
		}
		var gotFacets []string
		for _, f := range ac.Facets() {
			gotFacets = append(gotFacets, joinedKey(f))
		}
		if !slices.Equal(gotFacets, wantFacets) {
			t.Fatalf("abstract facets %v, oracle %v", gotFacets, wantFacets)
		}
	})
}

// protocolComplexOracle returns the vertex keys of the one-round protocol
// complex of gens over inputs, sorted, and its facets as joined keys of
// their vertex numbers in that table, sorted. Every facet has one vertex per
// process, so none is a face of another.
func protocolComplexOracle(gens []graph.Digraph, inputs []Assignment) (verts, facets []string) {
	n := gens[0].N()
	facetSet := map[string][]string{}
	vertSet := map[string]bool{}
	for _, g := range gens {
		// views[p] lists p's possible views: every S with In(p) ⊆ S ⊆ Π.
		views := make([][]int, n)
		for p := range views {
			in := 0
			for u := 0; u < n; u++ {
				if g.HasEdge(u, p) {
					in |= 1 << u
				}
			}
			for s := 0; s < 1<<n; s++ {
				if s&in == in {
					views[p] = append(views[p], s)
				}
			}
		}
		for _, tau := range inputs {
			choice := make([]int, n)
			for {
				facet := make([]string, n)
				for p := range facet {
					var b strings.Builder
					fmt.Fprintf(&b, "%d:{", p)
					sep := ""
					for q := 0; q < n; q++ {
						if views[p][choice[p]]&(1<<q) != 0 {
							fmt.Fprintf(&b, "%s%d:%d", sep, q, tau[q])
							sep = " "
						}
					}
					b.WriteString("}")
					facet[p] = b.String()
					vertSet[facet[p]] = true
				}
				facetSet[strings.Join(facet, "|")] = facet
				p := n - 1
				for ; p >= 0; p-- {
					if choice[p]++; choice[p] < len(views[p]) {
						break
					}
					choice[p] = 0
				}
				if p < 0 {
					break
				}
			}
		}
	}
	for v := range vertSet {
		verts = append(verts, v)
	}
	slices.Sort(verts)
	index := map[string]int{}
	for i, v := range verts {
		index[v] = i
	}
	for _, facet := range facetSet {
		ids := make([]int, len(facet))
		for i, v := range facet {
			ids[i] = index[v]
		}
		slices.Sort(ids)
		facets = append(facets, joinedKey(ids))
	}
	slices.Sort(facets)
	return verts, facets
}
