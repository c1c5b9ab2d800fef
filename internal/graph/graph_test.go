package graph

import (
	"context"
	"errors"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"ksettop/internal/bits"
)

func TestNewBounds(t *testing.T) {
	if _, err := New(0); err == nil {
		t.Errorf("New(0) should fail")
	}
	if _, err := New(MaxProcs + 1); err == nil {
		t.Errorf("New(%d) should fail", MaxProcs+1)
	}
	g, err := New(4)
	if err != nil {
		t.Fatalf("New(4): %v", err)
	}
	for u := 0; u < 4; u++ {
		if !g.HasEdge(u, u) {
			t.Errorf("missing self-loop at %d", u)
		}
	}
	if got := g.EdgeCount(); got != 4 {
		t.Errorf("EdgeCount = %d, want 4 (self-loops only)", got)
	}
}

func TestAddRemoveEdge(t *testing.T) {
	g := MustNew(3)
	if err := g.AddEdge(0, 2); err != nil {
		t.Fatalf("AddEdge: %v", err)
	}
	if !g.HasEdge(0, 2) || g.HasEdge(2, 0) {
		t.Errorf("edge direction wrong after AddEdge")
	}
	if err := g.AddEdge(0, 3); err == nil {
		t.Errorf("AddEdge out of range should fail")
	}
	if err := g.RemoveEdge(0, 2); err != nil {
		t.Fatalf("RemoveEdge: %v", err)
	}
	if g.HasEdge(0, 2) {
		t.Errorf("edge still present after RemoveEdge")
	}
	if err := g.RemoveEdge(1, 1); err == nil {
		t.Errorf("removing a self-loop should fail")
	}
}

func TestInOut(t *testing.T) {
	g := MustNew(4)
	g.AddEdge(0, 1)
	g.AddEdge(2, 1)
	g.AddEdge(1, 3)

	if got := g.Out(0); got != bits.New(0, 1) {
		t.Errorf("Out(0) = %v", got)
	}
	if got := g.In(1); got != bits.New(0, 1, 2) {
		t.Errorf("In(1) = %v", got)
	}
	if got := g.OutSet(bits.New(0, 1)); got != bits.New(0, 1, 3) {
		t.Errorf("OutSet({0,1}) = %v", got)
	}
	if got := g.InSet(bits.New(1, 3)); got != bits.New(0, 1, 2, 3) {
		t.Errorf("InSet({1,3}) = %v", got)
	}
}

func TestIsSubgraphOfAndUnion(t *testing.T) {
	star, _ := Star(4, 0)
	clique, _ := Complete(4)
	if !star.IsSubgraphOf(clique) {
		t.Errorf("star should be subgraph of clique")
	}
	if clique.IsSubgraphOf(star) {
		t.Errorf("clique is not a subgraph of star")
	}
	if !star.IsSubgraphOf(star) {
		t.Errorf("subgraph relation should be reflexive")
	}

	cyc, _ := Cycle(4)
	u, err := star.Union(cyc)
	if err != nil {
		t.Fatalf("Union: %v", err)
	}
	if !star.IsSubgraphOf(u) || !cyc.IsSubgraphOf(u) {
		t.Errorf("union must contain both operands")
	}
	other := MustNew(5)
	if _, err := star.Union(other); err == nil {
		t.Errorf("union of mismatched sizes should fail")
	}
}

func TestGenerators(t *testing.T) {
	t.Run("complete", func(t *testing.T) {
		g, _ := Complete(5)
		if g.EdgeCount() != 25 {
			t.Errorf("clique edge count = %d, want 25", g.EdgeCount())
		}
	})
	t.Run("star", func(t *testing.T) {
		g, _ := Star(5, 2)
		if g.Out(2) != bits.Full(5) {
			t.Errorf("center must broadcast: %v", g.Out(2))
		}
		for u := 0; u < 5; u++ {
			if u != 2 && g.Out(u) != bits.Single(u) {
				t.Errorf("leaf %d should be silent: %v", u, g.Out(u))
			}
		}
		if _, err := Star(5, 7); err == nil {
			t.Errorf("out-of-range center should fail")
		}
	})
	t.Run("union of stars", func(t *testing.T) {
		g, _ := UnionOfStars(5, []int{1, 3})
		if g.Out(1) != bits.Full(5) || g.Out(3) != bits.Full(5) {
			t.Errorf("both centers must broadcast")
		}
		if g.Out(0) != bits.Single(0) {
			t.Errorf("non-center must be silent")
		}
	})
	t.Run("cycle", func(t *testing.T) {
		g, _ := Cycle(4)
		for u := 0; u < 4; u++ {
			if g.Out(u) != bits.New(u, (u+1)%4) {
				t.Errorf("cycle out(%d) = %v", u, g.Out(u))
			}
		}
		if !g.IsStronglyConnected() {
			t.Errorf("cycle should be strongly connected")
		}
	})
	t.Run("path", func(t *testing.T) {
		g, _ := DirectedPath(4)
		if g.IsStronglyConnected() {
			t.Errorf("path should not be strongly connected")
		}
		if !g.HasEdge(0, 1) || g.HasEdge(3, 0) {
			t.Errorf("path edges wrong")
		}
	})
	t.Run("bidirectional ring", func(t *testing.T) {
		g, _ := BidirectionalRing(5)
		for u := 0; u < 5; u++ {
			if g.Out(u).Count() != 3 {
				t.Errorf("ring out-degree = %d, want 3", g.Out(u).Count())
			}
		}
	})
	t.Run("out tree", func(t *testing.T) {
		g, _ := OutTree(7)
		if !g.HasEdge(0, 1) || !g.HasEdge(0, 2) || !g.HasEdge(2, 6) {
			t.Errorf("tree edges wrong")
		}
		if g.HasEdge(1, 0) {
			t.Errorf("tree should be directed away from root")
		}
	})
	t.Run("bipartite", func(t *testing.T) {
		g, _ := BipartiteCross(5, 2)
		if g.Out(0) != bits.New(0, 2, 3, 4) {
			t.Errorf("left node out = %v", g.Out(0))
		}
		if g.Out(3) != bits.New(0, 1, 3) {
			t.Errorf("right node out = %v", g.Out(3))
		}
		if _, err := BipartiteCross(4, 5); err == nil {
			t.Errorf("bad split should fail")
		}
	})
	t.Run("from adjacency", func(t *testing.T) {
		g, err := FromAdjacency([][]int{{1}, {2}, {0}})
		if err != nil {
			t.Fatalf("FromAdjacency: %v", err)
		}
		cyc, _ := Cycle(3)
		if !g.Equal(cyc) {
			t.Errorf("FromAdjacency != Cycle(3)")
		}
		if _, err := FromAdjacency([][]int{{5}}); err == nil {
			t.Errorf("out-of-range adjacency should fail")
		}
	})
}

func TestPredicates(t *testing.T) {
	star, _ := Star(4, 0)
	if !star.HasKernel() {
		t.Errorf("star has a broadcaster")
	}
	cyc, _ := Cycle(4)
	if cyc.HasKernel() {
		t.Errorf("cycle has no broadcaster")
	}
	if !star.IsNonSplit() {
		t.Errorf("star is non-split (everyone hears the center)")
	}
	// Two disjoint halves that never hear a common process.
	g := MustNew(4)
	g.AddEdge(0, 1)
	g.AddEdge(2, 3)
	if g.IsNonSplit() {
		t.Errorf("split graph reported non-split")
	}
}

func TestProductDefinition(t *testing.T) {
	// Product against a direct O(n^3) reference implementation.
	ref := func(g, h Digraph) Digraph {
		p := MustNew(g.N())
		for u := 0; u < g.N(); u++ {
			for w := 0; w < g.N(); w++ {
				if !g.HasEdge(u, w) {
					continue
				}
				for v := 0; v < g.N(); v++ {
					if h.HasEdge(w, v) {
						p.AddEdge(u, v)
					}
				}
			}
		}
		return p
	}
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 50; trial++ {
		g, _ := Random(5, 0.3, rng)
		h, _ := Random(5, 0.3, rng)
		got, err := Product(g, h)
		if err != nil {
			t.Fatalf("Product: %v", err)
		}
		if want := ref(g, h); !got.Equal(want) {
			t.Fatalf("Product mismatch:\n got %v\nwant %v", got, want)
		}
	}
}

func TestProductContainsOperands(t *testing.T) {
	// Self-loops make E(g) ∪ E(h) ⊆ E(g⊗h).
	rng := rand.New(rand.NewSource(8))
	for trial := 0; trial < 30; trial++ {
		g, _ := Random(5, 0.25, rng)
		h, _ := Random(5, 0.25, rng)
		p, _ := Product(g, h)
		if !g.IsSubgraphOf(p) || !h.IsSubgraphOf(p) {
			t.Fatalf("product must contain both operands")
		}
	}
}

func TestPower(t *testing.T) {
	cyc, _ := Cycle(6)
	sq, err := Power(cyc, 2)
	if err != nil {
		t.Fatalf("Power: %v", err)
	}
	// Squared cycle: u reaches u, u+1, u+2.
	for u := 0; u < 6; u++ {
		want := bits.New(u, (u+1)%6, (u+2)%6)
		if sq.Out(u) != want {
			t.Errorf("cycle² out(%d) = %v, want %v", u, sq.Out(u), want)
		}
	}
	// Power(g, n-1) of a cycle is the clique's reachability... Power(cyc,5):
	// u reaches u..u+5 = everyone.
	full, _ := Power(cyc, 5)
	clique, _ := Complete(6)
	if !full.Equal(clique) {
		t.Errorf("cycle^5 on 6 nodes should be complete")
	}
	if _, err := Power(cyc, 0); err == nil {
		t.Errorf("Power(g,0) should fail")
	}
	one, _ := Power(cyc, 1)
	if !one.Equal(cyc) {
		t.Errorf("Power(g,1) should equal g")
	}
}

func TestProductSet(t *testing.T) {
	s1, _ := Star(3, 0)
	s2, _ := Star(3, 1)
	gens := []Digraph{s1, s2}
	prods, err := ProductSet(context.Background(), gens, 2)
	if err != nil {
		t.Fatalf("ProductSet: %v", err)
	}
	// Star products: star_i ⊗ star_j. Out-rows: center i broadcasts in first
	// round; then in second round every holder of i's value... compute via
	// reference: result must contain each pairwise product.
	seen := make(map[string]bool)
	for _, p := range prods {
		seen[p.Key()] = true
	}
	for _, a := range gens {
		for _, b := range gens {
			p, _ := Product(a, b)
			if !seen[p.Key()] {
				t.Errorf("missing product %v", p)
			}
		}
	}
	if _, err := ProductSet(context.Background(), nil, 2); err == nil {
		t.Errorf("empty generator list should fail")
	}
	if _, err := ProductSet(context.Background(), gens, 0); err == nil {
		t.Errorf("r=0 should fail")
	}
}

func TestPermute(t *testing.T) {
	star, _ := Star(4, 0)
	p, err := Permute(star, []int{2, 1, 0, 3})
	if err != nil {
		t.Fatalf("Permute: %v", err)
	}
	want, _ := Star(4, 2)
	if !p.Equal(want) {
		t.Errorf("permuted star center should move: %v", p)
	}
	if _, err := Permute(star, []int{0, 0, 1, 2}); err == nil {
		t.Errorf("non-permutation should fail")
	}
	if _, err := Permute(star, []int{0, 1}); err == nil {
		t.Errorf("wrong-length permutation should fail")
	}
}

func TestPermutationsCount(t *testing.T) {
	want := map[int]int{1: 1, 2: 2, 3: 6, 4: 24, 5: 120}
	for n, expected := range want {
		count := 0
		seen := make(map[string]bool)
		Permutations(n, func(perm []int) bool {
			count++
			key := ""
			for _, v := range perm {
				key += string(rune('a' + v))
			}
			seen[key] = true
			return true
		})
		if count != expected || len(seen) != expected {
			t.Errorf("Permutations(%d): %d calls, %d distinct, want %d", n, count, len(seen), expected)
		}
	}
}

func TestSymClosure(t *testing.T) {
	star, _ := Star(4, 0)
	closure, err := SymClosure([]Digraph{star})
	if err != nil {
		t.Fatalf("SymClosure: %v", err)
	}
	if len(closure) != 4 {
		t.Errorf("Sym(star on 4) has %d graphs, want 4 (one per center)", len(closure))
	}
	sym, err := IsSymmetric(closure)
	if err != nil {
		t.Fatalf("IsSymmetric: %v", err)
	}
	if !sym {
		t.Errorf("closure should be symmetric")
	}
	sym, _ = IsSymmetric([]Digraph{star})
	if sym {
		t.Errorf("single star is not symmetric")
	}
	// Clique is alone in its orbit.
	clique, _ := Complete(4)
	closure, _ = SymClosure([]Digraph{clique})
	if len(closure) != 1 {
		t.Errorf("Sym(clique) has %d graphs, want 1", len(closure))
	}
	if _, err := SymClosure(nil); err == nil {
		t.Errorf("empty generator list should fail")
	}
}

func TestSymClosureUnionOfStars(t *testing.T) {
	// Sym(union of s stars on n procs) should have C(n,s) members.
	g, _ := UnionOfStars(5, []int{0, 1})
	closure, err := SymClosure([]Digraph{g})
	if err != nil {
		t.Fatalf("SymClosure: %v", err)
	}
	if len(closure) != 10 {
		t.Errorf("Sym(2 stars on 5) has %d graphs, want C(5,2)=10", len(closure))
	}
}

func TestKeyStringDOT(t *testing.T) {
	g1, _ := Cycle(4)
	g2, _ := Cycle(4)
	g3, _ := Star(4, 0)
	if g1.Key() != g2.Key() {
		t.Errorf("equal graphs must have equal keys")
	}
	if g1.Key() == g3.Key() {
		t.Errorf("distinct graphs must have distinct keys")
	}
	if s := g1.String(); !strings.Contains(s, "0→{0,1}") {
		t.Errorf("String() = %q", s)
	}
	dot := g3.DOT("star")
	if !strings.Contains(dot, "p0 -> p1") || strings.Contains(dot, "p0 -> p0") {
		t.Errorf("DOT output wrong:\n%s", dot)
	}
}

func TestQuickProductAssociative(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	cfg := &quick.Config{MaxCount: 40, Rand: rng}
	assoc := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		a, _ := Random(4, 0.3, r)
		b, _ := Random(4, 0.3, r)
		c, _ := Random(4, 0.3, r)
		ab, _ := Product(a, b)
		bc, _ := Product(b, c)
		l, _ := Product(ab, c)
		rr, _ := Product(a, bc)
		return l.Equal(rr)
	}
	if err := quick.Check(assoc, cfg); err != nil {
		t.Errorf("product associativity failed: %v", err)
	}
}

func TestQuickPermutePreservesCounts(t *testing.T) {
	cfg := &quick.Config{MaxCount: 40, Rand: rand.New(rand.NewSource(12))}
	prop := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		g, _ := Random(5, 0.4, r)
		perm := r.Perm(5)
		p, err := Permute(g, perm)
		if err != nil {
			return false
		}
		if p.EdgeCount() != g.EdgeCount() {
			return false
		}
		// In/out degree multisets preserved.
		return p.Out(perm[0]).Count() == g.Out(0).Count() &&
			p.In(perm[3]).Count() == g.In(3).Count()
	}
	if err := quick.Check(prop, cfg); err != nil {
		t.Errorf("permutation invariants failed: %v", err)
	}
}

func TestReachAndStrongConnectivity(t *testing.T) {
	g := MustNew(4)
	g.AddEdge(0, 1)
	g.AddEdge(1, 2)
	if got := g.reachFrom(0); got != bits.New(0, 1, 2) {
		t.Errorf("reachFrom(0) = %v", got)
	}
	if g.IsStronglyConnected() {
		t.Errorf("graph is not strongly connected")
	}
	clique, _ := Complete(4)
	if !clique.IsStronglyConnected() {
		t.Errorf("clique is strongly connected")
	}
}

// pollCtx counts its Err calls and reports cancellation from call cancelAt
// on (never when cancelAt is 0): a deterministic stand-in for a cancel
// arriving mid-sweep.
type pollCtx struct {
	context.Context
	polls, cancelAt int
}

func (c *pollCtx) Err() error {
	if c.polls++; c.cancelAt > 0 && c.polls >= c.cancelAt {
		return context.Canceled
	}
	return nil
}

// ProductSet polls its context once per 4096 products: over the 64 graphs
// on 3 processes, S^4 is 3·64·64 products (S^r stays all 64 graphs, as the
// loops-only graph is a product identity). Uncancelled it polls 3 times
// and matches the unpolled sweep; cancelled at the second poll it stops
// there and returns the cause with no partial set.
func TestProductSetCancellation(t *testing.T) {
	var gens []Digraph
	for mask := 0; mask < 64; mask++ {
		g := MustNew(3)
		for e, edge := range [][2]int{{0, 1}, {0, 2}, {1, 0}, {1, 2}, {2, 0}, {2, 1}} {
			if mask&(1<<e) != 0 {
				if err := g.AddEdge(edge[0], edge[1]); err != nil {
					t.Fatal(err)
				}
			}
		}
		gens = append(gens, g)
	}
	want, err := ProductSet(context.Background(), gens, 4)
	if err != nil {
		t.Fatal(err)
	}
	uncancelled := &pollCtx{Context: context.Background()}
	got, err := ProductSet(uncancelled, gens, 4)
	if err != nil || len(got) != len(want) || uncancelled.polls != 3 {
		t.Fatalf("uncancelled: %d products, %d polls, err %v; want %d products, 3 polls", len(got), uncancelled.polls, err, len(want))
	}
	for i := range want {
		if !got[i].Equal(want[i]) {
			t.Fatalf("uncancelled product %d differs: %v vs %v", i, got[i], want[i])
		}
	}
	cancelled := &pollCtx{Context: context.Background(), cancelAt: 2}
	got, err = ProductSet(cancelled, gens, 4)
	if !errors.Is(err, context.Canceled) || got != nil {
		t.Fatalf("cancelled at poll 2: %d products, err %v; want none and context.Canceled", len(got), err)
	}
	if cancelled.polls > 3 { // the stopping poll plus context.Cause's read
		t.Fatalf("cancelled sweep kept polling: %d polls", cancelled.polls)
	}
}
