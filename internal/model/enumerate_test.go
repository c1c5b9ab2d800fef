package model

import (
	"context"
	"testing"

	"ksettop/internal/graph"
	"ksettop/internal/par"
)

// corpusModels returns the ≤ 6-process generator families the enumeration
// tests sweep: every closed-above flavor in the repository — simple, dense,
// sparse, symmetric, predicate-derived — whose rank space fits the default
// budget.
func corpusModels(t *testing.T) map[string]*ClosedAbove {
	t.Helper()
	out := map[string]*ClosedAbove{}
	add := func(name string, m *ClosedAbove, err error) {
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		out[name] = m
	}
	star3, _ := graph.Star(3, 0)
	star5, _ := graph.Star(5, 0)
	cyc4, _ := graph.Cycle(4)
	ring5, _ := graph.BidirectionalRing(5)
	clique4, _ := graph.Complete(4)

	m, err := Simple(star3)
	add("simple-star3", m, err)
	m, err = Simple(star5)
	add("simple-star5", m, err)
	m, err = Simple(cyc4)
	add("simple-cycle4", m, err)
	m, err = Simple(ring5)
	add("simple-ring5", m, err)
	m, err = Simple(clique4)
	add("simple-clique4", m, err)
	m, err = NonEmptyKernelModel(3)
	add("kernel3", m, err)
	m, err = NonEmptyKernelModel(4)
	add("kernel4", m, err)
	m, err = NonSplitModel(3)
	add("nonsplit3", m, err)
	m, err = NonSplitModel(4)
	add("nonsplit4", m, err)
	m, err = UnionOfStarsModel(4, 2)
	add("stars4-2", m, err)
	m, err = UnionOfStarsModel(5, 2)
	add("stars5-2", m, err)
	m, err = UnionOfStarsModel(6, 4)
	add("stars6-4", m, err)
	m, err = CycleModel(4)
	add("cyclemodel4", m, err)
	return out
}

func collectKeys(t *testing.T, m *ClosedAbove) []string {
	t.Helper()
	var keys []string
	if err := m.EnumerateGraphs(context.Background(), func(g graph.Digraph) bool {
		keys = append(keys, g.Key())
		return true
	}); err != nil {
		t.Fatalf("EnumerateGraphs: %v", err)
	}
	return keys
}

// TestEnumerateRangeShardUnion partitions the rank space of every corpus
// family into deliberately uneven shards and requires the concatenation to
// reproduce the sequential enumeration exactly — order included. This is
// the contract the parallel collector (AllGraphs) builds on.
func TestEnumerateRangeShardUnion(t *testing.T) {
	for name, m := range corpusModels(t) {
		want := collectKeys(t, m)
		size, err := m.EnumerationSize()
		if err != nil {
			t.Fatalf("%s: EnumerationSize: %v", name, err)
		}
		for _, pieces := range []int64{2, 3, 7, 16} {
			var got []string
			var lo int64
			for p := int64(0); p < pieces; p++ {
				hi := lo + size/pieces
				if p == pieces-1 {
					hi = size
				}
				// Uneven on purpose: shard boundaries land mid-segment.
				if p%2 == 1 && hi < size {
					hi++
				}
				if err := m.EnumerateRange(context.Background(), lo, hi, func(g graph.Digraph) bool {
					got = append(got, g.Key())
					return true
				}); err != nil {
					t.Fatalf("%s: EnumerateRange(%d,%d): %v", name, lo, hi, err)
				}
				lo = hi
			}
			if len(got) != len(want) {
				t.Fatalf("%s pieces=%d: shard union has %d graphs, sequential %d",
					name, pieces, len(got), len(want))
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("%s pieces=%d: shard union diverges at index %d", name, pieces, i)
				}
			}
		}
	}
}

// TestEnumerateNoDuplicatesAndMembership checks the first-owner dedup: every
// corpus closure element is yielded exactly once and belongs to the model.
func TestEnumerateNoDuplicatesAndMembership(t *testing.T) {
	for name, m := range corpusModels(t) {
		seen := map[string]bool{}
		if err := m.EnumerateGraphs(context.Background(), func(g graph.Digraph) bool {
			if !m.Contains(g) {
				t.Fatalf("%s: enumerated graph %v outside model", name, g)
			}
			k := g.Key()
			if seen[k] {
				t.Fatalf("%s: duplicate graph %v", name, g)
			}
			seen[k] = true
			return true
		}); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
	}
}

// TestGraphCountClosedFormCrossCheck pits the branching count against the
// streaming enumeration and, up to 22 generators, the inclusion–exclusion
// closed form on the whole corpus: three independent computations of
// |⋃ ↑G_i| must agree.
func TestGraphCountClosedFormCrossCheck(t *testing.T) {
	for name, m := range corpusModels(t) {
		count, err := m.GraphCountCtx(context.Background())
		if err != nil {
			t.Fatalf("%s: GraphCount: %v", name, err)
		}
		if enum := enumeratedCount(t, m); int64(count) != enum {
			t.Errorf("%s: branching count %d != enumeration %d", name, count, enum)
		}
		if len(m.Generators()) > 22 {
			continue // closed form is exponential in |S|
		}
		want, err := m.GraphCountClosedForm()
		if err != nil {
			t.Fatalf("%s: GraphCountClosedForm: %v", name, err)
		}
		if int64(count) != want {
			t.Errorf("%s: branching count %d != closed form %d", name, count, want)
		}
	}
}

// TestAllGraphsDeterministicAcrossParallelism pins that the sharded
// collector returns the exact sequential rank order for every worker count.
func TestAllGraphsDeterministicAcrossParallelism(t *testing.T) {
	m, err := NonEmptyKernelModel(4)
	if err != nil {
		t.Fatal(err)
	}
	want := collectKeys(t, m)
	defer par.SetParallelism(0)
	for _, workers := range []int{1, 2, 8} {
		par.SetParallelism(workers)
		all, err := m.AllGraphs()
		par.SetParallelism(0)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if len(all) != len(want) {
			t.Fatalf("workers=%d: %d graphs, want %d", workers, len(all), len(want))
		}
		for i, g := range all {
			if g.Key() != want[i] {
				t.Fatalf("workers=%d: order diverges at %d", workers, i)
			}
		}
	}
}

// TestEnumerationBeyondEightProcesses exercises the multiword mask path the
// seed enumerator could not reach: overlapping near-complete generators on
// 9 processes (n² = 81 edge slots > one machine word).
func TestEnumerateBeyondEightProcesses(t *testing.T) {
	mk := func(drop [][2]int) graph.Digraph {
		g, err := graph.Complete(9)
		if err != nil {
			t.Fatal(err)
		}
		for _, e := range drop {
			if err := g.RemoveEdge(e[0], e[1]); err != nil {
				t.Fatal(err)
			}
		}
		return g
	}
	// Two generators, each missing 6 edges, sharing 4 missing slots: the
	// closures overlap, so the first-owner dedup is exercised for real.
	g1 := mk([][2]int{{0, 1}, {0, 2}, {1, 2}, {3, 4}, {5, 6}, {7, 8}})
	g2 := mk([][2]int{{0, 1}, {0, 2}, {1, 2}, {3, 4}, {2, 1}, {8, 0}})
	m, err := New([]graph.Digraph{g1, g2})
	if err != nil {
		t.Fatal(err)
	}
	count, err := m.GraphCountCtx(context.Background())
	if err != nil {
		t.Fatalf("GraphCount: %v", err)
	}
	want, err := m.GraphCountClosedForm()
	if err != nil {
		t.Fatalf("GraphCountClosedForm: %v", err)
	}
	if int64(count) != want {
		t.Fatalf("n=9 count %d != closed form %d", count, want)
	}
	// |↑g1 ∪ ↑g2| = 2^6 + 2^6 − 2^4 (the intersection is the upward closure
	// of g1 ∪ g2, which misses the 4 shared slots).
	if count != 64+64-16 {
		t.Errorf("n=9 closure = %d, want 112", count)
	}
	seen := map[string]bool{}
	if err := m.EnumerateGraphs(context.Background(), func(g graph.Digraph) bool {
		if g.N() != 9 || !m.Contains(g) {
			t.Fatalf("bad enumerated graph %v", g)
		}
		k := g.Key()
		if seen[k] {
			t.Fatalf("duplicate graph in n=9 enumeration")
		}
		seen[k] = true
		return true
	}); err != nil {
		t.Fatal(err)
	}
	if len(seen) != count {
		t.Errorf("enumerated %d distinct graphs, count says %d", len(seen), count)
	}
}

// TestEnumerationBudget pins the budget guard and the escape hatch.
func TestEnumerationBudget(t *testing.T) {
	defer SetEnumerationBudget(0)
	star5, _ := graph.Star(5, 0)
	m, err := Simple(star5) // 16 missing edges: 2^16 ranks
	if err != nil {
		t.Fatal(err)
	}
	SetEnumerationBudget(1000)
	if _, err := m.EnumerationSize(); err == nil {
		t.Error("rank space 2^16 should exceed budget 1000")
	}
	SetEnumerationBudget(1 << 17)
	size, err := m.EnumerationSize()
	if err != nil || size != 1<<16 {
		t.Errorf("size = %d, err %v; want 65536", size, err)
	}
	SetEnumerationBudget(0) // restore default
	if EnumerationBudget() != DefaultEnumerationBudget {
		t.Errorf("budget reset failed")
	}
}
