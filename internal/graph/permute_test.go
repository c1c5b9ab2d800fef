package graph

import (
	"context"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"ksettop/internal/par"
)

// TestPermutationsRangeShardUnion checks that sharded lexicographic
// enumeration visits exactly the permutations Heap's algorithm visits.
func TestPermutationsRangeShardUnion(t *testing.T) {
	for n := 0; n <= 7; n++ {
		want := map[string]bool{}
		Permutations(n, func(perm []int) bool {
			want[permKey(perm)] = true
			return true
		})
		total := Factorial(n)
		for _, shards := range []int64{1, 3, 5} {
			got := map[string]bool{}
			var last []int
			for s := int64(0); s < shards; s++ {
				from := s * total / shards
				to := (s + 1) * total / shards
				if err := PermutationsRange(n, from, to, func(perm []int) bool {
					key := permKey(perm)
					if got[key] {
						t.Fatalf("n=%d shards=%d: permutation %v visited twice", n, shards, perm)
					}
					if last != nil && !lexLessInts(last, perm) {
						t.Fatalf("n=%d shards=%d: %v not after %v", n, shards, perm, last)
					}
					last = append(last[:0], perm...)
					got[key] = true
					return true
				}); err != nil {
					t.Fatal(err)
				}
			}
			if n > 0 && len(got) != len(want) {
				t.Fatalf("n=%d shards=%d: visited %d perms, want %d", n, shards, len(got), len(want))
			}
		}
	}
	if err := PermutationsRange(21, 0, 1, func([]int) bool { return true }); err == nil {
		t.Error("PermutationsRange(21, …) should reject overflowing rank space")
	}
}

func permKey(perm []int) string {
	b := make([]byte, len(perm))
	for i, v := range perm {
		b[i] = byte(v)
	}
	return string(b)
}

func lexLessInts(a, b []int) bool {
	for i := range a {
		if a[i] != b[i] {
			return a[i] < b[i]
		}
	}
	return false
}

// TestSymClosureDeterministicAcrossParallelism pins the closure (content and
// order) to the sequential result for several worker counts.
func TestSymClosureDeterministicAcrossParallelism(t *testing.T) {
	// n = 7 puts the 5040-permutation sweep over the sequential threshold, so
	// worker counts > 1 genuinely fan out. Sym(2-stars on 7) has C(7,2) = 21
	// elements.
	g, err := UnionOfStars(7, []int{0, 1})
	if err != nil {
		t.Fatal(err)
	}
	par.SetParallelism(1)
	want, err := SymClosure([]Digraph{g})
	par.SetParallelism(0)
	if err != nil {
		t.Fatal(err)
	}
	if len(want) != 21 {
		t.Fatalf("closure has %d graphs, want 21", len(want))
	}
	for _, workers := range []int{2, 4, 8} {
		par.SetParallelism(workers)
		got, err := SymClosure([]Digraph{g})
		par.SetParallelism(0)
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != len(want) {
			t.Fatalf("workers=%d: closure has %d graphs, want %d", workers, len(got), len(want))
		}
		for i := range got {
			if !got[i].Equal(want[i]) {
				t.Fatalf("workers=%d: closure[%d] = %v, want %v", workers, i, got[i], want[i])
			}
		}
	}
}

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
