package graph_test

import (
	"fmt"
	"maps"
	"math/rand"
	"slices"
	"testing"

	"ksettop/internal/bits"
	"ksettop/internal/cli"
	"ksettop/internal/graph"
	"ksettop/internal/model"
)

// symClosureOracle is Def 2.4 read literally: π(G) for every G ∈ gens and
// every one of the n! permutations π (Heap's algorithm), deduplicated and
// sorted by Key string. It is the slow, independent reference for
// graph.SymClosure's two-generator orbit search and graph.IsSymmetric's
// two-generator check.
func symClosureOracle(t testing.TB, gens []graph.Digraph) []graph.Digraph {
	t.Helper()
	byKey := map[string]graph.Digraph{}
	graph.Permutations(gens[0].N(), func(perm []int) bool {
		for _, g := range gens {
			p, err := graph.Permute(g, perm)
			if err != nil {
				t.Fatal(err)
			}
			byKey[p.Key()] = p
		}
		return true
	})
	out := make([]graph.Digraph, 0, len(byKey))
	for _, key := range slices.Sorted(maps.Keys(byKey)) {
		out = append(out, byKey[key])
	}
	return out
}

// isSymmetricOracle is the closure-equality check: a generator set is
// symmetric iff it equals its symmetric closure (Def 2.4).
func isSymmetricOracle(closure, gens []graph.Digraph) bool {
	keys := make(map[string]bool, len(gens))
	for _, g := range gens {
		keys[g.Key()] = true
	}
	if len(closure) != len(keys) {
		return false
	}
	for _, g := range closure {
		if !keys[g.Key()] {
			return false
		}
	}
	return true
}

// agreeWithOracle fails unless SymClosure equals the oracle's closure in
// content and order and IsSymmetric gives the oracle's answer on gens; it
// returns the closure and that answer.
func agreeWithOracle(t testing.TB, name string, gens []graph.Digraph) ([]graph.Digraph, bool) {
	t.Helper()
	want := symClosureOracle(t, gens)
	closure, err := graph.SymClosure(gens)
	if err != nil {
		t.Fatalf("%s: SymClosure: %v", name, err)
	}
	if !slices.EqualFunc(closure, want, graph.Digraph.Equal) {
		t.Fatalf("%s: SymClosure has %d graphs, n! oracle %d (or a different order)\n got %v\nwant %v",
			name, len(closure), len(want), closure, want)
	}
	got, err := graph.IsSymmetric(gens)
	if err != nil {
		t.Fatalf("%s: IsSymmetric: %v", name, err)
	}
	if sym := isSymmetricOracle(want, gens); got != sym {
		t.Fatalf("%s: IsSymmetric = %v, closure oracle = %v (gens %v)", name, got, sym, gens)
	}
	return closure, got
}

// TestIsSymmetricMatchesClosureOracle holds SymClosure and IsSymmetric to
// the n! oracle on seeded random generator sets for n = 1..6, on their
// closures (always symmetric), and on each closure with one graph removed,
// which stays symmetric exactly when the removed graph is its own orbit.
// The oracle's closure of a closure costs n!·|closure| permutations, so the
// trial count shrinks with n.
func TestIsSymmetricMatchesClosureOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	trials := []int{1: 8, 2: 20, 3: 20, 4: 20, 5: 8, 6: 3}
	for n := 1; n <= 6; n++ {
		for trial := 0; trial < trials[n]; trial++ {
			gens := make([]graph.Digraph, 1+rng.Intn(3))
			for i := range gens {
				g, err := graph.Random(n, rng.Float64(), rng)
				if err != nil {
					t.Fatal(err)
				}
				gens[i] = g
			}
			name := fmt.Sprintf("n=%d trial %d", n, trial)
			closure, _ := agreeWithOracle(t, name, gens)

			if _, sym := agreeWithOracle(t, name+" closure", closure); !sym {
				t.Fatalf("%s: the symmetric closure is not symmetric", name)
			}
			drop := rng.Intn(len(closure))
			orbit, _ := agreeWithOracle(t, name+" orbit", closure[drop:drop+1])
			rest := append(append([]graph.Digraph(nil), closure[:drop]...), closure[drop+1:]...)
			if len(rest) == 0 {
				continue
			}
			if _, got := agreeWithOracle(t, name+" closure minus one", rest); got != (len(orbit) == 1) {
				t.Fatalf("%s: closure minus a graph with orbit size %d: symmetric = %v", name, len(orbit), got)
			}
		}
	}
}

// TestIsSymmetricNamedFamilies checks every named model family of the spec
// grammar, and the tournament model, against the oracle and against the
// symmetry flag the model was built with.
func TestIsSymmetricNamedFamilies(t *testing.T) {
	for n := 2; n <= 5; n++ {
		specs := []string{"star", "cycle", "simple-star", "simple-cycle", "nonsplit", "clique"}
		for i := range specs {
			specs[i] = fmt.Sprintf("%s:n=%d", specs[i], n)
		}
		for s := 1; s < n; s++ {
			specs = append(specs, fmt.Sprintf("stars:n=%d,s=%d", n, s))
		}
		models := map[string]*model.ClosedAbove{}
		for _, spec := range specs {
			m, err := cli.ParseModel(spec)
			if err != nil {
				t.Fatalf("%s: %v", spec, err)
			}
			models[spec] = m
		}
		m, err := model.TournamentModel(n)
		if err != nil {
			t.Fatalf("tournament n=%d: %v", n, err)
		}
		models[fmt.Sprintf("tournament n=%d", n)] = m
		for name, m := range models {
			if _, got := agreeWithOracle(t, name, m.Generators()); got != m.IsSymmetric() {
				t.Errorf("%s: IsSymmetric(generators) = %v, model flag %v", name, got, m.IsSymmetric())
			}
		}
	}
}

// TestIsSymmetricErrors keeps the closure's three rejections, with the
// same error from SymClosure and IsSymmetric: an empty list, mixed sizes,
// and a process count whose n! overflows int64.
func TestIsSymmetricErrors(t *testing.T) {
	g3, g4, g21 := graph.MustNew(3), graph.MustNew(4), graph.MustNew(21)
	for name, gens := range map[string][]graph.Digraph{
		"empty":       nil,
		"mixed sizes": {g3, g4},
		"n=21":        {g21},
	} {
		_, err := graph.IsSymmetric(gens)
		_, closureErr := graph.SymClosure(gens)
		if err == nil || closureErr == nil || err.Error() != closureErr.Error() {
			t.Errorf("%s: IsSymmetric error %v, closure error %v", name, err, closureErr)
		}
	}
}

// FuzzSymClosure holds SymClosure and IsSymmetric to the n! oracle on up to
// three generators over n ≤ 5 processes. Bit u·n+v of a mask is the edge
// u→v; self-loops are forced whatever the mask says.
func FuzzSymClosure(f *testing.F) {
	f.Add(uint8(4), uint8(0), uint32(0b1111), uint32(0), uint32(0))
	f.Add(uint8(5), uint8(2), uint32(0x1ffffff), uint32(0b10), uint32(1<<7))
	f.Add(uint8(3), uint8(1), uint32(0b010001100), uint32(0b100010001), uint32(0))
	f.Add(uint8(1), uint8(2), uint32(1), uint32(0), uint32(7))
	f.Fuzz(func(t *testing.T, size, count uint8, m0, m1, m2 uint32) {
		n := 1 + int(size)%5
		masks := []uint32{m0, m1, m2}[:1+int(count)%3]
		gens := make([]graph.Digraph, len(masks))
		for i, mask := range masks {
			rows := make([]bits.Set, n)
			for u := range rows {
				rows[u] = bits.Set(mask>>(u*n)) & bits.Full(n)
			}
			g, err := graph.FromRows(n, rows)
			if err != nil {
				t.Fatal(err)
			}
			gens[i] = g
		}
		agreeWithOracle(t, fmt.Sprintf("n=%d masks %x", n, masks), gens)
	})
}
