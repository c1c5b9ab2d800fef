package graph_test

import (
	"fmt"
	"math/rand"
	"testing"

	"ksettop/internal/cli"
	"ksettop/internal/graph"
	"ksettop/internal/model"
)

// isSymmetricOracle is the closure-equality check: a generator set is
// symmetric iff it equals its symmetric closure (Def 2.4). It builds the
// whole n! closure, so it is the slow, independent reference for
// graph.IsSymmetric's two-generator check.
func isSymmetricOracle(gens []graph.Digraph) (bool, error) {
	closure, err := graph.SymClosure(gens)
	if err != nil {
		return false, err
	}
	keys := make(map[string]bool, len(gens))
	for _, g := range gens {
		keys[g.Key()] = true
	}
	if len(closure) != len(keys) {
		return false, nil
	}
	for _, g := range closure {
		if !keys[g.Key()] {
			return false, nil
		}
	}
	return true, nil
}

// agreeWithOracle fails unless IsSymmetric and the oracle give the same
// answer on gens, and returns that answer.
func agreeWithOracle(t *testing.T, name string, gens []graph.Digraph) bool {
	t.Helper()
	got, err := graph.IsSymmetric(gens)
	if err != nil {
		t.Fatalf("%s: IsSymmetric: %v", name, err)
	}
	want, err := isSymmetricOracle(gens)
	if err != nil {
		t.Fatalf("%s: oracle: %v", name, err)
	}
	if got != want {
		t.Fatalf("%s: IsSymmetric = %v, closure oracle = %v (gens %v)", name, got, want, gens)
	}
	return got
}

// TestIsSymmetricMatchesClosureOracle holds IsSymmetric to the closure
// oracle on seeded random generator sets for n = 1..6, on their closures
// (always symmetric), and on each closure with one graph removed, which
// stays symmetric exactly when the removed graph is its own orbit. The
// oracle's closure of a closure costs n!·|closure| permutations, so the
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
			agreeWithOracle(t, name, gens)

			closure, err := graph.SymClosure(gens)
			if err != nil {
				t.Fatal(err)
			}
			if !agreeWithOracle(t, name+" closure", closure) {
				t.Fatalf("%s: the symmetric closure is not symmetric", name)
			}
			drop := rng.Intn(len(closure))
			orbit, err := graph.SymClosure(closure[drop : drop+1])
			if err != nil {
				t.Fatal(err)
			}
			rest := append(append([]graph.Digraph(nil), closure[:drop]...), closure[drop+1:]...)
			if len(rest) == 0 {
				continue
			}
			if got := agreeWithOracle(t, name+" closure minus one", rest); got != (len(orbit) == 1) {
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
			if got := agreeWithOracle(t, name, m.Generators()); got != m.IsSymmetric() {
				t.Errorf("%s: IsSymmetric(generators) = %v, model flag %v", name, got, m.IsSymmetric())
			}
		}
	}
}

// TestIsSymmetricErrors keeps the closure's three rejections: an empty
// list, mixed sizes, and a process count whose n! ranks overflow.
func TestIsSymmetricErrors(t *testing.T) {
	g3, g4, g21 := graph.MustNew(3), graph.MustNew(4), graph.MustNew(21)
	for name, gens := range map[string][]graph.Digraph{
		"empty":       nil,
		"mixed sizes": {g3, g4},
		"n=21":        {g21},
	} {
		_, err := graph.IsSymmetric(gens)
		_, oracleErr := isSymmetricOracle(gens)
		if err == nil || oracleErr == nil || err.Error() != oracleErr.Error() {
			t.Errorf("%s: IsSymmetric error %v, closure error %v", name, err, oracleErr)
		}
	}
}
