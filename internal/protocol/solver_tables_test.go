package protocol

import (
	"context"
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"ksettop/internal/bits"
	"ksettop/internal/graph"
	"ksettop/internal/model"
)

// constraintSetOracle builds the search tables of the rank space the slow
// way: views are interned through a string-keyed map, and every rank's
// sorted view list goes through a hash set, so only lists the set has not
// seen become constraints. It returns the tables and the number of distinct
// constraints. The production build keeps no set and writes one constraint
// per rank; the two agree exactly when the set never finds a duplicate.
func constraintSetOracle(in solveInput, k int) (*solveTables, int64) {
	viewIDs := make(map[string]int32)
	var views []View
	intern := func(inSet bits.Set, assignment []Value) int32 {
		v := make(View, in.n)
		for i := range v {
			v[i] = NoValue
		}
		inSet.ForEach(func(q int) { v[q] = assignment[q] })
		key := ViewKey(v)
		id, ok := viewIDs[key]
		if !ok {
			id = int32(len(views))
			viewIDs[key] = id
			views = append(views, v)
		}
		return id
	}
	constraints := newListSet()
	assignment := make([]Value, in.n)
	viewOfInSet := make([]int32, len(in.inSets))
	for more := true; more; more = incCounter(assignment, in.numValues) {
		for s, inSet := range in.inSets {
			viewOfInSet[s] = intern(inSet, assignment)
		}
		for li := range in.lists.count() {
			list := in.lists.get(int32(li))
			var ids []int32
			for _, s := range list {
				ids = append(ids, viewOfInSet[s])
			}
			constraints.insert(sortDedupInt32(ids))
		}
	}
	t := assembleTables(k, in.numValues, views, constraints.offs, constraints.arena)
	return t, int64(constraints.count())
}

// checkTablesAgainstOracle requires the rank-order constraint CSR of graphs
// to equal the constraint-set oracle's tables, with one distinct constraint
// per rank.
func checkTablesAgainstOracle(t *testing.T, name string, graphs []graph.Digraph, numValues int) {
	t.Helper()
	in := newSolveInput(graphs, numValues)
	total := int64(in.lists.count())
	for range in.n {
		total *= int64(numValues)
	}
	views, offs, cons := buildSolveTables(in, total, func() bool { return false })
	got := assembleTables(2, numValues, views, offs, cons)
	want, distinct := constraintSetOracle(in, 2)
	if distinct != total {
		t.Errorf("%s: %d distinct constraints over %d ranks", name, distinct, total)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("%s: rank-order tables differ from the constraint-set oracle (%d vs %d constraints, %d vs %d views)",
			name, got.numCons(), want.numCons(), len(got.views), len(want.views))
	}
}

// symmetricModels3 returns the closures of the 75 nonempty symmetric
// closed-above models on 3 processes. Such a closure is a union of
// isomorphism classes of digraphs, closed under adding edges, so it is an
// up-closed subset of the 16 classes.
func symmetricModels3(t *testing.T) [][]graph.Digraph {
	t.Helper()
	const n = 3
	all := make([]graph.Digraph, 1<<(n*(n-1)))
	classOf := make([]int, len(all))
	classIDs := make(map[string]int)
	var edges [][2]int
	for u := range n {
		for v := range n {
			if u != v {
				edges = append(edges, [2]int{u, v})
			}
		}
	}
	for mask := range all {
		g := graph.MustNew(n)
		for i, e := range edges {
			if mask>>i&1 == 1 {
				if err := g.AddEdge(e[0], e[1]); err != nil {
					t.Fatal(err)
				}
			}
		}
		key := graph.CanonicalKey(g)
		id, ok := classIDs[key]
		if !ok {
			id = len(classIDs)
			classIDs[key] = id
		}
		all[mask], classOf[mask] = g, id
	}
	var out [][]graph.Digraph
	for set := 1; set < 1<<len(classIDs); set++ {
		upClosed := true
		for mask := range all {
			for i := range edges {
				if set>>classOf[mask]&1 == 1 && set>>classOf[mask|1<<i]&1 == 0 {
					upClosed = false
				}
			}
		}
		if !upClosed {
			continue
		}
		var closure []graph.Digraph
		for mask, g := range all {
			if set>>classOf[mask]&1 == 1 {
				closure = append(closure, g)
			}
		}
		out = append(out, closure)
	}
	if len(out) != 75 {
		t.Fatalf("%d symmetric models on 3 processes, want 75", len(out))
	}
	return out
}

// productAdversary is core.ProductAdversary without the core import: the
// products of every (rounds−1)-generator prefix with every closure graph,
// deduplicated.
func productAdversary(t *testing.T, m *model.ClosedAbove, rounds int) []graph.Digraph {
	t.Helper()
	prefixes, err := graph.ProductSet(context.Background(), m.Generators(), rounds-1)
	if err != nil {
		t.Fatal(err)
	}
	closure, err := m.AllGraphs()
	if err != nil {
		t.Fatal(err)
	}
	seen := make(map[string]bool)
	var out []graph.Digraph
	for _, p := range prefixes {
		for _, h := range closure {
			prod, err := graph.Product(p, h)
			if err != nil {
				t.Fatal(err)
			}
			if !seen[prod.Key()] {
				seen[prod.Key()] = true
				out = append(out, prod)
			}
		}
	}
	return out
}

// TestSolveTablesMatchConstraintSetOracle pins the table build's claim that
// constraints need no deduplication: on the solver corpus, the E13/E16
// instances and the round products of every symmetric 3-process model, the
// rank-order CSR equals the tables of a build that deduplicates constraints
// through a hash set, and that set never finds a duplicate.
func TestSolveTablesMatchConstraintSetOracle(t *testing.T) {
	for _, inst := range corpusInstances(t) {
		checkTablesAgainstOracle(t, inst.name, inst.graphs, inst.vals)
	}

	// E13: the tournament closure at 3 and 2 values.
	tour, err := model.TournamentModel(3)
	if err != nil {
		t.Fatal(err)
	}
	tourAll, err := tour.AllGraphs()
	if err != nil {
		t.Fatal(err)
	}
	checkTablesAgainstOracle(t, "E13 tournament3 v3", tourAll, 3)
	checkTablesAgainstOracle(t, "E13 tournament3 v2", tourAll, 2)

	// E16: the cycle product sweeps, consensus over 2 values, and the n=4
	// star products over 4 values.
	for _, row := range []struct{ n, rounds int }{{4, 2}, {5, 2}, {5, 3}} {
		cyc, err := graph.Cycle(row.n)
		if err != nil {
			t.Fatal(err)
		}
		m, err := model.Simple(cyc)
		if err != nil {
			t.Fatal(err)
		}
		checkTablesAgainstOracle(t, fmt.Sprintf("E16 cycle%d r=%d", row.n, row.rounds), productAdversary(t, m, row.rounds), 2)
	}
	star4, err := model.NonEmptyKernelModel(4)
	if err != nil {
		t.Fatal(err)
	}
	checkTablesAgainstOracle(t, "E16 star4 r=2", productAdversary(t, star4, 2), 4)

	for i, closure := range symmetricModels3(t) {
		for r := 1; r <= 3; r++ {
			prods, err := graph.ProductSet(context.Background(), closure, r)
			if err != nil {
				t.Fatal(err)
			}
			checkTablesAgainstOracle(t, fmt.Sprintf("symmetric model %d r=%d", i, r), prods, 3)
		}
	}
}

// FuzzSolveTables holds the rank-order table build to the constraint-set
// oracle on up to four generators over 2 ≤ n ≤ 5 processes, at 2 or 3
// values; for n ≤ 3 the generators' whole closure is checked as well. Bit
// u·n+v of a mask is the edge u→v; self-loops are forced whatever the mask
// says.
func FuzzSolveTables(f *testing.F) {
	f.Add(uint8(2), uint8(0), uint8(1), uint32(0b0111), uint32(0), uint32(0), uint32(0))
	f.Add(uint8(3), uint8(1), uint8(2), uint32(0x1ffffff), uint32(0b10), uint32(1<<7), uint32(0))
	f.Add(uint8(1), uint8(3), uint8(0), uint32(0b010001100), uint32(0b100010001), uint32(0b001), uint32(0b110))
	f.Fuzz(func(t *testing.T, size, vals, count uint8, m0, m1, m2, m3 uint32) {
		n := 2 + int(size)%4
		numValues := 2 + int(vals)%2
		masks := []uint32{m0, m1, m2, m3}[:1+int(count)%4]
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
		name := fmt.Sprintf("n=%d values=%d masks %x", n, numValues, masks)
		checkTablesAgainstOracle(t, name, gens, numValues)
		if n <= 3 {
			m, err := model.New(gens)
			if err != nil {
				t.Fatal(err)
			}
			closure, err := m.AllGraphs()
			if err != nil {
				t.Fatal(err)
			}
			checkTablesAgainstOracle(t, name+" closure", closure, numValues)
		}
	})
}

// TestSolveTableRangeError: an instance whose constraint CSR would pass the
// int32 offset range is refused with an error before any table is built,
// instead of wrapping its offsets. 16^5 = 2^20 assignments times ≥ 2^11
// list entries passes 2^31.
func TestSolveTableRangeError(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	var graphs []graph.Digraph
	for range 1000 {
		g, err := graph.Random(5, 0.5, r)
		if err != nil {
			t.Fatal(err)
		}
		graphs = append(graphs, g)
	}
	if in := newSolveInput(graphs, 16); len(in.lists.arena) < 1<<11 {
		t.Fatalf("instance too small: %d list entries", len(in.lists.arena))
	}
	_, err := SolveOneRoundCtx(context.Background(), graphs, 16, 4, 1000)
	if err == nil || !strings.Contains(err.Error(), "exceed the solver's int32 table range") {
		t.Fatalf("err = %v, want the int32 table range error", err)
	}
}
