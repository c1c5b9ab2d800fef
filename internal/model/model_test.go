package model

import (
	"context"
	"math/rand"
	"testing"

	"ksettop/internal/graph"
)

func TestNewPrunesRedundantGenerators(t *testing.T) {
	star, _ := graph.Star(4, 0)
	super := star.Clone()
	super.AddEdge(1, 2) // strictly contains the star: redundant
	m, err := New([]graph.Digraph{star, super, star})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	if m.GeneratorCount() != 1 {
		t.Errorf("generators = %d, want 1 after pruning", m.GeneratorCount())
	}
	if !m.IsSimple() {
		t.Errorf("model should be simple")
	}
	if _, err := New(nil); err == nil {
		t.Errorf("empty generator list should fail")
	}
	g5 := graph.MustNew(5)
	if _, err := New([]graph.Digraph{star, g5}); err == nil {
		t.Errorf("mixed sizes should fail")
	}
}

func TestNewSymmetric(t *testing.T) {
	star, _ := graph.Star(3, 0)
	m, err := NewSymmetric([]graph.Digraph{star})
	if err != nil {
		t.Fatalf("NewSymmetric: %v", err)
	}
	if m.GeneratorCount() != 3 {
		t.Errorf("Sym(star on 3) should have 3 generators, got %d", m.GeneratorCount())
	}
	if !m.IsSymmetric() || m.IsSimple() {
		t.Errorf("symmetric=%v simple=%v, want true/false", m.IsSymmetric(), m.IsSimple())
	}
	single, _ := Simple(star)
	if single.IsSymmetric() {
		t.Errorf("single star model is not symmetric")
	}
}

func TestContains(t *testing.T) {
	star, _ := graph.Star(3, 0)
	m, _ := Simple(star)
	if !m.Contains(star) {
		t.Errorf("model must contain its generator")
	}
	super := star.Clone()
	super.AddEdge(2, 1)
	if !m.Contains(super) {
		t.Errorf("model must contain supergraphs")
	}
	loops := graph.MustNew(3)
	if m.Contains(loops) {
		t.Errorf("model must not contain graphs missing generator edges")
	}
	if m.Contains(graph.MustNew(4)) {
		t.Errorf("wrong process count must be rejected")
	}
}

func TestSampleGraphStaysInModel(t *testing.T) {
	star, _ := graph.Star(4, 0)
	m, _ := NewSymmetric([]graph.Digraph{star})
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 100; i++ {
		g := m.SampleGraph(rng, 0.3)
		if !m.Contains(g) {
			t.Fatalf("sampled graph %v outside model", g)
		}
	}
}

func TestEnumerateGraphsCounts(t *testing.T) {
	star, _ := graph.Star(3, 0)
	simple, _ := Simple(star)
	count, err := simple.GraphCountCtx(context.Background())
	if err != nil {
		t.Fatalf("GraphCount: %v", err)
	}
	// Star on 3 has 2 non-loop edges; 4 free slots: 2^4 = 16 supergraphs.
	if count != 16 {
		t.Errorf("|↑star| = %d, want 16", count)
	}

	sym, _ := NewSymmetric([]graph.Digraph{star})
	count, err = sym.GraphCountCtx(context.Background())
	if err != nil {
		t.Fatalf("GraphCount: %v", err)
	}
	// Inclusion–exclusion: 3·16 − 3·4 + 1 = 37.
	if count != 37 {
		t.Errorf("|Sym(↑star)| = %d, want 37", count)
	}

	// Every enumerated graph is in the model, no duplicates.
	seen := make(map[string]bool)
	err = sym.EnumerateGraphs(context.Background(), func(g graph.Digraph) bool {
		if !sym.Contains(g) {
			t.Fatalf("enumerated graph %v outside model", g)
		}
		if seen[g.Key()] {
			t.Fatalf("duplicate graph %v", g)
		}
		seen[g.Key()] = true
		return true
	})
	if err != nil {
		t.Fatalf("EnumerateGraphs: %v", err)
	}

	// Early stop.
	visits := 0
	sym.EnumerateGraphs(context.Background(), func(graph.Digraph) bool {
		visits++
		return visits < 5
	})
	if visits != 5 {
		t.Errorf("early stop visited %d, want 5", visits)
	}
}

func TestEnumerateGraphsGuards(t *testing.T) {
	// Loops-only generator on 6 processes has 30 missing edges: 2^30 ranks
	// exceed the default budget.
	loops := graph.MustNew(6)
	m, _ := Simple(loops)
	if err := m.EnumerateGraphs(context.Background(), func(graph.Digraph) bool { return true }); err == nil {
		t.Errorf("30 missing edges should exceed the default budget")
	}
	// Loops-only on 9 processes has 72 missing edges: past the 2^62
	// per-generator rank cap, unenumerable at any budget.
	big := graph.MustNew(9)
	m, _ = Simple(big)
	if err := m.EnumerateGraphs(context.Background(), func(graph.Digraph) bool { return true }); err == nil {
		t.Errorf("72 missing edges should be rejected (segment ranks exceed int64)")
	}
}

func TestProductModelKernelIdempotent(t *testing.T) {
	// star_i ⊗ star_j is a union of stars, which contains a single star, so
	// the product model of the non-empty-kernel model reduces to itself.
	m, err := NonEmptyKernelModel(3)
	if err != nil {
		t.Fatalf("NonEmptyKernelModel: %v", err)
	}
	p, err := m.ProductModel(context.Background(), 2)
	if err != nil {
		t.Fatalf("ProductModel: %v", err)
	}
	if p.GeneratorCount() != m.GeneratorCount() {
		t.Errorf("kernel model should be product-idempotent: %d vs %d generators",
			p.GeneratorCount(), m.GeneratorCount())
	}
	for _, g := range m.Generators() {
		if !p.Contains(g) {
			t.Errorf("product model lost generator %v", g)
		}
	}
}

func TestMinimalGraphsKernel(t *testing.T) {
	gens, err := MinimalGraphs(3, graph.Digraph.HasKernel)
	if err != nil {
		t.Fatalf("MinimalGraphs: %v", err)
	}
	if len(gens) != 3 {
		t.Fatalf("minimal kernel graphs on 3 procs = %d, want 3 (the stars)", len(gens))
	}
	for _, g := range gens {
		if !g.HasKernel() {
			t.Errorf("minimal graph %v lacks kernel", g)
		}
		// Minimality: exactly one broadcaster and no other non-loop edges.
		if g.EdgeCount() != 3+2 {
			t.Errorf("minimal kernel graph should be a bare star: %v", g)
		}
	}
	kernelModel, _ := NonEmptyKernelModel(3)
	fromSearch, _ := New(gens)
	if kernelModel.GeneratorCount() != fromSearch.GeneratorCount() {
		t.Errorf("kernel model should equal minimal-graph search result")
	}
	if _, err := MinimalGraphs(7, graph.Digraph.HasKernel); err == nil {
		t.Errorf("n=7 should be rejected")
	}
}

func TestNonSplitModel(t *testing.T) {
	m, err := NonSplitModel(3)
	if err != nil {
		t.Fatalf("NonSplitModel: %v", err)
	}
	// Every generator is non-split and minimally so.
	for _, g := range m.Generators() {
		if !g.IsNonSplit() {
			t.Errorf("generator %v not non-split", g)
		}
	}
	// Model membership matches the predicate on a sample of graphs.
	rng := rand.New(rand.NewSource(4))
	agree := 0
	for i := 0; i < 200; i++ {
		g, _ := graph.Random(3, rng.Float64(), rng)
		if m.Contains(g) != g.IsNonSplit() {
			t.Fatalf("membership mismatch on %v: model=%v predicate=%v",
				g, m.Contains(g), g.IsNonSplit())
		}
		agree++
	}
	if agree == 0 {
		t.Fatalf("no graphs checked")
	}
}

func TestUnionOfStarsModel(t *testing.T) {
	m, err := UnionOfStarsModel(5, 2)
	if err != nil {
		t.Fatalf("UnionOfStarsModel: %v", err)
	}
	if m.GeneratorCount() != 10 {
		t.Errorf("generators = %d, want C(5,2) = 10", m.GeneratorCount())
	}
	if !m.IsSymmetric() {
		t.Errorf("star-union model must be symmetric")
	}
	if _, err := UnionOfStarsModel(4, 0); err == nil {
		t.Errorf("s=0 should fail")
	}
}

func TestCycleModel(t *testing.T) {
	m, err := CycleModel(4)
	if err != nil {
		t.Fatalf("CycleModel: %v", err)
	}
	if m.GeneratorCount() != 6 {
		t.Errorf("generators = %d, want (4−1)! = 6 directed 4-cycles", m.GeneratorCount())
	}
	cyc, _ := graph.Cycle(4)
	if !m.Contains(cyc) {
		t.Errorf("cycle model must contain the cycle")
	}
}

func TestString(t *testing.T) {
	star, _ := graph.Star(3, 0)
	m, _ := Simple(star)
	if s := m.String(); s == "" {
		t.Errorf("String() should be nonempty")
	}
	sym, _ := NewSymmetric([]graph.Digraph{star})
	if s := sym.String(); s == "" {
		t.Errorf("String() should be nonempty")
	}
}
