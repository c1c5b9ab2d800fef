package topology

import (
	"context"
	"errors"
	"strings"
	"testing"

	"ksettop/internal/bits"
	"ksettop/internal/graph"
)

func TestInputAssignments(t *testing.T) {
	inputs, err := InputAssignments(3, 2)
	if err != nil {
		t.Fatalf("InputAssignments: %v", err)
	}
	if len(inputs) != 8 {
		t.Errorf("count = %d, want 2³ = 8", len(inputs))
	}
	seen := make(map[string]bool)
	for _, a := range inputs {
		key := ""
		for _, v := range a {
			key += string(rune('0' + v))
		}
		if seen[key] {
			t.Errorf("duplicate assignment %v", a)
		}
		seen[key] = true
	}
	if _, err := InputAssignments(0, 2); err == nil {
		t.Errorf("n=0 should fail")
	}
	if _, err := InputAssignments(30, 30); err == nil {
		t.Errorf("oversized input complex should fail")
	}
}

func TestInterpretSimplexDef413(t *testing.T) {
	// Def 4.13 by hand: σ with views p0↦{0,2}, p1↦{1}; τ = (5,1,0).
	sigma := mustSimplex(t,
		v(0, bits.New(0, 2)),
		v(1, bits.New(1)),
	)
	tau := Assignment{5, 1, 0}
	got, err := InterpretSimplex(sigma, tau)
	if err != nil {
		t.Fatalf("InterpretSimplex: %v", err)
	}
	v0, _ := got.ViewOf(0)
	if val, ok := v0.Value(0); !ok || val != 5 {
		t.Errorf("p0 should know (p0,5): %v", v0)
	}
	if val, ok := v0.Value(2); !ok || val != 0 {
		t.Errorf("p0 should know (p2,0): %v", v0)
	}
	if _, ok := v0.Value(1); ok {
		t.Errorf("p0 should not know p1's value: %v", v0)
	}
	v1, _ := got.ViewOf(1)
	if v1.Known() != bits.New(1) {
		t.Errorf("p1 should know only itself: %v", v1)
	}
}

func TestInterpretPseudospherePreservesStructure(t *testing.T) {
	star, _ := graph.Star(3, 0)
	ps := UninterpretedPseudosphere(star)
	tau := Assignment{0, 1, 1}
	ips, err := InterpretPseudosphere(ps, tau)
	if err != nil {
		t.Fatalf("InterpretPseudosphere: %v", err)
	}
	if ips.FacetCount() != ps.FacetCount() {
		t.Errorf("interpretation must preserve facet count: %d vs %d",
			ips.FacetCount(), ps.FacetCount())
	}
	if ips.NonemptyColors() != ps.NonemptyColors() {
		t.Errorf("interpretation must preserve colors")
	}
}

func TestInterpretComplexMatchesPerFacetInterpretation(t *testing.T) {
	star, _ := graph.Star(3, 0)
	cyc, _ := graph.Cycle(3)
	gens := []graph.Digraph{star, cyc}
	inputs, _ := InputAssignments(3, 2)

	a, err := UninterpretedComplex(gens)
	if err != nil {
		t.Fatalf("UninterpretedComplex: %v", err)
	}
	viaComplex, err := InterpretComplex(a, inputs)
	if err != nil {
		t.Fatalf("InterpretComplex: %v", err)
	}
	viaPseudospheres, err := ProtocolComplexOneRound(context.Background(), gens, inputs)
	if err != nil {
		t.Fatalf("ProtocolComplexOneRound: %v", err)
	}
	if viaComplex.FacetCount() != viaPseudospheres.FacetCount() {
		t.Errorf("two construction routes disagree: %d vs %d facets",
			viaComplex.FacetCount(), viaPseudospheres.FacetCount())
	}
	for _, f := range viaPseudospheres.Facets() {
		if !viaComplex.ContainsSimplex(f) {
			t.Errorf("facet %v missing from InterpretComplex route", f)
		}
	}
}

func TestProtocolComplexCliqueModel(t *testing.T) {
	// In the clique-only model every process sees everything, so each input
	// facet yields exactly one protocol facet.
	clique, _ := graph.Complete(3)
	inputs, _ := InputAssignments(3, 2)
	pc, err := ProtocolComplexOneRound(context.Background(), []graph.Digraph{clique}, inputs)
	if err != nil {
		t.Fatalf("ProtocolComplexOneRound: %v", err)
	}
	if pc.FacetCount() != 8 {
		t.Errorf("facets = %d, want 8 (one per input)", pc.FacetCount())
	}
	// Full views separate all inputs: the complex is 8 disjoint simplexes,
	// hence not even 0-connected.
	ac, _, err := pc.ToAbstract()
	if err != nil {
		t.Fatalf("ToAbstract: %v", err)
	}
	ok, betti, err := IsHomologicallyKConnected(context.Background(), ac, 0)
	if err != nil {
		t.Fatalf("IsHomologicallyKConnected: %v", err)
	}
	if ok {
		t.Errorf("clique protocol complex should be disconnected (consensus solvable); betti=%v", betti)
	}
	if betti[0] != 7 {
		t.Errorf("β̃_0 = %d, want 7 (8 components)", betti[0])
	}
}

func TestProtocolComplexStarModelConnectivity(t *testing.T) {
	// Sym(star) on n=3: the Thm 5.4 lower bound gives l = 1, i.e. the
	// one-round protocol complex over 3 input values is 1-connected
	// (2-set agreement impossible — matches Thm 6.13 with s=1: n−s = 2).
	star, _ := graph.Star(3, 0)
	sym, _ := graph.SymClosure([]graph.Digraph{star})
	inputs, _ := InputAssignments(3, 3)
	pc, err := ProtocolComplexOneRound(context.Background(), sym, inputs)
	if err != nil {
		t.Fatalf("ProtocolComplexOneRound: %v", err)
	}
	ac, _, err := pc.ToAbstract()
	if err != nil {
		t.Fatalf("ToAbstract: %v", err)
	}
	ok, betti, err := IsHomologicallyKConnected(context.Background(), ac, 1)
	if err != nil {
		t.Fatalf("IsHomologicallyKConnected: %v", err)
	}
	if !ok {
		t.Errorf("star-model protocol complex should be 1-connected; betti=%v", betti)
	}
}

func TestProtocolComplexErrors(t *testing.T) {
	if _, err := ProtocolComplexOneRound(context.Background(), nil, nil); err == nil {
		t.Errorf("empty generator set should fail")
	}
	g := graph.MustNew(3)
	badInputs := []Assignment{{0, 1}} // too short
	if _, err := ProtocolComplexOneRound(context.Background(), []graph.Digraph{g}, badInputs); err == nil {
		t.Errorf("short assignment should fail")
	}
	// Nine processes do not fit an interpreted view: an error, not a panic.
	nine := graph.MustNew(MaxInterpretedProcs + 1)
	inputs, err := InputAssignments(MaxInterpretedProcs+1, 2)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ProtocolComplexOneRound(context.Background(), []graph.Digraph{nine}, inputs); err == nil ||
		!strings.Contains(err.Error(), "interpreted views support ≤8 processes") {
		t.Errorf("n = 9: err %v, want the ≤8 processes error", err)
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

// The protocol-complex build polls its context once per 4096 facets. On the
// loops-only graph over 4 processes every process may hear any of the 8
// supersets of itself, so each of the 2⁴ binary inputs contributes 8⁴
// facets: 65536 in all, 16 polls. Cancelled at the second poll the build
// stops there and returns the cause with no complex.
func TestProtocolComplexCancellation(t *testing.T) {
	gens := []graph.Digraph{graph.MustNew(4)}
	inputs, err := InputAssignments(4, 2)
	if err != nil {
		t.Fatal(err)
	}
	uncancelled := &pollCtx{Context: context.Background()}
	pc, err := ProtocolComplexOneRound(uncancelled, gens, inputs)
	if err != nil || pc.FacetCount() != 65536 || uncancelled.polls != 16 {
		t.Fatalf("uncancelled: err %v, %d polls; want 65536 facets, 16 polls", err, uncancelled.polls)
	}
	cancelled := &pollCtx{Context: context.Background(), cancelAt: 2}
	pc, err = ProtocolComplexOneRound(cancelled, gens, inputs)
	if !errors.Is(err, context.Canceled) || pc != nil {
		t.Fatalf("cancelled at poll 2: complex %v, err %v; want none and context.Canceled", pc != nil, err)
	}
	if cancelled.polls > 3 { // the stopping poll plus context.Cause's read
		t.Fatalf("cancelled build kept polling: %d polls", cancelled.polls)
	}
}
