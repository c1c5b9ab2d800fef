package topology

import (
	"context"
	"math/rand"
	"reflect"
	"strconv"
	"testing"

	"ksettop/internal/graph"
	"ksettop/internal/obs"
)

// The protocol-complex build runs in one "topology.protocol_complex" span
// carrying the facet and vertex counts, and the complex and its Betti
// numbers must be identical with the observability layer fully on (metrics
// + tracing) and fully off.
func TestProtocolComplexObsOnOffDeterminism(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	gens := make([]graph.Digraph, 2)
	for i := range gens {
		g, err := graph.Random(4, 0.8, rng)
		if err != nil {
			t.Fatal(err)
		}
		gens[i] = g
	}
	inputs, err := InputAssignments(4, 2)
	if err != nil {
		t.Fatal(err)
	}
	type result struct {
		Facets [][]int
		Verts  []Vertex[IView]
		Betti  []int
	}
	build := func() result {
		t.Helper()
		pc, err := ProtocolComplexOneRound(context.Background(), gens, inputs)
		if err != nil {
			t.Fatal(err)
		}
		ac, verts, err := pc.ToAbstract()
		if err != nil {
			t.Fatal(err)
		}
		betti, err := ReducedBettiNumbersCtx(context.Background(), ac, 2)
		if err != nil {
			t.Fatal(err)
		}
		return result{ac.Facets(), verts, betti}
	}

	obs.ResetTrace(0)
	obs.SetTracingEnabled(true)
	obs.SetEnabled(true)
	t.Cleanup(func() {
		obs.SetTracingEnabled(false)
		obs.SetEnabled(true)
		obs.ResetTrace(0)
	})
	on := build()
	var spans []obs.SpanData
	for _, sd := range obs.TraceSpans() {
		if sd.Name == "topology.protocol_complex" {
			spans = append(spans, sd)
		}
	}
	want := []obs.Attr{
		{K: "facets", V: strconv.Itoa(len(on.Facets))},
		{K: "vertices", V: strconv.Itoa(len(on.Verts))},
	}
	if len(spans) != 1 || !reflect.DeepEqual(spans[0].Attrs, want) {
		t.Fatalf("protocol-complex spans %+v, want one with attrs %v", spans, want)
	}

	obs.SetTracingEnabled(false)
	obs.SetEnabled(false)
	obs.ResetTrace(0)
	if off := build(); !reflect.DeepEqual(off, on) {
		t.Fatalf("obs off: %+v, obs on: %+v", off, on)
	}
	if n := len(obs.TraceSpans()); n != 0 {
		t.Fatalf("obs off recorded %d spans", n)
	}
}
