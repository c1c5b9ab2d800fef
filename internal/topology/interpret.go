package topology

import (
	"context"
	"fmt"

	"ksettop/internal/bits"
	"ksettop/internal/graph"
	"ksettop/internal/obs"
	"ksettop/internal/par"
)

// Assignment maps each process to its initial value. Assignments are the
// facets of the input complex.
type Assignment []int

// InputAssignments enumerates the facets of the chromatic input complex
// Ψ(Π; [0, numVals)): every assignment of one of numVals values to each of
// n processes. The count is numVals^n.
func InputAssignments(n, numVals int) ([]Assignment, error) {
	if n < 1 || numVals < 1 {
		return nil, fmt.Errorf("topology: invalid input complex n=%d values=%d", n, numVals)
	}
	total := 1
	for i := 0; i < n; i++ {
		total *= numVals
		if total > 1<<22 {
			return nil, fmt.Errorf("topology: input complex too large (%d^%d facets)", numVals, n)
		}
	}
	out := make([]Assignment, 0, total)
	cur := make(Assignment, n)
	var rec func(i int)
	rec = func(i int) {
		if i == n {
			cp := make(Assignment, n)
			copy(cp, cur)
			out = append(out, cp)
			return
		}
		for v := 0; v < numVals; v++ {
			cur[i] = v
			rec(i + 1)
		}
	}
	rec(0)
	return out, nil
}

// InterpretSimplex computes σ(τ) (Def 4.13): process p's uninterpreted view
// S (a set of processes) becomes the interpreted view
// {(q, τ(q)) | q ∈ S} — the pairs an oblivious algorithm retains.
func InterpretSimplex(sigma Simplex[bits.Set], tau Assignment) (Simplex[IView], error) {
	out := make(Simplex[IView], len(sigma))
	for i, v := range sigma {
		iv, err := MakeIView(v.View, tau)
		if err != nil {
			return nil, err
		}
		out[i] = Vertex[IView]{Color: v.Color, View: iv}
	}
	return out, nil
}

// InterpretPseudosphere interprets a whole uninterpreted pseudosphere on one
// input facet. Because S ↦ {(q, τ(q)) | q ∈ S} is injective for a fixed τ,
// the result is again a pseudosphere with the same facet structure — the
// C_G(τ) complexes the Thm 5.4 proof intersects.
func InterpretPseudosphere(ps *Pseudosphere[bits.Set], tau Assignment) (*Pseudosphere[IView], error) {
	views := make([][]IView, ps.NumColors())
	for c := 0; c < ps.NumColors(); c++ {
		for _, s := range ps.Views(c) {
			iv, err := MakeIView(s, tau)
			if err != nil {
				return nil, err
			}
			views[c] = append(views[c], iv)
		}
	}
	return NewPseudosphere(views), nil
}

// InterpretComplex computes A(I) (Def 4.14): the union over input facets τ
// and facets σ of the uninterpreted complex of the interpreted simplexes
// σ(τ).
func InterpretComplex(a *Complex[bits.Set], inputs []Assignment) (*Complex[IView], error) {
	out := NewComplex[IView]()
	for _, tau := range inputs {
		for _, sigma := range a.Facets() {
			s, err := InterpretSimplex(sigma, tau)
			if err != nil {
				return nil, err
			}
			out.AddFacet(s)
		}
	}
	return out, nil
}

// ProtocolComplexOneRound builds the one-round protocol complex of the
// closed-above model generated by gens over the given input facets: the
// union over generators G and inputs τ of the interpreted pseudospheres
// C_G(τ). This is the complex whose connectivity the Thm 5.4 lower bound
// is about; it grows exponentially and is intended for small verification
// instances (the caller should keep n ≤ 5 and few values). Each C_G(τ)
// interns its colors' views once and is walked as vertex-id tuples. The
// build polls ctx once per 4096 facets; a cancelled build returns the
// context's cause. It runs in a "topology.protocol_complex" span.
func ProtocolComplexOneRound(ctx context.Context, gens []graph.Digraph, inputs []Assignment) (*Complex[IView], error) {
	if len(gens) == 0 {
		return nil, fmt.Errorf("topology: protocol complex of empty generator set")
	}
	_, span := obs.StartSpan(ctx, "topology.protocol_complex")
	defer span.End()
	out := NewComplex[IView]()
	facets := 0
	poll := func() bool {
		facets++
		return facets&par.PollMask != 0 || ctx.Err() == nil
	}
	for _, g := range gens {
		ps := UninterpretedPseudosphere(g)
		ids := make([][]int32, ps.NumColors())
		for _, tau := range inputs {
			// S ↦ {(q, τ(q)) | q ∈ S} is injective for a fixed τ, so C_G(τ)
			// has the facet structure of ps (InterpretPseudosphere).
			for col, views := range ps.views {
				ids[col] = ids[col][:0]
				for _, s := range views {
					iv, err := MakeIView(s, tau)
					if err != nil {
						return nil, err
					}
					ids[col] = append(ids[col], out.intern(Vertex[IView]{Color: col, View: iv}))
				}
			}
			if !out.addProduct(ids, poll) {
				return nil, context.Cause(ctx)
			}
		}
	}
	span.SetInt("facets", int64(out.FacetCount()))
	span.SetInt("vertices", int64(len(out.verts)))
	return out, nil
}
