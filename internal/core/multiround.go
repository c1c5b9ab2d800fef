package core

import (
	"context"
	"fmt"

	"ksettop/internal/combinat"
	"ksettop/internal/model"
)

// maxProductGenerators bounds |S^r| in the multi-round computations.
const maxProductGenerators = 5000

// UpperBoundsMultiRound returns the paper's r-round upper bounds:
// Thm 6.3 (simple, γ(G^r)), Thm 6.4 (γ_eq(S^r)), Thm 6.5 (covering numbers
// of S^r), and Thm 6.7/6.9 (covering-number sequences, which avoid product
// computations entirely). Building S^r and every sweep over it poll ctx.
func UpperBoundsMultiRound(ctx context.Context, m *model.ClosedAbove, r int) ([]UpperBound, error) {
	if r < 1 {
		return nil, fmt.Errorf("core: rounds %d must be ≥ 1", r)
	}
	if r == 1 {
		return UpperBoundsOneRound(m)
	}
	gens := m.Generators()
	n := m.N()
	var out []UpperBound

	pm, err := m.ProductModel(ctx, r)
	if err != nil {
		return nil, err
	}
	prods := pm.Generators()
	if len(prods) > maxProductGenerators {
		return nil, fmt.Errorf("core: |S^%d| = %d exceeds limit %d", r, len(prods), maxProductGenerators)
	}

	if m.IsSimple() {
		gamma := combinat.DominationNumber(prods[0])
		out = append(out, UpperBound{
			K:       gamma,
			Rounds:  r,
			Theorem: "Thm 6.3",
			Note:    fmt.Sprintf("γ(G^%d) = %d", r, gamma),
		})
	}

	gammaEq, err := combinat.EqualDominationNumberSet(prods)
	if err != nil {
		return nil, err
	}
	out = append(out, UpperBound{
		K:       gammaEq,
		Rounds:  r,
		Theorem: "Thm 6.4",
		Note:    fmt.Sprintf("γ_eq(S^%d) = %d", r, gammaEq),
	})

	for i := 1; i < gammaEq; i++ {
		cov, err := combinat.CoveringNumberSet(ctx, prods, i)
		if err != nil {
			return nil, err
		}
		out = append(out, UpperBound{
			K:       i + (n - cov),
			Rounds:  r,
			Theorem: "Thm 6.5",
			Note:    fmt.Sprintf("i = %d, cov_%d(S^%d) = %d", i, i, r, cov),
		})
	}

	// Covering-number sequences (Thm 6.7 single graph / Thm 6.9 sets): the
	// smallest i whose sequence reaches n within r rounds.
	for i := 1; i <= n; i++ {
		seq, err := combinat.CoveringSequenceSet(ctx, gens, i)
		if err != nil {
			return nil, err
		}
		if seq.ReachesAll && seq.Round <= r {
			theorem := "Thm 6.9"
			if m.IsSimple() {
				theorem = "Thm 6.7"
			}
			out = append(out, UpperBound{
				K:       i,
				Rounds:  r,
				Theorem: theorem,
				Note:    fmt.Sprintf("%d-th covering sequence reaches n at round %d", i, seq.Round),
			})
			break // smaller i is stronger; later i are weaker bounds
		}
	}
	return out, nil
}

// BestUpperMultiRound returns the smallest r-round K.
func BestUpperMultiRound(ctx context.Context, m *model.ClosedAbove, r int) (UpperBound, error) {
	all, err := UpperBoundsMultiRound(ctx, m, r)
	if err != nil {
		return UpperBound{}, err
	}
	return bestUpper(all), nil
}

// LowerBoundsMultiRound returns the r-round lower bounds for oblivious
// algorithms: Thm 6.10 (simple; the statement γ(G^r) − 1, consistent with
// the paper's appendix rather than its misprinted body) and Thm 6.11
// (general, Thm 5.4 applied to S^r). Building S^r and every sweep over it
// poll ctx.
func LowerBoundsMultiRound(ctx context.Context, m *model.ClosedAbove, r int) ([]LowerBound, error) {
	if r < 1 {
		return nil, fmt.Errorf("core: rounds %d must be ≥ 1", r)
	}
	if r == 1 {
		return LowerBoundsOneRound(m)
	}
	pm, err := m.ProductModel(ctx, r)
	if err != nil {
		return nil, err
	}
	prods := pm.Generators()
	if len(prods) > maxProductGenerators {
		return nil, fmt.Errorf("core: |S^%d| = %d exceeds limit %d", r, len(prods), maxProductGenerators)
	}
	var out []LowerBound

	if m.IsSimple() {
		// Thm 6.10 (the appendix-consistent statement): the
		// Thm 5.1 bound on the product graph. Thm 6.11 is not applied to
		// simple models, mirroring LowerBoundsOneRound.
		gamma := combinat.DominationNumber(prods[0])
		out = append(out, LowerBound{
			K:       gamma - 1,
			Rounds:  r,
			Theorem: "Thm 6.10",
			Scope:   ObliviousAlgorithms,
			Note:    fmt.Sprintf("γ(G^%d) = %d", r, gamma),
		})
		return out, nil
	}

	thm, err := theorem54(ctx, prods)
	if err != nil {
		return nil, err
	}
	thm.Rounds = r
	thm.Theorem = "Thm 6.11"
	thm.Scope = ObliviousAlgorithms
	out = append(out, thm)
	return out, nil
}

// BestLowerMultiRound returns the strongest r-round impossibility.
func BestLowerMultiRound(ctx context.Context, m *model.ClosedAbove, r int) (LowerBound, error) {
	all, err := LowerBoundsMultiRound(ctx, m, r)
	if err != nil {
		return LowerBound{}, err
	}
	best := all[0]
	for _, b := range all[1:] {
		if b.K > best.K {
			best = b
		}
	}
	return best, nil
}

// StarUnionBounds returns the tight bound pair of Thm 6.13 for the symmetric
// union-of-s-stars model on n processes: (n−s)-set agreement impossible in
// any number of rounds (oblivious), (n−s+1)-set agreement solvable in one.
func StarUnionBounds(n, s int) (LowerBound, UpperBound, error) {
	q, err := combinat.StarUnionClosedForm(n, s)
	if err != nil {
		return LowerBound{}, UpperBound{}, err
	}
	lower := LowerBound{
		K:       q.LowerBoundK,
		Rounds:  0, // holds for every round count
		Theorem: "Thm 6.13",
		Scope:   ObliviousAlgorithms,
		Note:    fmt.Sprintf("n = %d, s = %d, γ_dist = %d", n, s, q.GammaDist),
	}
	upper := UpperBound{
		K:       q.UpperBoundK,
		Rounds:  1,
		Theorem: "Cor 3.5",
		Note:    fmt.Sprintf("γ_eq(S) = %d", q.UpperBoundK),
	}
	return lower, upper, nil
}
