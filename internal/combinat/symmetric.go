package combinat

import (
	"context"
	"fmt"

	"ksettop/internal/graph"
)

// SymMaxCovering returns the paper's Corollary 5.5 / Appendix C closed form
// for max-cov_t(Sym(G)) computed from the single-graph quantity
// max-cov_t({G}):
//
//	max-cov_t(Sym(G)) = t                          if max-cov_t({G}) = t
//	                    t + t·(max-cov_t({G}) − t) otherwise
//
// The second return is false when max-cov_t({G}) is undefined (t ≥
// γ_dist({G})). The closed form is a worst-case permutation argument: the
// t processes of P can hit max-cov_t({G})−t fresh processes in each of t
// differently-permuted graphs. It is exact for the star family used in the
// paper and is cross-checked against explicit Sym(S) expansion in tests.
// MaxCoveringCoefficient over it gives the Cor 5.5 closed form of
// M_t(Sym(G)), ⌊(n−t−1)/(t·(max-cov_t({G})−t))⌋ (n − t at the floor).
func SymMaxCovering(g graph.Digraph, t int) (int, bool, error) {
	mc, ok, err := MaxCoveringNumber(context.Background(), []graph.Digraph{g}, t)
	if err != nil || !ok {
		return 0, ok, err
	}
	if mc == t {
		return t, true, nil
	}
	return t + t*(mc-t), true, nil
}

// StarUnionNumbers returns the closed-form quantities the paper derives for
// the symmetric union-of-s-stars model on n processes (§5 discussion and
// Appendix G):
//
//	γ_dist(S)    = n − s + 1
//	max-cov_t(S) = t     for every t < γ_dist(S)
//	M_t(S)       = n − t for every t < γ_dist(S)
//
// These are validated against the explicit expansion in tests and used by
// the E10 experiment.
type StarUnionQuantities struct {
	N, S          int
	GammaDist     int
	LowerBoundK   int // (n−s)-set agreement impossible (Thm 6.13)
	UpperBoundK   int // (n−s+1)-set agreement solvable (γ_eq bound)
	MaxCovIsIdent bool
}

// StarUnionClosedForm computes StarUnionQuantities for given n and s.
func StarUnionClosedForm(n, s int) (StarUnionQuantities, error) {
	if s < 1 || s > n {
		return StarUnionQuantities{}, fmt.Errorf("combinat: star count %d outside [1,%d]", s, n)
	}
	return StarUnionQuantities{
		N:             n,
		S:             s,
		GammaDist:     n - s + 1,
		LowerBoundK:   n - s,
		UpperBoundK:   n - s + 1,
		MaxCovIsIdent: true,
	}, nil
}
