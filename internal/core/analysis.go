package core

import (
	"context"
	"fmt"
	"strings"

	"ksettop/internal/combinat"
	"ksettop/internal/model"
)

// Analysis is the complete bound report for a model: every combinatorial
// number the paper defines, every bound it derives, and the solvability
// verdict per k.
type Analysis struct {
	Model *model.ClosedAbove
	// Rounds the analysis covers (per-round entries below).
	Rounds int

	// Combinatorial numbers (one-round quantities on the generator set).
	GammaSimple        int   // γ(G) when simple, else 0
	GammaEq            int   // γ_eq(S)
	Covering           []int // cov_i(S) for i = 1..γ_eq−1 (index i-1)
	GammaDistLiteral   int   // Def 5.2 read literally
	GammaDistEffective int   // the paper's operative value (= γ_eq)
	MaxCovering        []int // effective max-cov_t for t = 1..γ_dist_eff−1
	MaxCoeff           []int // effective M_t for the same range

	// Bounds per round r = 1..Rounds (index r-1).
	Upper [][]UpperBound
	Lower [][]LowerBound
	Best  []BoundPair
}

// BoundPair is the best bound pair at a round, with the tightness verdict.
type BoundPair struct {
	Rounds int
	Upper  UpperBound
	Lower  LowerBound
	// Tight reports Upper.K == Lower.K + 1: solvability fully characterized.
	Tight bool
}

// Analyze is AnalyzeCtx on context.Background(), kept for perfbench.
func Analyze(m *model.ClosedAbove, rounds int) (*Analysis, error) {
	return AnalyzeCtx(context.Background(), m, rounds)
}

// AnalyzeCtx computes the full report. rounds ≥ 1; multi-round entries use
// the S^r product machinery, exponential in rounds, so every sweep polls ctx
// and a cancelled analysis returns the context's cause.
func AnalyzeCtx(ctx context.Context, m *model.ClosedAbove, rounds int) (*Analysis, error) {
	if rounds < 1 {
		return nil, fmt.Errorf("core: rounds %d must be ≥ 1", rounds)
	}
	gens := m.Generators()
	a := &Analysis{Model: m, Rounds: rounds}

	if m.IsSimple() {
		a.GammaSimple = combinat.DominationNumber(gens[0])
	}
	var err error
	a.GammaEq, err = combinat.EqualDominationNumberSet(gens)
	if err != nil {
		return nil, err
	}
	for i := 1; i < a.GammaEq; i++ {
		cov, err := combinat.CoveringNumberSet(ctx, gens, i)
		if err != nil {
			return nil, err
		}
		a.Covering = append(a.Covering, cov)
	}
	a.GammaDistLiteral, err = combinat.DistributedDominationNumber(ctx, gens)
	if err != nil {
		return nil, err
	}
	a.GammaDistEffective, err = combinat.DistributedDominationNumberEffective(gens)
	if err != nil {
		return nil, err
	}
	for t := 1; t < a.GammaDistEffective; t++ {
		mc, ok, err := combinat.MaxCoveringNumberEffective(ctx, gens, t)
		if err != nil {
			return nil, err
		}
		if !ok {
			break
		}
		a.MaxCovering = append(a.MaxCovering, mc)
		coeff, _, err := combinat.MaxCoveringCoefficientEffective(ctx, gens, t)
		if err != nil {
			return nil, err
		}
		a.MaxCoeff = append(a.MaxCoeff, coeff)
	}

	for r := 1; r <= rounds; r++ {
		up, err := UpperBoundsMultiRound(ctx, m, r)
		if err != nil {
			return nil, err
		}
		lo, err := LowerBoundsMultiRound(ctx, m, r)
		if err != nil {
			return nil, err
		}
		a.Upper = append(a.Upper, up)
		a.Lower = append(a.Lower, lo)
		bestU := bestUpper(up)
		bestL := lo[0]
		for _, b := range lo[1:] {
			if b.K > bestL.K {
				bestL = b
			}
		}
		a.Best = append(a.Best, BoundPair{
			Rounds: r,
			Upper:  bestU,
			Lower:  bestL,
			Tight:  bestU.K == bestL.K+1,
		})
	}
	return a, nil
}

// Render formats the analysis as a plain-text report table.
func (a *Analysis) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s\n", a.Model)
	if a.Model.IsSimple() {
		fmt.Fprintf(&b, "  γ(G)       = %d\n", a.GammaSimple)
	}
	fmt.Fprintf(&b, "  γ_eq(S)    = %d\n", a.GammaEq)
	if len(a.Covering) > 0 {
		fmt.Fprintf(&b, "  cov_i(S)   = %v  (i = 1..%d)\n", a.Covering, len(a.Covering))
	}
	fmt.Fprintf(&b, "  γ_dist(S)  = %d effective (%d literal Def 5.2)\n",
		a.GammaDistEffective, a.GammaDistLiteral)
	if len(a.MaxCovering) > 0 {
		fmt.Fprintf(&b, "  max-cov_t  = %v, M_t = %v  (t = 1..%d)\n",
			a.MaxCovering, a.MaxCoeff, len(a.MaxCovering))
	}
	fmt.Fprintf(&b, "  %-6s %-28s %-34s %s\n", "rounds", "solvable (upper)", "impossible (lower)", "tight")
	for _, p := range a.Best {
		fmt.Fprintf(&b, "  %-6d %-28s %-34s %v\n",
			p.Rounds,
			fmt.Sprintf("%d-set (%s)", p.Upper.K, p.Upper.Theorem),
			fmt.Sprintf("%d-set (%s, %s)", p.Lower.K, p.Lower.Theorem, p.Lower.Scope),
			p.Tight)
	}
	return b.String()
}
