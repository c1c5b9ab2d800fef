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
// verdict per round.
type Analysis struct {
	Model *model.ClosedAbove
	// Rounds the analysis covers (per-round entries below).
	Rounds int
	// GammaDistLiteral is γ_dist(S) with Def 5.2 read literally; the bounds
	// use the effective value, PerRound[0].GammaEq.
	GammaDistLiteral int
	// PerRound holds the numbers of S^r and the r-round bounds for
	// r = 1..Rounds (index r-1); PerRound[0] holds those of S.
	PerRound []RoundBounds
	// Best holds PerRound[r-1].Best() for the same rounds.
	Best []BoundPair
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

// AnalyzeCtx computes the full report: the numbers of S once, those of S^r
// once per round r = 2..rounds, and the bounds of each round from them.
// Multi-round entries use the S^r product machinery, exponential in rounds,
// so every sweep polls ctx and a cancelled analysis returns the context's
// cause.
func AnalyzeCtx(ctx context.Context, m *model.ClosedAbove, rounds int) (*Analysis, error) {
	if rounds < 1 {
		return nil, fmt.Errorf("core: rounds %d must be ≥ 1", rounds)
	}
	base, err := numbersOf(ctx, m, 1)
	if err != nil {
		return nil, err
	}
	a := &Analysis{Model: m, Rounds: rounds}
	if a.GammaDistLiteral, err = combinat.DistributedDominationNumber(ctx, m.Generators()); err != nil {
		return nil, err
	}
	for r := 1; r <= rounds; r++ {
		b, err := boundsAt(ctx, m, base, r)
		if err != nil {
			return nil, err
		}
		a.PerRound = append(a.PerRound, *b)
		a.Best = append(a.Best, b.Best())
	}
	return a, nil
}

// Render formats the analysis as a plain-text report table.
func (a *Analysis) Render() string {
	var b strings.Builder
	nb := a.PerRound[0].Numbers
	fmt.Fprintf(&b, "%s\n", a.Model)
	if a.Model.IsSimple() {
		fmt.Fprintf(&b, "  γ(G)       = %d\n", nb.Gamma)
	}
	fmt.Fprintf(&b, "  γ_eq(S)    = %d\n", nb.GammaEq)
	if len(nb.Covering) > 0 {
		fmt.Fprintf(&b, "  cov_i(S)   = %v  (i = 1..%d)\n", nb.Covering, len(nb.Covering))
	}
	fmt.Fprintf(&b, "  γ_dist(S)  = %d effective (%d literal Def 5.2)\n",
		nb.GammaEq, a.GammaDistLiteral)
	// max-cov_t is shown up to the first t where it is undefined.
	shown := 0
	for shown < len(nb.MaxCov) && nb.MaxCov[shown] > 0 {
		shown++
	}
	if shown > 0 {
		fmt.Fprintf(&b, "  max-cov_t  = %v, M_t = %v  (t = 1..%d)\n",
			nb.MaxCov[:shown], nb.MaxCoeff[:shown], shown)
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
