// Package core implements the paper's primary contribution: upper and lower
// bounds on k-set agreement for closed-above round-based models, stated in
// graph-combinatorial terms (§3, §5, §6), together with machinery to verify
// them on concrete instances by simulation, exhaustive decision-map search,
// and protocol-complex connectivity.
package core

import (
	"context"
	"fmt"

	"ksettop/internal/bits"
	"ksettop/internal/combinat"
	"ksettop/internal/graph"
	"ksettop/internal/model"
)

// Scope records which algorithm class a bound applies to.
type Scope string

// Bound scopes. One-round lower bounds apply to all algorithms because
// one-round full-information protocols are oblivious (§5); multi-round lower
// bounds are for oblivious algorithms (§6.3).
const (
	AllAlgorithms       Scope = "all algorithms"
	ObliviousAlgorithms Scope = "oblivious algorithms"
)

// maxProductGenerators bounds |S^r| in the multi-round computations.
const maxProductGenerators = 5000

// UpperBound states that K-set agreement is solvable in Rounds rounds.
type UpperBound struct {
	K       int
	Rounds  int
	Theorem string
	Note    string
}

// LowerBound states that K-set agreement is NOT solvable in Rounds rounds
// for the given Scope. K = 0 means the theorem yields no nontrivial bound.
type LowerBound struct {
	K       int
	Rounds  int
	Theorem string
	Scope   Scope
	Note    string
}

// Numbers are the graph numbers of one generator set that the paper states
// its bounds in: those of S for one round (§3, §5) and those of S^R for R
// rounds (§6, with S^R built once through ProductModel).
type Numbers struct {
	N, R int
	// Gamma is γ(G^R) (Def 3.1) and DomSet its first minimum dominating set
	// when the model is simple (S = {G}); both are zero otherwise.
	Gamma  int
	DomSet bits.Set
	// GammaEq is γ_eq(S^R) (Def 3.3), which is also the effective γ_dist
	// (combinat.DistributedDominationNumberEffective).
	GammaEq int
	// Covering holds cov_i(S^R) at index i−1 for i = 1..GammaEq−1 (Def 3.6).
	Covering []int
	// MaxCov and MaxCoeff hold the effective max-cov_t(S^R) and M_t at
	// index t−1 for t = 1..GammaEq−1, 0 where max-cov_t is undefined
	// (Def 5.3). They are computed at R = 1, where the report shows them,
	// and for non-simple models, whose Thm 5.4/6.11 bound needs them.
	MaxCov, MaxCoeff []int
}

// numbersOf computes the numbers of S (r = 1) or of S^r. Building S^r and
// every sweep over it poll ctx.
func numbersOf(ctx context.Context, m *model.ClosedAbove, r int) (Numbers, error) {
	gens := m.Generators()
	if r > 1 {
		pm, err := m.ProductModel(ctx, r)
		if err != nil {
			return Numbers{}, err
		}
		if gens = pm.Generators(); len(gens) > maxProductGenerators {
			return Numbers{}, fmt.Errorf("core: |S^%d| = %d exceeds limit %d", r, len(gens), maxProductGenerators)
		}
	}
	nb := Numbers{N: m.N(), R: r}
	if m.IsSimple() {
		nb.DomSet, nb.Gamma = combinat.MinDominatingSet(gens[0])
	}
	var err error
	if nb.GammaEq, err = combinat.EqualDominationNumberSet(gens); err != nil {
		return Numbers{}, err
	}
	for i := 1; i < nb.GammaEq; i++ {
		cov, err := combinat.CoveringNumberSet(ctx, gens, i)
		if err != nil {
			return Numbers{}, err
		}
		nb.Covering = append(nb.Covering, cov)
	}
	if r > 1 && m.IsSimple() {
		return nb, nil
	}
	for t := 1; t < nb.GammaEq; t++ {
		mc, ok, err := combinat.MaxCoveringNumberEffective(ctx, gens, t)
		if err != nil {
			return Numbers{}, err
		}
		mt := 0
		if ok {
			mt = combinat.MaxCoveringCoefficient(nb.N, t, mc)
		}
		nb.MaxCov = append(nb.MaxCov, mc)
		nb.MaxCoeff = append(nb.MaxCoeff, mt)
	}
	return nb, nil
}

// RoundBounds holds every bound the paper gives for one round count, all
// derived from the numbers of that round.
type RoundBounds struct {
	Numbers
	// Upper lists the upper bounds: at R = 1 Thm 3.2 (simple, γ(G)),
	// Thm 3.4 / Cor 3.5 (γ_eq) and Thm 3.7 / Cor 3.8 (one per covering
	// index i); at R ≥ 2 Thm 6.3 (simple, γ(G^R)), Thm 6.4 (γ_eq(S^R)),
	// Thm 6.5 (covering numbers of S^R) and Thm 6.7/6.9 (the first covering
	// sequence of S that reaches n within R rounds).
	Upper []UpperBound
	// Lower is the lower bound: Thm 5.1 (simple) or Thm 5.4 at R = 1, for
	// all algorithms; Thm 6.10 or Thm 6.11 (Thm 5.4 on S^R) at R ≥ 2, for
	// oblivious algorithms.
	Lower LowerBound
}

// Best returns the smallest solvable K with the round's lower bound.
func (b *RoundBounds) Best() BoundPair {
	up := b.Upper[0]
	for _, u := range b.Upper[1:] {
		if u.K < up.K {
			up = u
		}
	}
	return BoundPair{Rounds: b.R, Upper: up, Lower: b.Lower, Tight: up.K == b.Lower.K+1}
}

// Bounds computes the numbers of m at r rounds once and derives every
// r-round bound from them (see RoundBounds). r ≥ 1; at r ≥ 2 the numbers
// are those of S^r, exponential in r, so building it and every sweep poll
// ctx and a cancelled computation returns the context's cause.
func Bounds(ctx context.Context, m *model.ClosedAbove, r int) (*RoundBounds, error) {
	if r < 1 {
		return nil, fmt.Errorf("core: rounds %d must be ≥ 1", r)
	}
	base, err := numbersOf(ctx, m, 1)
	if err != nil {
		return nil, err
	}
	return boundsAt(ctx, m, base, r)
}

// BestUpperOneRound is the best upper bound of Bounds(context.Background(),
// m, 1), kept for perfbench.
func BestUpperOneRound(m *model.ClosedAbove) (UpperBound, error) {
	b, err := Bounds(context.Background(), m, 1)
	if err != nil {
		return UpperBound{}, err
	}
	return b.Best().Upper, nil
}

// BestLowerOneRound is the lower bound of Bounds(context.Background(), m, 1),
// kept for perfbench.
func BestLowerOneRound(m *model.ClosedAbove) (LowerBound, error) {
	b, err := Bounds(context.Background(), m, 1)
	if err != nil {
		return LowerBound{}, err
	}
	return b.Lower, nil
}

// boundsAt computes the numbers of round r (base, the numbers of S, at
// r = 1) and states the round's bounds from them, with the §3/§5 theorem
// labels at r = 1 and the §6 ones at r ≥ 2. The covering sequences of S,
// read off base, give the Thm 6.7/6.9 bound.
//
// The lower bound of a simple model is Thm 5.1 (Thm 6.10 is its statement
// on G^r, consistent with the paper's appendix rather than its misprinted
// body). Thm 5.4 is deliberately NOT applied to simple models: §5
// introduces it after dispatching the simple case to Thm 5.1 ("we thus
// focus on general closed-above models"), and applying it to a singleton S
// produces claims contradicted by the Thm 3.2 algorithm (e.g. it would
// declare 3-set agreement impossible on ↑star, where consensus is solvable
// with the known dominating set).
func boundsAt(ctx context.Context, m *model.ClosedAbove, base Numbers, r int) (*RoundBounds, error) {
	nb := base
	set, graphR := "S", "G"
	eqThm, covThm, simpleLo, generalLo, scope := "Thm 3.4", "Thm 3.7", "Thm 5.1", "Thm 5.4", AllAlgorithms
	if m.IsSymmetric() {
		eqThm, covThm = "Cor 3.5", "Cor 3.8"
	}
	if r > 1 {
		var err error
		if nb, err = numbersOf(ctx, m, r); err != nil {
			return nil, err
		}
		set, graphR = fmt.Sprintf("S^%d", r), fmt.Sprintf("G^%d", r)
		eqThm, covThm, simpleLo, generalLo, scope = "Thm 6.4", "Thm 6.5", "Thm 6.10", "Thm 6.11", ObliviousAlgorithms
	}
	n := nb.N
	b := &RoundBounds{Numbers: nb}
	if m.IsSimple() {
		u := UpperBound{K: nb.Gamma, Rounds: r, Theorem: "Thm 3.2",
			Note: fmt.Sprintf("γ(G) = %d, dominating set %v", nb.Gamma, nb.DomSet)}
		if r > 1 {
			u.Theorem, u.Note = "Thm 6.3", fmt.Sprintf("γ(%s) = %d", graphR, nb.Gamma)
		}
		b.Upper = append(b.Upper, u)
	}
	b.Upper = append(b.Upper, UpperBound{K: nb.GammaEq, Rounds: r, Theorem: eqThm,
		Note: fmt.Sprintf("γ_eq(%s) = %d", set, nb.GammaEq)})
	for j, cov := range nb.Covering {
		i := j + 1
		b.Upper = append(b.Upper, UpperBound{K: i + (n - cov), Rounds: r, Theorem: covThm,
			Note: fmt.Sprintf("i = %d, cov_%d(%s) = %d", i, i, set, cov)})
	}
	// Covering-number sequences (Thm 6.7 single graph / Thm 6.9 sets): the
	// smallest i whose sequence reaches n within r rounds. Smaller i is
	// stronger; later i are weaker bounds.
	if r > 1 {
		for i := 1; i <= n; i++ {
			seq, err := combinat.CoveringSequenceFrom(i, n, base.GammaEq, base.Covering)
			if err != nil {
				return nil, err
			}
			if seq.ReachesAll && seq.Round <= r {
				theorem := "Thm 6.9"
				if m.IsSimple() {
					theorem = "Thm 6.7"
				}
				b.Upper = append(b.Upper, UpperBound{K: i, Rounds: r, Theorem: theorem,
					Note: fmt.Sprintf("%d-th covering sequence reaches n at round %d", i, seq.Round)})
				break
			}
		}
	}
	if m.IsSimple() {
		b.Lower = LowerBound{K: nb.Gamma - 1, Rounds: r, Theorem: simpleLo, Scope: scope,
			Note: fmt.Sprintf("γ(%s) = %d", graphR, nb.Gamma)}
	} else {
		k, note := theorem54(nb, set)
		b.Lower = LowerBound{K: k, Rounds: r, Theorem: generalLo, Scope: scope, Note: note}
	}
	return b, nil
}

// theorem54 evaluates l = min(γ_dist − 2, min_t t + M_t − 2) over computed
// numbers, with the effective γ_dist / max-cov semantics (see
// combinat.DistributedDominationNumberEffective), the reading that
// reproduces the paper's worked examples. A t without max-cov is skipped.
// It returns the (l+1)-set impossibility's K (at least 0) and its note,
// which names set, the generator set the numbers are of (S^r for Thm 6.11).
func theorem54(nb Numbers, set string) (int, string) {
	l := nb.GammaEq - 2
	note := fmt.Sprintf("γ_dist(%s) = %d", set, nb.GammaEq)
	for j, mt := range nb.MaxCoeff {
		t := j + 1
		if nb.MaxCov[j] == 0 {
			continue
		}
		if v := t + mt - 2; v < l {
			l = v
			note = fmt.Sprintf("t = %d, M_t(%s) = %d", t, set, mt)
		}
	}
	return max(l+1, 0), note
}

// Corollary55 evaluates the closed-form symmetric lower bound for the model
// Sym(↑G) directly from the single graph G, without expanding the orbit.
func Corollary55(g graph.Digraph) (LowerBound, error) {
	sym, err := graph.SymClosure([]graph.Digraph{g})
	if err != nil {
		return LowerBound{}, err
	}
	gammaDist, err := combinat.DistributedDominationNumberEffective(sym)
	if err != nil {
		return LowerBound{}, err
	}
	n := g.N()
	l := gammaDist - 2
	for t := 1; t <= gammaDist-1; t++ {
		mc, ok, err := combinat.SymMaxCovering(g, t)
		if err != nil {
			return LowerBound{}, err
		}
		if ok {
			l = min(l, t+combinat.MaxCoveringCoefficient(n, t, mc)-2)
		}
	}
	return LowerBound{
		K:       max(l+1, 0),
		Rounds:  1,
		Theorem: "Cor 5.5",
		Scope:   AllAlgorithms,
		Note:    fmt.Sprintf("closed form from single generator, γ_dist = %d", gammaDist),
	}, nil
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
