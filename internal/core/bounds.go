// Package core implements the paper's primary contribution: upper and lower
// bounds on k-set agreement for closed-above round-based models, stated in
// graph-combinatorial terms (§3, §5, §6), together with machinery to verify
// them on concrete instances by simulation, exhaustive decision-map search,
// and protocol-complex connectivity.
package core

import (
	"context"
	"fmt"

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

// UpperBoundsOneRound returns every one-round upper bound the paper provides
// for the model: Thm 3.2 (simple, domination number), Thm 3.4 / Cor 3.5
// (equal domination), and Thm 3.7 / Cor 3.8 (covering numbers, one bound
// per index i).
func UpperBoundsOneRound(m *model.ClosedAbove) ([]UpperBound, error) {
	gens := m.Generators()
	n := m.N()
	var out []UpperBound

	if m.IsSimple() {
		g := gens[0]
		set, gamma := combinat.MinDominatingSet(g)
		out = append(out, UpperBound{
			K:       gamma,
			Rounds:  1,
			Theorem: "Thm 3.2",
			Note:    fmt.Sprintf("γ(G) = %d, dominating set %v", gamma, set),
		})
	}

	gammaEq, err := combinat.EqualDominationNumberSet(gens)
	if err != nil {
		return nil, err
	}
	theorem := "Thm 3.4"
	if m.IsSymmetric() {
		theorem = "Cor 3.5"
	}
	out = append(out, UpperBound{
		K:       gammaEq,
		Rounds:  1,
		Theorem: theorem,
		Note:    fmt.Sprintf("γ_eq(S) = %d", gammaEq),
	})

	covTheorem := "Thm 3.7"
	if m.IsSymmetric() {
		covTheorem = "Cor 3.8"
	}
	for i := 1; i < gammaEq; i++ {
		cov, err := combinat.CoveringNumberSet(context.Background(), gens, i)
		if err != nil {
			return nil, err
		}
		out = append(out, UpperBound{
			K:       i + (n - cov),
			Rounds:  1,
			Theorem: covTheorem,
			Note:    fmt.Sprintf("i = %d, cov_%d(S) = %d", i, i, cov),
		})
	}
	return out, nil
}

// BestUpperOneRound returns the smallest one-round K.
func BestUpperOneRound(m *model.ClosedAbove) (UpperBound, error) {
	all, err := UpperBoundsOneRound(m)
	if err != nil {
		return UpperBound{}, err
	}
	return bestUpper(all), nil
}

func bestUpper(all []UpperBound) UpperBound {
	best := all[0]
	for _, b := range all[1:] {
		if b.K < best.K {
			best = b
		}
	}
	return best
}

// LowerBoundsOneRound returns the paper's one-round lower bounds: Thm 5.1
// for simple models and Thm 5.4 for general (non-simple) ones.
//
// Thm 5.4 is computed with the effective γ_dist / max-cov semantics (see
// combinat.DistributedDominationNumberEffective), which is the reading that
// reproduces the paper's worked examples. It is deliberately NOT applied to simple models: §5
// introduces it after dispatching the simple case to Thm 5.1 ("we thus focus
// on general closed-above models"), and applying it to a singleton S
// produces claims contradicted by the Thm 3.2 algorithm (e.g. it would
// declare 3-set agreement impossible on ↑star, where consensus is solvable
// with the known dominating set).
func LowerBoundsOneRound(m *model.ClosedAbove) ([]LowerBound, error) {
	gens := m.Generators()
	var out []LowerBound

	if m.IsSimple() {
		gamma := combinat.DominationNumber(gens[0])
		out = append(out, LowerBound{
			K:       gamma - 1,
			Rounds:  1,
			Theorem: "Thm 5.1",
			Scope:   AllAlgorithms,
			Note:    fmt.Sprintf("γ(G) = %d", gamma),
		})
		return out, nil
	}

	thm54, err := theorem54(context.Background(), gens)
	if err != nil {
		return nil, err
	}
	out = append(out, thm54)
	return out, nil
}

// theorem54 evaluates l = min(γ_dist(S)−2, min_t t+M_t(S)−2) and returns the
// (l+1)-set impossibility. Its sweeps poll ctx.
func theorem54(ctx context.Context, gens []graph.Digraph) (LowerBound, error) {
	gammaDist, err := combinat.DistributedDominationNumberEffective(gens)
	if err != nil {
		return LowerBound{}, err
	}
	l := gammaDist - 2
	note := fmt.Sprintf("γ_dist(S) = %d", gammaDist)
	for t := 1; t <= gammaDist-1; t++ {
		mt, ok, err := combinat.MaxCoveringCoefficientEffective(ctx, gens, t)
		if err != nil {
			return LowerBound{}, err
		}
		if !ok {
			continue
		}
		if v := t + mt - 2; v < l {
			l = v
			note = fmt.Sprintf("t = %d, M_t(S) = %d", t, mt)
		}
	}
	k := l + 1
	if k < 0 {
		k = 0
	}
	return LowerBound{
		K:       k,
		Rounds:  1,
		Theorem: "Thm 5.4",
		Scope:   AllAlgorithms,
		Note:    note,
	}, nil
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
		mc, ok, err := combinat.MaxCoveringNumber(context.Background(), []graph.Digraph{g}, t)
		if err != nil {
			return LowerBound{}, err
		}
		if !ok {
			continue
		}
		var v int
		if mc > t {
			v = t + (n-t-1)/(t*(mc-t)) - 2
		} else {
			v = n - 2
		}
		if v < l {
			l = v
		}
	}
	k := l + 1
	if k < 0 {
		k = 0
	}
	return LowerBound{
		K:       k,
		Rounds:  1,
		Theorem: "Cor 5.5",
		Scope:   AllAlgorithms,
		Note:    fmt.Sprintf("closed form from single generator, γ_dist = %d", gammaDist),
	}, nil
}

// BestLowerOneRound returns the strongest (largest K) one-round
// impossibility.
func BestLowerOneRound(m *model.ClosedAbove) (LowerBound, error) {
	all, err := LowerBoundsOneRound(m)
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
