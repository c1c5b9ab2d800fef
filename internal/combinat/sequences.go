package combinat

import (
	"context"
	"fmt"

	"ksettop/internal/graph"
)

// Sequence is a covering-number sequence (Def 6.6 / Def 6.8) together with
// whether it reaches n and at which index (1-based) it first does.
type Sequence struct {
	// Values holds s_1, s_2, … up to the first n or the first fixpoint.
	Values []int
	// ReachesAll reports whether the sequence reaches n.
	ReachesAll bool
	// Round is the 1-based index at which the sequence first equals n
	// (0 when ReachesAll is false). Per Thm 6.7/6.9, i-set agreement is
	// solvable in Round rounds when ReachesAll holds.
	Round int
}

// CoveringSequence returns the i-th covering-number sequence of a single
// graph G (Def 6.6):
//
//	s_1 = cov_i(G)
//	s_{k+1} = n          if s_k ≥ γ_eq(G)
//	          cov_{s_k}(G)  otherwise
//
// Self-loops make the sequence non-decreasing, so it either reaches n or
// stabilizes at a fixpoint below n; iteration stops there.
func CoveringSequence(g graph.Digraph, i int) (Sequence, error) {
	return coveringSequence(i, g.N(), EqualDominationNumber(g), func(j int) (int, error) {
		return CoveringNumber(g, j)
	})
}

// CoveringSequenceSet returns the i-th covering-number sequence of a set of
// graphs (Def 6.8):
//
//	s_1 = min_G cov_i(G)
//	s_{k+1} = n               if s_k ≥ max_G γ_eq(G)
//	          min_G cov_{s_k}(G)  otherwise
func CoveringSequenceSet(ctx context.Context, gens []graph.Digraph, i int) (Sequence, error) {
	if len(gens) == 0 {
		return Sequence{}, fmt.Errorf("combinat: covering sequence of empty graph set")
	}
	eq, err := EqualDominationNumberSet(gens)
	if err != nil {
		return Sequence{}, err
	}
	return coveringSequence(i, gens[0].N(), eq, func(j int) (int, error) {
		return CoveringNumberSet(ctx, gens, j)
	})
}

// CoveringSequenceFrom returns the i-th covering-number sequence (Def 6.6 /
// Def 6.8) of a graph or set whose γ_eq and covering numbers are already
// computed: cov[j−1] = cov_j for j = 1..γ_eq−1, the only indices the
// sequence reads.
func CoveringSequenceFrom(i, n, gammaEq int, cov []int) (Sequence, error) {
	return coveringSequence(i, n, gammaEq, func(j int) (int, error) { return cov[j-1], nil })
}

func coveringSequence(i, n, gammaEq int, cov func(int) (int, error)) (Sequence, error) {
	if i < 1 || i > n {
		return Sequence{}, fmt.Errorf("combinat: sequence index %d outside [1,%d]", i, n)
	}
	var seq Sequence
	prev := i
	for round := 1; round <= n+1; round++ {
		var next int
		if prev >= gammaEq {
			next = n
		} else {
			c, err := cov(prev)
			if err != nil {
				return Sequence{}, err
			}
			next = c
		}
		seq.Values = append(seq.Values, next)
		if next == n {
			seq.ReachesAll = true
			seq.Round = round
			return seq, nil
		}
		if next == prev {
			return seq, nil // fixpoint below n: never reaches everyone
		}
		prev = next
	}
	// Values strictly increase until a fixpoint or n, so n+1 steps always
	// suffice; this is unreachable but kept for safety.
	return seq, nil
}
