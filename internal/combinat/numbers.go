// Package combinat computes the graph-combinatorial numbers the paper's
// bounds are stated in: the domination number γ (Def 3.1), the
// equal-domination number γ_eq (Def 3.3), the covering numbers cov_i
// (Def 3.6), the distributed domination number γ_dist (Def 5.2), the
// max-covering numbers and coefficients (Def 5.3), and the covering-number
// sequences (Def 6.6 / Def 6.8).
//
// All computations are exact. They enumerate subsets, so they are
// exponential in the number of processes — as are the quantities themselves
// (domination is NP-hard); the paper's models use small n. The C(n,i) sweeps
// are sharded into contiguous rank ranges (bits.CombinationsRange) and
// drained by the internal/par worker pool; every reducer either selects the
// lowest-ranked witness or is order-insensitive, so results are identical to
// the sequential sweep regardless of scheduling.
// The generator-set sweeps take a context (over S^r they are the long runs
// of the multi-round bounds); single-graph numbers stay context-free.
package combinat

import (
	"context"
	"fmt"

	"ksettop/internal/bits"
	"ksettop/internal/graph"
	"ksettop/internal/par"
)

// pollMask throttles cancellation polling in the process-set sweep loops to
// one atomic load every 64 iterations; the generator-subset loops nested in
// them poll at par.PollMask.
const pollMask = 63

// DominationNumber returns γ(G) (Def 3.1): the size of the smallest set P
// with ⋃_{p∈P} Out(p) = Π. Self-loops guarantee γ(G) ≤ n.
func DominationNumber(g graph.Digraph) int {
	p, _ := MinDominatingSet(g)
	return p.Count()
}

// MinDominatingSet returns a minimum dominating set of g (the first in
// lexicographic mask order) and its size.
func MinDominatingSet(g graph.Digraph) (bits.Set, int) {
	n := g.N()
	full := g.Procs()
	for size := 1; size <= n; size++ {
		rank, err := par.First(context.Background(), bits.Binomial(n, size), func(from, to int64, ctl *par.Ctl) int64 {
			found, r := int64(-1), from
			bits.CombinationsRange(n, size, from, to, func(p bits.Set) bool {
				if r&pollMask == 0 && ctl.SkipAfter(r) {
					return false
				}
				if g.OutSet(p) == full {
					found = r
					return false
				}
				r++
				return true
			})
			return found
		})
		if err != nil {
			panic(err) // uncancellable: a contained worker panic or injected fault
		}
		if rank >= 0 {
			return bits.UnrankCombination(n, size, rank), size
		}
	}
	// Unreachable: Π itself always dominates because of self-loops.
	return full, n
}

// EqualDominationNumber returns γ_eq(G) (Def 3.3 applied to one graph): the
// least i such that EVERY set of i processes dominates G.
//
// It uses the closed form 1 + max_q (n − |In(q)|): a set P fails to dominate
// exactly when it avoids In(q) for some q, and the largest such P is
// Π \ In(q) for the q with fewest in-neighbors. The brute-force definition
// is kept in tests as an oracle.
func EqualDominationNumber(g graph.Digraph) int {
	n := g.N()
	worst := 0
	for q := 0; q < n; q++ {
		if miss := n - g.In(q).Count(); miss > worst {
			worst = miss
		}
	}
	return worst + 1
}

// EqualDominationNumberSet returns γ_eq(S) = max_{G∈S} γ_eq(G) (Def 3.3).
func EqualDominationNumberSet(gens []graph.Digraph) (int, error) {
	if len(gens) == 0 {
		return 0, fmt.Errorf("combinat: γ_eq of empty graph set")
	}
	maxEq := 0
	for _, g := range gens {
		if eq := EqualDominationNumber(g); eq > maxEq {
			maxEq = eq
		}
	}
	return maxEq, nil
}

// CoveringNumber returns cov_i(G) (Def 3.6 applied to one graph): the
// minimum, over sets P of i processes, of |⋃_{p∈P} Out(p)|. Self-loops give
// cov_i(G) ≥ i for EVERY graph, which makes i a sound floor for the
// min-reduction: the sweep stops as soon as some P attains it.
func CoveringNumber(g graph.Digraph, i int) (int, error) {
	n := g.N()
	if i < 1 || i > n {
		return 0, fmt.Errorf("combinat: covering index %d outside [1,%d]", i, n)
	}
	best, err := par.Min(context.Background(), bits.Binomial(n, i), int64(i), func(from, to int64, ctl *par.Ctl) int64 {
		local, r := int64(n), from
		bits.CombinationsRange(n, i, from, to, func(p bits.Set) bool {
			if r&pollMask == 0 && ctl.Stopped() {
				return false
			}
			r++
			if c := int64(g.OutSet(p).Count()); c < local {
				local = c
				if local <= int64(i) {
					return false // at the floor; nothing below is possible
				}
			}
			return true
		})
		return local
	})
	return int(best), err
}

// CoveringNumberSet returns cov_i(S) = min_{G∈S} cov_i(G) (Def 3.6).
//
// The floor short-circuit lives HERE, at the min-over-graphs level: each
// per-graph sweep is exact, and because cov_i(G) ≥ i holds for every graph
// (self-loops), the remaining graphs are skipped only once some graph has
// already attained the global floor i — skipping them cannot change the
// minimum. An earlier revision stopped each per-graph sweep at the floor but
// kept scanning the remaining graphs for no benefit. ctx is polled per graph.
func CoveringNumberSet(ctx context.Context, gens []graph.Digraph, i int) (int, error) {
	if len(gens) == 0 {
		return 0, fmt.Errorf("combinat: cov_%d of empty graph set", i)
	}
	best := 0
	for idx, g := range gens {
		if ctx.Err() != nil {
			return 0, context.Cause(ctx)
		}
		c, err := CoveringNumber(g, i)
		if err != nil {
			return 0, err
		}
		if idx == 0 || c < best {
			best = c
		}
		if best == i {
			break // global floor attained; no later graph can go lower
		}
	}
	return best, nil
}

// DistributedDominationNumber returns γ_dist(S) (Def 5.2): the least i > 0
// such that every set P of i processes, together with every subset S_i of S
// of size min(i,|S|), satisfies ⋃_{G∈S_i} Out_G(P) = Π.
//
// Because self-loops make Π dominate everything, γ_dist(S) ≤ n. It also
// holds that γ_dist(S) ≤ γ_eq(S).
func DistributedDominationNumber(ctx context.Context, gens []graph.Digraph) (int, error) {
	if len(gens) == 0 {
		return 0, fmt.Errorf("combinat: γ_dist of empty graph set")
	}
	n := gens[0].N()
	for i := 1; i <= n; i++ {
		all, err := distDominatesAll(ctx, gens, i)
		if err != nil {
			return 0, err
		}
		if all {
			return i, nil
		}
	}
	return n, nil
}

// distDominatesAll reports whether every (P, S_i) combination of size i
// jointly dominates Π. A subset S_i misses q exactly when every graph in it
// does, so some S_i of si graphs fails to dominate iff, for some P and some
// q, at least si generators have q ∉ Out_G(P): the check counts those
// generators and enumerates no generator subsets. The P sweep is sharded.
func distDominatesAll(ctx context.Context, gens []graph.Digraph, i int) (bool, error) {
	n := gens[0].N()
	si := min(i, len(gens))
	someViolated, err := par.Exists(ctx, bits.Binomial(n, i), func(from, to int64, ctl *par.Ctl) bool {
		outs := make([]bits.Set, len(gens))
		violated, r := false, from
		bits.CombinationsRange(n, i, from, to, func(p bits.Set) bool {
			if r&pollMask == 0 && ctl.Stopped() {
				return false
			}
			r++
			for gi, g := range gens {
				outs[gi] = g.OutSet(p)
			}
			for q := 0; q < n && !violated; q++ {
				missing := 0
				for _, o := range outs {
					if !o.Has(q) {
						missing++
					}
				}
				violated = missing >= si
			}
			return !violated
		})
		return violated
	})
	return !someViolated, err
}

// DistributedDominationNumberEffective returns the value of γ_dist(S) that
// the paper's worked examples and Theorem 6.13 actually use.
//
// Def 5.2 read literally quantifies over subsets S_i of exactly min(i,|S|)
// graphs dominating *jointly* (that is what DistributedDominationNumber
// computes). The paper's star-union computation (§5 and Appendix G) instead
// exhibits a single non-dominated graph as the failure witness — under that
// semantics the failure condition is "some P of size i fails to dominate
// some graph", which makes γ_dist(S) coincide with γ_eq(S). Only this
// reading reproduces γ_dist = n−s+1 for the union-of-s-stars family and
// hence the tight Theorem 6.13 bound; TestDistributedDominationStarUnions
// records the values the literal reading gives instead.
func DistributedDominationNumberEffective(gens []graph.Digraph) (int, error) {
	return EqualDominationNumberSet(gens)
}

// maxCoverScan is the shared shard scanner of the max-covering sweeps: the
// maximum of |⋃_{G∈S_i} Out_G(P)| over the shard's P range and the
// non-dominating graph subsets S_i of minSize..maxSize graphs, or -1 when
// every such combination in the shard dominates. A union misses some q
// exactly when every graph in it does, so the scan reads off, per P and q,
// the generators whose out-set misses q and covers the most with at most
// maxSize of them (missCover); with at least minSize such generators, a
// smaller winning subset pads up to minSize without covering q. The n−1
// ceiling is exact (a non-dominating union misses at least one process), so
// attaining it cancels the remaining shards.
func maxCoverScan(gens []graph.Digraph, n, i, minSize, maxSize int, from, to int64, ctl *par.Ctl) int64 {
	outs := make([]bits.Set, len(gens))
	var sc coverScratch
	local, r := int64(-1), from
	bits.CombinationsRange(n, i, from, to, func(p bits.Set) bool {
		if r&pollMask == 0 && ctl.Stopped() {
			return false
		}
		r++
		for gi, g := range gens {
			outs[gi] = g.OutSet(p)
		}
		for q := 0; q < n && local < int64(n-1); q++ {
			if c := int64(sc.missCover(outs, q, minSize, maxSize)); c > local {
				local = c
			}
		}
		return local < int64(n-1)
	})
	return local
}

// coverScratch holds missCover's reusable antichains.
type coverScratch struct{ anti, reach, next []bits.Set }

// missCover returns the most processes covered by the union of at most
// maxSize out-sets among outs that miss q, or -1 when fewer than minSize
// (or no) out-sets miss q. Only the ⊆-maximal out-sets matter — swapping a
// set for a superset never covers less — and the search keeps just the
// ⊆-maximal unions reached with k sets as it grows k, stopping early once
// one covers as much as all of them together.
func (sc *coverScratch) missCover(outs []bits.Set, q, minSize, maxSize int) int {
	missing := 0
	var all bits.Set
	sc.anti = sc.anti[:0]
	for _, o := range outs {
		if !o.Has(q) {
			missing++
			all |= o
			sc.anti = addMaximal(sc.anti, o)
		}
	}
	if missing == 0 || missing < minSize {
		return -1
	}
	if len(sc.anti) <= maxSize {
		return all.Count()
	}
	best := 0
	sc.reach = append(sc.reach[:0], sc.anti...)
	for _, u := range sc.reach {
		best = max(best, u.Count())
	}
	for k := 2; k <= maxSize && best < all.Count(); k++ {
		sc.next = sc.next[:0]
		for _, u := range sc.reach {
			for _, a := range sc.anti {
				sc.next = addMaximal(sc.next, u|a)
			}
		}
		sc.reach, sc.next = sc.next, sc.reach
		for _, u := range sc.reach {
			best = max(best, u.Count())
		}
	}
	return best
}

// addMaximal adds s to the ⊆-antichain set unless a member contains it,
// dropping the members s contains.
func addMaximal(set []bits.Set, s bits.Set) []bits.Set {
	kept := set[:0]
	for _, m := range set {
		if m.ContainsAll(s) {
			return set
		}
		if !s.ContainsAll(m) {
			kept = append(kept, m)
		}
	}
	return append(kept, s)
}

// MaxCoveringNumber returns max-cov_i(S) (Def 5.3): the maximum, over sets P
// of i processes and subsets S_i ⊆ S of size min(i,|S|) whose joint
// out-union is NOT all of Π, of |⋃_{G∈S_i} Out_G(P)|.
//
// The second return is false when no such non-dominating combination exists
// (which happens exactly when i ≥ γ_dist(S)).
func MaxCoveringNumber(ctx context.Context, gens []graph.Digraph, i int) (int, bool, error) {
	if len(gens) == 0 {
		return 0, false, fmt.Errorf("combinat: max-cov of empty graph set")
	}
	n := gens[0].N()
	if i < 1 || i > n {
		return 0, false, fmt.Errorf("combinat: max-cov index %d outside [1,%d]", i, n)
	}
	si := min(i, len(gens))
	best, err := par.Max(ctx, bits.Binomial(n, i), int64(n-1), func(from, to int64, ctl *par.Ctl) int64 {
		return maxCoverScan(gens, n, i, si, si, from, to, ctl)
	})
	if err != nil || best < 0 {
		return 0, false, err
	}
	return int(best), true, nil
}

// MaxCoveringNumberEffective returns max-cov_i(S) under the same witness
// semantics as DistributedDominationNumberEffective: the subset S_i may have
// any size in [1, min(i,|S|)] rather than exactly min(i,|S|). It is defined
// for i < γ_eq(S) (second return false otherwise). Allowing smaller witness
// sets only adds candidates, so the effective value is ≥ the literal Def 5.3
// value whenever both are defined.
func MaxCoveringNumberEffective(ctx context.Context, gens []graph.Digraph, i int) (int, bool, error) {
	if len(gens) == 0 {
		return 0, false, fmt.Errorf("combinat: max-cov of empty graph set")
	}
	n := gens[0].N()
	if i < 1 || i > n {
		return 0, false, fmt.Errorf("combinat: max-cov index %d outside [1,%d]", i, n)
	}
	maxSize := min(i, len(gens))
	best, err := par.Max(ctx, bits.Binomial(n, i), int64(n-1), func(from, to int64, ctl *par.Ctl) int64 {
		return maxCoverScan(gens, n, i, 1, maxSize, from, to, ctl)
	})
	if err != nil || best < 0 {
		return 0, false, err
	}
	return int(best), true, nil
}

// MaxCoveringCoefficient returns M_t (Def 5.3) from an already computed
// max-cov_t, literal or effective:
//
//	⌊(n−t−1)/(max-cov_t − t)⌋  if max-cov_t > t
//	n − t                        if max-cov_t = t
//
// It is only defined where max-cov_t is, for t < γ_dist.
func MaxCoveringCoefficient(n, t, maxCov int) int {
	if maxCov == t {
		return n - t
	}
	return (n - t - 1) / (maxCov - t)
}
