package combinat

import (
	"context"
	"math/rand"
	"testing"

	"ksettop/internal/bits"
	"ksettop/internal/graph"
)

// TestSymClosedFormVsExpansion cross-checks the Corollary 5.5 closed form
// for max-cov_t(Sym(G)) against the explicit symmetric-closure computation.
// The closed form is a worst-case permutation argument, so it must never be
// smaller than the explicit effective value; on the star family it is exact.
func TestSymClosedFormVsExpansion(t *testing.T) {
	star4, _ := graph.Star(4, 0)
	stars42, _ := graph.UnionOfStars(4, []int{0, 1})
	cases := []struct {
		name  string
		g     graph.Digraph
		exact bool
	}{
		{"star(4)", star4, true},
		{"2-stars(4)", stars42, true},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			sym, err := graph.SymClosure([]graph.Digraph{c.g})
			if err != nil {
				t.Fatalf("SymClosure: %v", err)
			}
			gd, _ := DistributedDominationNumberEffective(sym)
			for tt := 1; tt < gd; tt++ {
				explicit, okE, err := MaxCoveringNumberEffective(context.Background(), sym, tt)
				if err != nil {
					t.Fatalf("MaxCoveringNumberEffective: %v", err)
				}
				closed, okC, err := SymMaxCovering(c.g, tt)
				if err != nil {
					t.Fatalf("SymMaxCovering: %v", err)
				}
				if okE != okC {
					t.Errorf("t=%d: definedness mismatch explicit=%v closed=%v", tt, okE, okC)
					continue
				}
				if !okE {
					continue
				}
				if closed < explicit {
					t.Errorf("t=%d: closed form %d < explicit %d (must over-approximate)",
						tt, closed, explicit)
				}
				if c.exact && closed != explicit {
					t.Errorf("t=%d: closed form %d != explicit %d on star family",
						tt, closed, explicit)
				}
			}
		})
	}
}

// TestEffectiveDominatesLiteral: the effective max-cov can only be larger
// than the literal Def 5.3 value (more witness subsets are allowed).
func TestEffectiveDominatesLiteral(t *testing.T) {
	g1, _ := graph.Star(4, 0)
	g2, _ := graph.Cycle(4)
	set := []graph.Digraph{g1, g2}
	gdLit, _ := DistributedDominationNumber(context.Background(), set)
	for i := 1; i < gdLit; i++ {
		lit, okL, err := MaxCoveringNumber(context.Background(), set, i)
		if err != nil {
			t.Fatalf("MaxCoveringNumber: %v", err)
		}
		eff, okE, err := MaxCoveringNumberEffective(context.Background(), set, i)
		if err != nil {
			t.Fatalf("MaxCoveringNumberEffective: %v", err)
		}
		if okL && (!okE || eff < lit) {
			t.Errorf("i=%d: effective %d(%v) < literal %d(%v)", i, eff, okE, lit, okL)
		}
	}
}

// TestGammaDistProductMonotone reproduces the Appendix G fact used by
// Thm 6.13: γ_dist(S^r) = γ_dist(S) for star-union models (star graphs are
// idempotent under the product).
func TestGammaDistProductMonotone(t *testing.T) {
	g, _ := graph.UnionOfStars(4, []int{0, 1})
	sym, _ := graph.SymClosure([]graph.Digraph{g})
	prods, err := graph.ProductSet(context.Background(), sym, 2)
	if err != nil {
		t.Fatalf("ProductSet: %v", err)
	}
	base, _ := DistributedDominationNumberEffective(sym)
	squared, _ := DistributedDominationNumberEffective(prods)
	if base != squared {
		t.Errorf("γ_dist(S²) = %d, want γ_dist(S) = %d (star idempotence)", squared, base)
	}
}

// TestMissCoverMatchesSubsets checks the antichain search of maxCoverScan
// against plain subset enumeration on seeded random out-set families —
// large enough that the search has to grow unions past two sets.
func TestMissCoverMatchesSubsets(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	var sc coverScratch
	for trial := 0; trial < 2000; trial++ {
		n := 3 + rng.Intn(5)
		outs := make([]bits.Set, 1+rng.Intn(12))
		for i := range outs {
			outs[i] = bits.Set(rng.Int63()) & bits.Full(n)
		}
		q := rng.Intn(n)
		maxSize := 1 + rng.Intn(len(outs))
		minSize := 1 + rng.Intn(maxSize)
		want := -1
		if missing := countMissing(outs, q); missing > 0 && missing >= minSize {
			for sel := bits.Set(1); sel < bits.Set(1)<<len(outs); sel++ {
				if sel.Count() > maxSize {
					continue
				}
				var union bits.Set
				sel.ForEach(func(i int) { union |= outs[i] })
				if !union.Has(q) {
					want = max(want, union.Count())
				}
			}
		}
		if got := sc.missCover(outs, q, minSize, maxSize); got != want {
			t.Fatalf("outs %v, q %d, sizes %d..%d: missCover = %d, subsets give %d", outs, q, minSize, maxSize, got, want)
		}
	}
}

func countMissing(outs []bits.Set, q int) int {
	missing := 0
	for _, o := range outs {
		if !o.Has(q) {
			missing++
		}
	}
	return missing
}
