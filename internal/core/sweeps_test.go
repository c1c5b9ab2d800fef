package core

import (
	"context"
	"fmt"
	mathbits "math/bits"
	"os"
	"strconv"
	"strings"
	"testing"

	"ksettop/internal/bits"
	"ksettop/internal/cli"
	"ksettop/internal/combinat"
	"ksettop/internal/graph"
)

// subsetMaxCover is the generator-subset enumeration the combinat sweeps
// replaced, kept as their reference: over every P of i processes and every
// subset of minSize..maxSize generators, the largest out-union that misses
// some process. The second return is false when every union covers Π.
func subsetMaxCover(gens []graph.Digraph, i, minSize, maxSize int) (int, bool) {
	n := gens[0].N()
	full, best := bits.Full(n), -1
	outs := make([]bits.Set, len(gens))
	bits.Combinations(n, i, func(p bits.Set) bool {
		for gi, g := range gens {
			outs[gi] = g.OutSet(p)
		}
		for size := minSize; size <= maxSize; size++ {
			bits.Combinations(len(gens), size, func(sel bits.Set) bool {
				var union bits.Set
				for t := uint64(sel); t != 0; t &= t - 1 {
					union |= outs[mathbits.TrailingZeros64(t)]
				}
				if union != full {
					best = max(best, union.Count())
				}
				return true
			})
		}
		return true
	})
	return best, best >= 0
}

// subsetWork is the number of unions subsetMaxCover forms.
func subsetWork(n, gens, i, minSize, maxSize int) int64 {
	var per int64
	for size := minSize; size <= maxSize; size++ {
		per += bits.Binomial(gens, size)
	}
	return bits.Binomial(n, i) * per
}

// checkSweeps compares γ_dist (Def 5.2), the literal max-cov_i (Def 5.3)
// and the effective max-cov_i against the subset enumeration for every i
// whose enumeration stays small, and returns how many i it compared.
func checkSweeps(t *testing.T, name string, gens []graph.Digraph) (compared int) {
	t.Helper()
	ctx := context.Background()
	n := gens[0].N()
	gammaDist, err := combinat.DistributedDominationNumber(ctx, gens)
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= n; i++ {
		si := min(i, len(gens))
		if subsetWork(n, len(gens), i, 1, si) > 2_000_000 {
			continue
		}
		compared++
		want, wantOK := subsetMaxCover(gens, i, si, si)
		got, ok, err := combinat.MaxCoveringNumber(ctx, gens, i)
		if err != nil {
			t.Fatal(err)
		}
		if got != max(want, 0) || ok != wantOK {
			t.Errorf("%s: max-cov_%d = %d (%v), subset enumeration %d (%v)", name, i, got, ok, want, wantOK)
		}
		if dominates := !wantOK; dominates != (i >= gammaDist) {
			t.Errorf("%s: γ_dist = %d, but the subsets of size %d %s", name, gammaDist, i,
				map[bool]string{true: "all dominate", false: "do not all dominate"}[dominates])
		}
		want, wantOK = subsetMaxCover(gens, i, 1, si)
		got, ok, err = combinat.MaxCoveringNumberEffective(ctx, gens, i)
		if err != nil {
			t.Fatal(err)
		}
		if got != max(want, 0) || ok != wantOK {
			t.Errorf("%s: effective max-cov_%d = %d (%v), subset enumeration %d (%v)", name, i, got, ok, want, wantOK)
		}
	}
	return compared
}

// TestSweepsMatchSubsetEnumeration cross-checks the combinat generator-set
// sweeps against the subset enumeration they replaced, on the generator
// set S of every model of the bound golden file and on its S^r, wherever
// the set has fewer than 64 generators (where the enumeration works).
func TestSweepsMatchSubsetEnumeration(t *testing.T) {
	raw, err := os.ReadFile("testdata/bounds.golden")
	if err != nil {
		t.Fatal(err)
	}
	checked := 0
	for _, block := range strings.Split(string(raw), "=== ")[1:] {
		head, _, _ := strings.Cut(block, "\n")
		spec, roundsText, _ := strings.Cut(head, " rounds=")
		rounds, err := strconv.Atoi(roundsText)
		if err != nil {
			t.Fatal(err)
		}
		m, err := cli.ParseModel(spec)
		if err != nil {
			t.Fatal(err)
		}
		for r := 1; r <= rounds; r++ {
			gens := m.Generators()
			if r > 1 {
				pm, err := m.ProductModel(context.Background(), r)
				if err != nil {
					t.Fatal(err)
				}
				gens = pm.Generators()
			}
			if len(gens) >= 64 {
				continue
			}
			checked += checkSweeps(t, fmt.Sprintf("%s S^%d", spec, r), gens)
		}
	}
	t.Logf("cross-checked %d (generator set, i) pairs", checked)
}

// TestSweepsOver64Generators pins the sweeps on the 64 generators of the
// non-split model on 4 processes, one past what a 64-bit subset mask
// enumerates: a single generator misses a process while covering 3, so
// max-cov_1 = 3, and γ_dist = 3.
func TestSweepsOver64Generators(t *testing.T) {
	m, err := cli.ParseModel("nonsplit:n=4")
	if err != nil {
		t.Fatal(err)
	}
	gens := m.Generators()
	if len(gens) != 64 {
		t.Fatalf("nonsplit:n=4 has %d generators, want 64", len(gens))
	}
	ctx := context.Background()
	if got, ok, err := combinat.MaxCoveringNumberEffective(ctx, gens, 1); err != nil || !ok || got != 3 {
		t.Errorf("effective max-cov_1 = %d (%v, %v), want 3", got, ok, err)
	}
	if got, ok, err := combinat.MaxCoveringNumber(ctx, gens, 1); err != nil || !ok || got != 3 {
		t.Errorf("max-cov_1 = %d (%v, %v), want 3", got, ok, err)
	}
	if got, err := combinat.DistributedDominationNumber(ctx, gens); err != nil || got != 3 {
		t.Errorf("γ_dist = %d (%v), want 3", got, err)
	}
}
