package experiments

import (
	"context"
	"fmt"

	"ksettop/internal/bits"
	"ksettop/internal/core"
	"ksettop/internal/model"
	"ksettop/internal/par"
)

// E14StarUnions7 extends the Thm 6.13 star-union sweep to n = 7, the first
// process count past the paper's worked examples: for every star count s the
// closed-form bounds (γ_dist = n−s+1; (n−s)-set impossible, (n−s+1)-set
// solvable) are recomputed from scratch by the generic bound engine on the
// C(7,s)-generator symmetric model. For the sparse-closure tail (s ≥ 5) the
// closure size additionally cross-checks the streaming enumeration engine
// against the inclusion–exclusion closed form — instances the seed
// enumerator's fixed caps kept out of reach.
func E14StarUnions7(ctx context.Context) (*Table, error) {
	t := &Table{
		ID:      "E14",
		Title:   "Thm 6.13 at n = 7: star-union family swept by the generic engine",
		Columns: []string{"n", "s", "gens", "γ_dist(S)", "impossible", "solvable", "tight", "generic engine", "closure"},
	}
	const n = 7
	for s := 1; s <= n; s++ {
		lo, up, err := core.StarUnionBounds(n, s)
		if err != nil {
			return nil, err
		}
		m, err := model.UnionOfStarsModel(n, s)
		if err != nil {
			return nil, err
		}
		b, err := core.Bounds(ctx, m, 1)
		if err != nil {
			return nil, err
		}
		closure := "skipped (budget)"
		if size, err := m.EnumerationSize(); err == nil && size <= model.DefaultEnumerationBudget {
			count, err := enumeratedCount(ctx, m)
			if err != nil {
				return nil, err
			}
			want, err := m.GraphCountClosedForm()
			if err != nil {
				return nil, err
			}
			closure = fmt.Sprintf("%d (%s)", count, check(count == want))
		}
		t.AddRow(n, s, m.GeneratorCount(), n-s+1,
			fmt.Sprintf("%d-set", lo.K), fmt.Sprintf("%d-set", up.K),
			check(up.K == lo.K+1),
			check(b.Best().Upper.K == up.K && b.Lower.K == lo.K),
			closure)
	}
	t.AddNote("closure column: streaming-enumeration count vs inclusion–exclusion closed form, where the rank space fits the default budget.")
	return t, nil
}

// enumeratedCount counts m's closure by one sequential sweep of the
// streaming enumeration (not GraphCountCtx, whose branching count would
// leave the enumeration unchecked), polling ctx every par.PollMask+1
// elements.
func enumeratedCount(ctx context.Context, m *model.ClosedAbove) (int64, error) {
	e, err := m.Enumeration()
	if err != nil {
		return 0, err
	}
	var count int64
	e.RangeMasks(0, e.Size(), func(bits.Words) bool {
		if count&par.PollMask == 0 && ctx.Err() != nil {
			return false
		}
		count++
		return true
	})
	if ctx.Err() != nil {
		return 0, fmt.Errorf("E14: closure enumeration aborted: %w", context.Cause(ctx))
	}
	return count, nil
}
