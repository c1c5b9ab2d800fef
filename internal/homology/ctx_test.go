package homology

import (
	"context"
	"errors"
	"slices"
	"testing"
	"time"

	"ksettop/internal/par"
)

// TestReducedBettiCtxDeterminism is the Betti-side corpus regression for the
// cancellation backbone: cancelling a reduction mid-flight and rerunning it
// to completion must yield Betti numbers identical to a never-cancelled run,
// at every parallelism setting.
func TestReducedBettiCtxDeterminism(t *testing.T) {
	facets := facetComplex(pseudosphereFacets([]int{3, 3, 3, 3, 3, 2, 2, 2, 2}))
	const maxDim = 7
	defer par.SetParallelism(0)

	par.SetParallelism(1)
	want, err := ReducedBettiCtx(context.Background(), facets, maxDim)
	if err != nil {
		t.Fatal(err)
	}

	for _, workers := range []int{1, 2, 5, 8} {
		par.SetParallelism(workers)
		// Cancel mid-run: a deadline short enough to land inside the
		// reduction on most runs. Either outcome is legal — an abort error
		// carrying DeadlineExceeded, or a clean finish if the run beat the
		// deadline — but never a partial result without error.
		ctx, cancel := context.WithTimeout(context.Background(), 2*time.Millisecond)
		got, err := ReducedBettiCtx(ctx, facets, maxDim)
		cancel()
		if err != nil {
			if !errors.Is(err, context.DeadlineExceeded) {
				t.Fatalf("workers=%d: cancelled run returned %v, want a DeadlineExceeded chain", workers, err)
			}
		} else if !slices.Equal(got, want) {
			t.Fatalf("workers=%d: run that beat the deadline differs: %v vs %v", workers, got, want)
		}
		// Rerun to completion: identical to the uncancelled result.
		got, err = ReducedBettiCtx(context.Background(), facets, maxDim)
		if err != nil {
			t.Fatalf("workers=%d: rerun: %v", workers, err)
		}
		if !slices.Equal(got, want) {
			t.Errorf("workers=%d: rerun after cancellation differs: %v vs %v", workers, got, want)
		}
	}
}

// TestReducedBettiCtxExpired pins that an already-expired deadline is
// rejected synchronously with a typed context error, before any reduction
// work.
func TestReducedBettiCtxExpired(t *testing.T) {
	facets := facetComplex{{0, 1, 2}, {0, 1, 3}, {0, 2, 3}, {1, 2, 3}}
	ctx, cancel := context.WithTimeout(context.Background(), time.Nanosecond)
	defer cancel()
	<-ctx.Done()
	if _, err := ReducedBettiCtx(ctx, facets, 2); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want DeadlineExceeded chain", err)
	}
}
