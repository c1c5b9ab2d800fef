package homology

import (
	"context"
	"testing"
)

func TestEdgeCases(t *testing.T) {
	// Single vertex, maxDim far above dimension.
	b, err := ReducedBettiCtx(context.Background(), facetComplex{{5}}, 4)
	if err != nil {
		t.Fatal(err)
	}
	for q, v := range b {
		if v != 0 {
			t.Errorf("point: β̃_%d = %d", q, v)
		}
	}
	// Disconnected points with sparse ids.
	b, err = ReducedBettiCtx(context.Background(), facetComplex{{0}, {2000000}}, 1)
	if err != nil || b[0] != 1 || b[1] != 0 {
		t.Errorf("two far points (comparison-sort fallback): %v err %v", b, err)
	}
	// Duplicate facets.
	b, err = ReducedBettiCtx(context.Background(), facetComplex{{0, 1}, {0, 1}}, 1)
	if err != nil || b[0] != 0 || b[1] != 0 {
		t.Errorf("dup segment: %v err %v", b, err)
	}
	// maxDim 0 on a circle: only β̃_0.
	b, err = ReducedBettiCtx(context.Background(), facetComplex{{0, 1}, {1, 2}, {0, 2}}, 0)
	if err != nil || len(b) != 1 || b[0] != 0 {
		t.Errorf("circle maxDim 0: %v err %v", b, err)
	}
}
