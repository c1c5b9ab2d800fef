package model

import (
	"context"
	"errors"
	mathbits "math/bits"
	"testing"
	"time"

	"ksettop/internal/graph"
	"ksettop/internal/par"
)

// TestEnumerationBudgetTypedError pins the typed budget rejection: errors.Is
// matches ErrEnumerationBudget, errors.As yields the configured budget and
// the overflowing rank-space lower bound.
func TestEnumerationBudgetTypedError(t *testing.T) {
	defer SetEnumerationBudget(0)
	star5, _ := graph.Star(5, 0)
	m, err := Simple(star5) // 16 missing edges: 2^16 ranks
	if err != nil {
		t.Fatal(err)
	}
	SetEnumerationBudget(1000)
	_, err = m.EnumerationSize()
	if !errors.Is(err, ErrEnumerationBudget) {
		t.Fatalf("err %v does not match ErrEnumerationBudget", err)
	}
	var be *EnumerationBudgetError
	if !errors.As(err, &be) {
		t.Fatalf("err %v is not an *EnumerationBudgetError", err)
	}
	if be.Budget != 1000 {
		t.Errorf("Budget = %d, want 1000", be.Budget)
	}
	if be.Required <= be.Budget {
		t.Errorf("Required = %d, want > budget %d", be.Required, be.Budget)
	}
}

// TestEnumerateCtxCancellation pins the ctx-bound enumeration surface: an
// expired deadline aborts with a DeadlineExceeded chain before (or within
// ~1k ranks of) the scan, on every entry point, and the rerun after a
// cancelled sweep is identical to an uncancelled one at every parallelism.
func TestEnumerateCtxCancellation(t *testing.T) {
	m, err := NonEmptyKernelModel(4)
	if err != nil {
		t.Fatal(err)
	}
	defer par.SetParallelism(0)
	par.SetParallelism(1)
	want, err := m.AllGraphs()
	if err != nil {
		t.Fatal(err)
	}
	wantCount, err := m.GraphCountCtx(context.Background())
	if err != nil {
		t.Fatal(err)
	}

	expired, cancel := context.WithTimeout(context.Background(), time.Nanosecond)
	defer cancel()
	<-expired.Done()

	size, err := m.EnumerationSize()
	if err != nil {
		t.Fatal(err)
	}
	if err := m.EnumerateRange(expired, 0, size, func(graph.Digraph) bool { return true }); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("EnumerateRange(expired) = %v, want DeadlineExceeded chain", err)
	}

	for _, workers := range []int{1, 2, 8} {
		par.SetParallelism(workers)
		if _, err := m.AllGraphsCtx(expired); !errors.Is(err, context.DeadlineExceeded) {
			t.Fatalf("workers=%d: AllGraphsCtx(expired) = %v, want DeadlineExceeded chain", workers, err)
		}
		got, err := m.AllGraphsCtx(context.Background())
		if err != nil {
			t.Fatalf("workers=%d: rerun: %v", workers, err)
		}
		if len(got) != len(want) {
			t.Fatalf("workers=%d: rerun yields %d graphs, want %d", workers, len(got), len(want))
		}
		for i := range got {
			if got[i].Key() != want[i].Key() {
				t.Fatalf("workers=%d: rerun graph %d differs", workers, i)
			}
		}
		count, err := m.GraphCountCtx(context.Background())
		if err != nil || count != wantCount {
			t.Fatalf("workers=%d: GraphCountCtx = %d, %v; want %d", workers, count, err, wantCount)
		}
	}
}

// pollCtx counts its Err calls and reports cancellation from call cancelAt
// on (never when cancelAt is 0): a deterministic stand-in for a cancel
// arriving mid-sweep.
type pollCtx struct {
	context.Context
	polls, cancelAt int
}

func (c *pollCtx) Err() error {
	if c.polls++; c.cancelAt > 0 && c.polls >= c.cancelAt {
		return context.Canceled
	}
	return nil
}

// The generator pruning polls its context once per 4096 subgraph
// comparisons. The 924 graphs on 4 processes with exactly 6 of the 12
// edges form an antichain, so pruning compares all 924² pairs (208 polls)
// and keeps every graph; cancelled at the second poll it returns the cause.
func TestMinimalGeneratorsCancellation(t *testing.T) {
	var gens []graph.Digraph
	for mask := 0; mask < 1<<12; mask++ {
		if mathbits.OnesCount(uint(mask)) != 6 {
			continue
		}
		g := graph.MustNew(4)
		e := 0
		for u := 0; u < 4; u++ {
			for v := 0; v < 4; v++ {
				if u == v {
					continue
				}
				if mask&(1<<e) != 0 {
					if err := g.AddEdge(u, v); err != nil {
						t.Fatal(err)
					}
				}
				e++
			}
		}
		gens = append(gens, g)
	}
	uncancelled := &pollCtx{Context: context.Background()}
	minimal, err := minimalGenerators(uncancelled, gens)
	if err != nil || len(minimal) != len(gens) || uncancelled.polls != len(gens)*len(gens)/4096 {
		t.Fatalf("uncancelled: %d of %d kept, %d polls, err %v; want all kept, %d polls",
			len(minimal), len(gens), uncancelled.polls, err, len(gens)*len(gens)/4096)
	}
	cancelled := &pollCtx{Context: context.Background(), cancelAt: 2}
	if minimal, err := minimalGenerators(cancelled, gens); !errors.Is(err, context.Canceled) || minimal != nil {
		t.Fatalf("cancelled at poll 2: %d kept, err %v; want none and context.Canceled", len(minimal), err)
	}
}
