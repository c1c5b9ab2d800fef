package model

import (
	"context"
	"errors"
	"testing"

	"ksettop/internal/graph"
)

type fakeDistributor struct {
	count   int64
	handled bool
	err     error
	calls   int
}

func (f *fakeDistributor) CountClosure(ctx context.Context, m *ClosedAbove) (int64, bool, error) {
	f.calls++
	return f.count, f.handled, f.err
}

func distTestModel(t *testing.T) *ClosedAbove {
	t.Helper()
	// A bespoke generator set so the count cache cannot be warm from other
	// tests (the distributor hook sits inside the cache fill).
	g := graph.MustNew(4)
	g.AddEdge(0, 1)
	g.AddEdge(1, 0)
	g.AddEdge(1, 2)
	g.AddEdge(2, 3)
	m, err := New([]graph.Digraph{g})
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// A handled sweep supplies the count; a declining distributor falls back to
// the local engine and both agree.
func TestDistributorHook(t *testing.T) {
	// Start cold: a count cached by an earlier run in this process
	// (-count > 1) would never consult the distributor.
	countCache.Clear()
	m := distTestModel(t)
	e, err := m.Enumeration()
	if err != nil {
		t.Fatal(err)
	}
	want := int(e.Size()) // simple model: closure size = rank-space size

	decliner := &fakeDistributor{handled: false}
	SetDistributor(decliner)
	defer SetDistributor(nil)
	got, err := m.GraphCountCtx(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Fatalf("declined-distributor count %d, want %d", got, want)
	}
	if decliner.calls != 1 {
		t.Fatalf("distributor consulted %d times, want 1", decliner.calls)
	}

	// The fallback count is cached; a handled distributor on a FRESH model of
	// the same generators must not be consulted again (cache hit), which is
	// the determinism contract: handled or declined, the value is the same.
	handler := &fakeDistributor{count: 12345, handled: true}
	SetDistributor(handler)
	got, err = m.GraphCountCtx(context.Background())
	if err != nil || got != want {
		t.Fatalf("cached count after distributor swap: %d, %v", got, err)
	}
	if handler.calls != 0 {
		t.Fatal("cache hit must not re-consult the distributor")
	}
}

// A handled error — a distributed budget trip — propagates to the caller.
func TestDistributorHandledErrorPropagates(t *testing.T) {
	g := graph.MustNew(4)
	g.AddEdge(0, 2)
	g.AddEdge(1, 0)
	g.AddEdge(2, 1)
	g.AddEdge(2, 3)
	m, err := New([]graph.Digraph{g})
	if err != nil {
		t.Fatal(err)
	}
	countCache.Clear() // start cold, as in TestDistributorHook
	boom := errors.New("distributed sweep failed")
	SetDistributor(&fakeDistributor{handled: true, err: boom})
	defer SetDistributor(nil)
	if _, err := m.GraphCountCtx(context.Background()); !errors.Is(err, boom) {
		t.Fatalf("want handled error back, got %v", err)
	}
	// The error must not be cached: with the distributor gone, the local
	// engine answers.
	SetDistributor(nil)
	if _, err := m.GraphCountCtx(context.Background()); err != nil {
		t.Fatalf("error was cached: %v", err)
	}
}

func TestSetDistributorNil(t *testing.T) {
	SetDistributor(&fakeDistributor{})
	SetDistributor(nil)
	if CurrentDistributor() != nil {
		t.Fatal("nil uninstall failed")
	}
}
