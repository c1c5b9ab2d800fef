package model

import (
	"context"
	"encoding/binary"
	"errors"
	"math/big"
	"math/rand"
	"testing"

	"ksettop/internal/bits"
	"ksettop/internal/graph"
)

// enumeratedCount counts m's closure through the streaming enumeration, the
// branching count's independent oracle wherever the rank space fits the
// enumeration budget.
func enumeratedCount(t *testing.T, m *ClosedAbove) int64 {
	t.Helper()
	e, err := m.Enumeration()
	if err != nil {
		t.Fatalf("Enumeration: %v", err)
	}
	var count int64
	e.RangeMasks(0, e.Size(), func(bits.Words) bool {
		count++
		return true
	})
	return count
}

// randomModelGens draws k random generators on n processes, each missing at
// most 15 of its n(n−1) edges so the enumeration oracle stays small. Raw
// draws may repeat or contain each other; New prunes them, the branching
// count must too.
func randomModelGens(rng *rand.Rand, n, k int) []graph.Digraph {
	clique := cliqueMask(n)
	edges := bits.Set(clique).Count()
	gens := make([]graph.Digraph, k)
	for i := range gens {
		mask := clique
		for missing := rng.Intn(min(edges, 15) + 1); missing > 0; {
			bit := rng.Intn(n * n)
			if mask&(1<<uint(bit)) != 0 {
				mask &^= 1 << uint(bit)
				missing--
			}
		}
		gens[i] = maskGraph(n, mask)
	}
	return gens
}

// TestGraphCountRandomModels pits the branching count against the
// enumeration and the inclusion–exclusion closed form on 1200 seeded random
// models of 1–6 processes and 1–6 generators, counting both the pruned
// model and the raw (unpruned, possibly repeated) generator masks.
func TestGraphCountRandomModels(t *testing.T) {
	rng := rand.New(rand.NewSource(24))
	for i := 0; i < 1200; i++ {
		n, k := 1+rng.Intn(6), 1+rng.Intn(6)
		gens := randomModelGens(rng, n, k)
		m, err := New(gens)
		if err != nil {
			t.Fatal(err)
		}
		got, err := m.GraphCountCtx(context.Background())
		if err != nil {
			t.Fatalf("model %d (%v): %v", i, m, err)
		}
		raw := make([]bits.Words, len(gens))
		for j, g := range gens {
			raw[j] = edgeWords(g)
		}
		rawCount, err := countEdgeMasks(context.Background(), n, raw, countNodeBudget)
		if err != nil {
			t.Fatalf("model %d (%v) raw masks: %v", i, m, err)
		}
		closed, err := m.GraphCountClosedForm()
		if err != nil {
			t.Fatal(err)
		}
		if enum := enumeratedCount(t, m); int64(got) != enum || rawCount != enum || closed != enum {
			t.Fatalf("model %d (%v): branching %d, raw masks %d, enumeration %d, closed form %d",
				i, m, got, rawCount, enum, closed)
		}
	}
}

// rowIndependentStarCount is |⋃ ↑stars| for the union-of-s-stars model: a
// graph is in it iff at least s processes reach every other process, and
// the n out-rows are independent, each full in 1 of its 2^(n−1) choices:
// Σ_{j≥s} C(n,j)·(2^(n−1)−1)^(n−j).
func rowIndependentStarCount(n, s int) *big.Int {
	sum := new(big.Int)
	notFull := big.NewInt(1<<uint(n-1) - 1)
	for j := s; j <= n; j++ {
		term := new(big.Int).Binomial(int64(n), int64(j))
		term.Mul(term, new(big.Int).Exp(notFull, big.NewInt(int64(n-j)), nil))
		sum.Add(sum, term)
	}
	return sum
}

// TestGraphCountNamedModels pins counts whose rank spaces exceed the
// enumeration budget: the star unions against the row-independence closed
// form (35 and 70 generators, past inclusion–exclusion's 22), and
// nonsplit:n=5 (1327 generators, 8.98M ranks) against the value a
// one-off enumeration with a raised budget gives (≈3 s, too slow for this
// suite).
func TestGraphCountNamedModels(t *testing.T) {
	for _, tc := range []struct{ n, s, want int }{
		{7, 3, 560189071}, {8, 4, 18325286947}, {6, 4, 14602}, {5, 1, 289201},
	} {
		m, err := UnionOfStarsModel(tc.n, tc.s)
		if err != nil {
			t.Fatal(err)
		}
		got, err := m.GraphCountCtx(context.Background())
		if err != nil || got != tc.want {
			t.Errorf("stars:n=%d,s=%d = %d, %v; want %d", tc.n, tc.s, got, err, tc.want)
		}
		if form := rowIndependentStarCount(tc.n, tc.s); !form.IsInt64() || form.Int64() != int64(tc.want) {
			t.Errorf("stars:n=%d,s=%d: row-independence form %v, want %d", tc.n, tc.s, form, tc.want)
		}
	}
	m, err := NonSplitModel(5)
	if err != nil {
		t.Fatal(err)
	}
	if got, err := m.GraphCountCtx(context.Background()); err != nil || got != 499796 {
		t.Errorf("nonsplit:n=5 = %d, %v; want 499796", got, err)
	}
}

// An already-cancelled count returns the cause without counting and leaves
// no cache entry; a cancel arriving mid-count (the second poll, at node
// 4096 of the cycle model on 6 processes, which needs ~410k) stops it too.
func TestGraphCountCancellation(t *testing.T) {
	m, err := CycleModel(6)
	if err != nil {
		t.Fatal(err)
	}
	countCache.Clear()
	cancelled, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := m.GraphCountCtx(cancelled); !errors.Is(err, context.Canceled) {
		t.Fatalf("GraphCountCtx(cancelled) = %v, want context.Canceled", err)
	}
	if _, ok := countCache.Get(setKey("count", m.gens)); ok {
		t.Fatal("a cancelled count was cached")
	}
	masks := make([]bits.Words, len(m.gens))
	for i, g := range m.gens {
		masks[i] = edgeWords(g)
	}
	mid := &pollCtx{Context: context.Background(), cancelAt: 3}
	if _, err := countEdgeMasks(mid, m.n, masks, countNodeBudget); !errors.Is(err, context.Canceled) {
		t.Fatalf("count cancelled at the second node poll = %v, want context.Canceled", err)
	}
}

// A count past its node budget, or past int64, fails with an error that
// matches ErrEnumerationBudget (serve's 422, the CLIs' exit 2).
func TestGraphCountBudget(t *testing.T) {
	m, err := CycleModel(5) // 3641 branching nodes
	if err != nil {
		t.Fatal(err)
	}
	masks := make([]bits.Words, len(m.gens))
	for i, g := range m.gens {
		masks[i] = edgeWords(g)
	}
	if _, err := countEdgeMasks(context.Background(), m.n, masks, 100); !errors.Is(err, ErrEnumerationBudget) {
		t.Fatalf("count past a 100-node budget = %v, want ErrEnumerationBudget", err)
	}
	if got, err := countEdgeMasks(context.Background(), m.n, masks, countNodeBudget); err != nil || got != 422850 {
		t.Fatalf("cycle model on 5 processes = %d, %v; want 422850", got, err)
	}

	// No non-loop edge on 8 processes: every one of the 2^56 graphs. On 9
	// processes that is 2^72, past int64.
	m, _ = Simple(graph.MustNew(8))
	if got, err := m.GraphCountCtx(context.Background()); err != nil || got != 1<<56 {
		t.Fatalf("empty generator on 8 processes = %d, %v; want 2^56", got, err)
	}
	m, _ = Simple(graph.MustNew(9))
	if _, err := m.GraphCountCtx(context.Background()); !errors.Is(err, ErrEnumerationBudget) {
		t.Fatalf("2^72 graphs = %v, want ErrEnumerationBudget", err)
	}
}

// FuzzGraphCount checks the branching count against inclusion–exclusion on
// fuzzed generator masks over 1–5 processes: data is read four bytes per
// generator (at most 12), masked to the non-loop edges.
func FuzzGraphCount(f *testing.F) {
	f.Add(uint8(3), []byte{0xff, 0x00, 0x00, 0x00, 0x0f, 0xf0, 0x00, 0x00})
	f.Add(uint8(4), []byte{0x12, 0x34, 0x56, 0x78, 0x9a, 0xbc, 0xde, 0xf0, 0x00, 0x00, 0x00, 0x00})
	f.Add(uint8(5), []byte{0xff, 0xff, 0xff, 0x01, 0x7f, 0xff, 0xff, 0x01, 0xbf, 0xff, 0xff, 0x01})
	f.Fuzz(func(t *testing.T, nb uint8, data []byte) {
		n := 1 + int(nb%5)
		var gens []graph.Digraph
		var masks []bits.Words
		for ; len(data) >= 4 && len(gens) < 12; data = data[4:] {
			mask := uint64(binary.LittleEndian.Uint32(data)) & cliqueMask(n)
			gens = append(gens, maskGraph(n, mask))
			masks = append(masks, bits.Words{mask})
		}
		if len(gens) == 0 {
			return
		}
		m, err := New(gens)
		if err != nil {
			t.Fatal(err)
		}
		want, err := m.GraphCountClosedForm()
		if err != nil {
			t.Fatal(err)
		}
		got, err := countEdgeMasks(context.Background(), n, masks, countNodeBudget)
		if err != nil || got != want {
			t.Fatalf("n=%d masks %x: branching %d, %v; closed form %d", n, masks, got, err, want)
		}
	})
}
