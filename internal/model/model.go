// Package model implements the paper's communication models (§2.1):
// oblivious models given by a set of allowed graphs per round (Def 2.2),
// closed-above models generated by a set of graphs (Def 2.3), and symmetric
// models closed under process permutation (Def 2.4).
package model

import (
	"context"
	"fmt"
	"math/rand"
	"slices"

	"ksettop/internal/graph"
	"ksettop/internal/memo"
	"ksettop/internal/par"
)

// ClosedAbove is the oblivious communication model (⋃_{G∈S} ↑G)^ω of
// Def 2.3: at every round the adversary picks any graph containing some
// generator.
type ClosedAbove struct {
	n         int
	gens      []graph.Digraph
	symmetric bool
}

// modelCache memoizes constructed models per canonical generator-set key:
// the experiments and CLI tools build the same handful of models over and
// over, and every construction pays the minimal-generator pruning (and, for
// NewSymmetric, the orbit search of the symmetric closure). A *ClosedAbove
// is immutable after construction, so sharing the cached value is safe. countCache memoizes closure sizes (see GraphCountCtx).
var (
	modelCache = memo.NewCache[*ClosedAbove](256)
	countCache = memo.NewCache[int](512)
)

// setKey is the canonical cache key of a generator set: the sorted adjacency
// encodings, prefixed with the computation kind and process count. Graph
// order and duplicates in gens do not change the generated model, but
// duplicates do change the key — that only costs a cache miss, never a wrong
// hit.
func setKey(kind string, gens []graph.Digraph) string {
	keys := make([]string, len(gens))
	for i, g := range gens {
		keys[i] = g.Key()
	}
	return memo.Key(kind, gens[0].N(), keys)
}

// New builds the closed-above model generated by gens. Generators that
// contain another generator are redundant (↑H ⊆ ↑G when G ⊆ H) and are
// pruned; duplicates are removed. Results are memoized per canonical
// generator-set key (disable with memo.SetEnabled(false)).
func New(gens []graph.Digraph) (*ClosedAbove, error) {
	return newModel(context.Background(), gens)
}

// newModel is New with the pruning bound to ctx: ProductModel's S^r can
// hold thousands of generators, and the pairwise pruning is quadratic.
func newModel(ctx context.Context, gens []graph.Digraph) (*ClosedAbove, error) {
	if len(gens) == 0 {
		return nil, fmt.Errorf("model: closed-above model needs at least one generator")
	}
	n := gens[0].N()
	for _, g := range gens {
		if g.N() != n {
			return nil, fmt.Errorf("model: mixed process counts %d and %d", n, g.N())
		}
	}
	return modelCache.Do(setKey("model", gens), func() (*ClosedAbove, error) {
		minimal, err := minimalGenerators(ctx, gens)
		if err != nil {
			return nil, err
		}
		sym, err := graph.IsSymmetric(minimal)
		if err != nil {
			return nil, err
		}
		return &ClosedAbove{n: n, gens: minimal, symmetric: sym}, nil
	})
}

// NewSymmetric builds the symmetric closed-above model generated by
// Sym(gens) (Def 2.4). A memo hit on the input set skips both the
// symmetric closure and the minimal-generator pruning.
func NewSymmetric(gens []graph.Digraph) (*ClosedAbove, error) {
	if len(gens) == 0 {
		return nil, fmt.Errorf("model: closed-above model needs at least one generator")
	}
	return modelCache.Do(setKey("symmodel", gens), func() (*ClosedAbove, error) {
		closure, err := graph.SymClosure(gens)
		if err != nil {
			return nil, fmt.Errorf("model: %w", err)
		}
		return New(closure)
	})
}

// Simple builds the simple closed-above model ↑g (Def 2.3, singleton case).
func Simple(g graph.Digraph) (*ClosedAbove, error) {
	return New([]graph.Digraph{g})
}

// minimalGenerators deduplicates gens and drops generators strictly
// containing another, in canonical key order (graph.CompareKeys) for
// reproducible reports. It polls ctx once per 4096 comparisons.
func minimalGenerators(ctx context.Context, gens []graph.Digraph) ([]graph.Digraph, error) {
	uniq := slices.Clone(gens)
	slices.SortFunc(uniq, graph.CompareKeys)
	uniq = slices.CompactFunc(uniq, graph.Digraph.Equal)
	out := make([]graph.Digraph, 0, len(uniq))
	comparisons := 0
	for i, g := range uniq {
		redundant := false
		for j, h := range uniq {
			if comparisons++; comparisons&par.PollMask == 0 && ctx.Err() != nil {
				return nil, context.Cause(ctx)
			}
			if i == j {
				continue
			}
			if h.IsSubgraphOf(g) && !g.IsSubgraphOf(h) {
				redundant = true
				break
			}
		}
		if !redundant {
			out = append(out, g)
		}
	}
	return out, nil
}

// N returns the number of processes.
func (m *ClosedAbove) N() int { return m.n }

// Generators returns a copy of the minimal generator set.
func (m *ClosedAbove) Generators() []graph.Digraph {
	out := make([]graph.Digraph, len(m.gens))
	copy(out, m.gens)
	return out
}

// GeneratorCount returns the number of minimal generators.
func (m *ClosedAbove) GeneratorCount() int { return len(m.gens) }

// IsSimple reports whether the model is generated by a single graph.
func (m *ClosedAbove) IsSimple() bool { return len(m.gens) == 1 }

// IsSymmetric reports whether the generator set is closed under process
// permutation (Def 2.4).
func (m *ClosedAbove) IsSymmetric() bool { return m.symmetric }

// Contains reports whether the adversary may play g in a round: g must
// contain some generator.
func (m *ClosedAbove) Contains(g graph.Digraph) bool {
	if g.N() != m.n {
		return false
	}
	for _, gen := range m.gens {
		if gen.IsSubgraphOf(g) {
			return true
		}
	}
	return false
}

// SampleGraph returns a uniformly-chosen generator with each missing edge
// added independently with probability extraEdgeProb — a random element of
// the model for randomized testing.
func (m *ClosedAbove) SampleGraph(rng *rand.Rand, extraEdgeProb float64) graph.Digraph {
	g := m.gens[rng.Intn(len(m.gens))].Clone()
	for u := 0; u < m.n; u++ {
		for v := 0; v < m.n; v++ {
			if u != v && !g.HasEdge(u, v) && rng.Float64() < extraEdgeProb {
				// Adding an in-range edge to a well-formed graph cannot fail.
				_ = g.AddEdge(u, v)
			}
		}
	}
	return g
}

// cliqueMask is the mask of all non-loop edges.
func cliqueMask(n int) uint64 {
	var mask uint64
	for u := 0; u < n; u++ {
		for v := 0; v < n; v++ {
			if u != v {
				mask |= 1 << uint(u*n+v)
			}
		}
	}
	return mask
}

func maskGraph(n int, mask uint64) graph.Digraph {
	g := graph.MustNew(n)
	for u := 0; u < n; u++ {
		for v := 0; v < n; v++ {
			if u != v && mask&(1<<uint(u*n+v)) != 0 {
				// In-range by construction.
				_ = g.AddEdge(u, v)
			}
		}
	}
	return g
}

// ProductModel returns the closed-above model generated by S^r — the
// over-approximation of r rounds of m used by the §6 multi-round bounds
// (Lemma 6.2 guarantees the true r-round behavior is contained in it).
// Building S^r and pruning it both poll ctx.
func (m *ClosedAbove) ProductModel(ctx context.Context, r int) (*ClosedAbove, error) {
	prods, err := graph.ProductSet(ctx, m.gens, r)
	if err != nil {
		return nil, fmt.Errorf("model: %w", err)
	}
	return newModel(ctx, prods)
}

// String summarizes the model.
func (m *ClosedAbove) String() string {
	kind := "closed-above"
	if m.IsSimple() {
		kind = "simple closed-above"
	}
	if m.symmetric {
		kind = "symmetric " + kind
	}
	return fmt.Sprintf("%s model on %d processes (%d generators)", kind, m.n, len(m.gens))
}
