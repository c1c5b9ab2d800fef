package homology

import (
	"context"
	"testing"

	"ksettop/internal/par"
)

// facetComplex is the minimal Complex implementation for tests.
type facetComplex [][]int

func (c facetComplex) Facets() [][]int { return c }

func betti(t *testing.T, facets [][]int, maxDim int) []int {
	t.Helper()
	b, err := ReducedBettiCtx(context.Background(), facetComplex(facets), maxDim)
	if err != nil {
		t.Fatalf("ReducedBetti: %v", err)
	}
	return b
}

func TestReducedBettiClassicSpaces(t *testing.T) {
	tests := []struct {
		name   string
		facets [][]int
		want   []int
	}{
		{"point", [][]int{{0}}, []int{0, 0}},
		{"two points", [][]int{{0}, {1}}, []int{1, 0}},
		{"segment", [][]int{{0, 1}}, []int{0, 0}},
		{"circle", [][]int{{0, 1}, {1, 2}, {0, 2}}, []int{0, 1}},
		{"disk", [][]int{{0, 1, 2}}, []int{0, 0}},
		{"sphere", [][]int{{0, 1, 2}, {0, 1, 3}, {0, 2, 3}, {1, 2, 3}}, []int{0, 0, 1}},
		{"wedge of two circles", [][]int{
			{0, 1}, {1, 2}, {0, 2},
			{2, 3}, {3, 4}, {2, 4},
		}, []int{0, 2}},
		{"RP² over GF(2)", [][]int{
			{0, 1, 4}, {0, 1, 5}, {0, 2, 3}, {0, 2, 5}, {0, 3, 4},
			{1, 2, 3}, {1, 2, 4}, {1, 3, 5}, {2, 4, 5}, {3, 4, 5},
		}, []int{0, 1, 1}},
		{"3-sphere", [][]int{
			{0, 1, 2, 3}, {0, 1, 2, 4}, {0, 1, 3, 4}, {0, 2, 3, 4}, {1, 2, 3, 4},
		}, []int{0, 0, 0, 1}},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			got := betti(t, tt.facets, len(tt.want)-1)
			for q := range tt.want {
				if got[q] != tt.want[q] {
					t.Errorf("β̃_%d = %d, want %d (all %v)", q, got[q], tt.want[q], got)
				}
			}
		})
	}
}

func TestReducedBettiErrors(t *testing.T) {
	if _, err := ReducedBettiCtx(context.Background(), facetComplex(nil), 0); err == nil {
		t.Error("empty complex should be rejected")
	}
	if _, err := ReducedBettiCtx(context.Background(), facetComplex{{0}}, -1); err == nil {
		t.Error("negative dimension should be rejected")
	}
}

func TestChainComplexLevels(t *testing.T) {
	// Full 2-sphere boundary: 4 vertices, 6 edges, 4 triangles.
	cc, err := NewChainComplex(facetComplex{{0, 1, 2}, {0, 1, 3}, {0, 2, 3}, {1, 2, 3}}, 3)
	if err != nil {
		t.Fatal(err)
	}
	for dim, want := range []int{4, 6, 4, 0} {
		if got := cc.SimplexCount(dim); got != want {
			t.Errorf("dim %d: %d simplexes, want %d", dim, got, want)
		}
	}
	if got := cc.TotalSimplexes(); got != 14 {
		t.Errorf("TotalSimplexes = %d, want 14", got)
	}
	m := cc.Boundary(2)
	if m.NumRows() != 6 || m.NumCols() != 4 {
		t.Errorf("∂_2 is %dx%d, want 6x4", m.NumRows(), m.NumCols())
	}
	if got := m.Rank(); got != 3 {
		t.Errorf("rank ∂_2 = %d, want 3", got)
	}
	if got := cc.Boundary(1).Rank(); got != 3 {
		t.Errorf("rank ∂_1 = %d, want 3", got)
	}
}

// pseudosphereFacets builds the facets of φ(Π; V_1,…,V_n) with |V_i| =
// views[i]: vertex id for (color c, view v) is offset(c)+v, and the facets
// are every one-view-per-color choice. The complex is the join of n discrete
// point sets, so β̃_{n-1} = Π(views[i]−1) and everything below vanishes.
func pseudosphereFacets(views []int) [][]int {
	offsets := make([]int, len(views)+1)
	for i, v := range views {
		offsets[i+1] = offsets[i] + v
	}
	choice := make([]int, len(views))
	var facets [][]int
	for {
		f := make([]int, len(views))
		for c := range views {
			f[c] = offsets[c] + choice[c]
		}
		facets = append(facets, f)
		i := len(views) - 1
		for i >= 0 {
			choice[i]++
			if choice[i] < views[i] {
				break
			}
			choice[i] = 0
			i--
		}
		if i < 0 {
			return facets
		}
	}
}

func TestPseudosphereConnectivity(t *testing.T) {
	// 5 colors × 3 views: 7-connected is overkill, but β̃_0..β̃_3 = 0 and
	// β̃_4 = 2^5 = 32 pins both the vanishing range and the top class count.
	facets := pseudosphereFacets([]int{3, 3, 3, 3, 3})
	got := betti(t, facets, 4)
	want := []int{0, 0, 0, 0, 32}
	for q := range want {
		if got[q] != want[q] {
			t.Errorf("β̃_%d = %d, want %d (all %v)", q, got[q], want[q], got)
		}
	}
}

// TestDeterministicAcrossParallelism pins the sharded reduction's contract
// for both engines: Betti vectors are identical at every worker count,
// including the inline single-shard path, and identical between the hybrid
// and pure-sparse reductions.
func TestDeterministicAcrossParallelism(t *testing.T) {
	defer par.SetParallelism(0)
	// Big enough that par.NumShards fans out (> 4096 columns at dim 4).
	facets := pseudosphereFacets([]int{3, 3, 3, 3, 3, 2, 2})
	var want []int
	for _, workers := range []int{1, 2, 5, 8} {
		par.SetParallelism(workers)
		got := betti(t, facets, 5)
		cc, err := NewChainComplex(facetComplex(facets), 6)
		if err != nil {
			t.Fatal(err)
		}
		sparse, err := cc.ReducedBettiSparse(5)
		if err != nil {
			t.Fatalf("parallelism %d: sparse: %v", workers, err)
		}
		if want == nil {
			want = got
		}
		for q := range want {
			if got[q] != want[q] {
				t.Errorf("parallelism %d: β̃_%d = %d, want %d", workers, q, got[q], want[q])
			}
			if sparse[q] != want[q] {
				t.Errorf("parallelism %d: sparse β̃_%d = %d, want %d", workers, q, sparse[q], want[q])
			}
		}
	}
	// Join of 7 discrete sets: trivial up to dim 5.
	for q, b := range want {
		if b != 0 {
			t.Errorf("β̃_%d = %d, want 0", q, b)
		}
	}
}

// TestPseudospherePastPackedCap is the engine's scale acceptance: a
// pseudosphere whose level table holds more than 64k distinct simplexes and
// whose 9-vertex facets no packing width can represent (the seed fast path
// caps at 8 vertices per simplex). The join structure pins the expected
// homology exactly.
func TestPseudospherePastPackedCap(t *testing.T) {
	views := []int{3, 3, 3, 3, 3, 2, 2, 2, 2}
	facets := pseudosphereFacets(views)
	cc, err := NewChainComplex(facetComplex(facets), 8)
	if err != nil {
		t.Fatal(err)
	}
	if total := cc.TotalSimplexes(); total <= 1<<16 {
		t.Fatalf("instance has %d simplexes, want > 64k", total)
	}
	b, err := cc.ReducedBettiCtx(context.Background(), 7)
	if err != nil {
		t.Fatal(err)
	}
	for q, v := range b {
		if v != 0 {
			t.Errorf("β̃_%d = %d, want 0 (pseudosphere is 7-connected)", q, v)
		}
	}
	// β̃_8 = Π(|V_i|−1) = 2^5: check via the rank identity on the top level.
	top := cc.Boundary(8)
	wantTop := 1
	for _, v := range views {
		wantTop *= v - 1
	}
	if got := cc.SimplexCount(8) - top.Rank(); got != wantTop {
		t.Errorf("dim ker ∂_8 = %d, want β̃_8 = %d", got, wantTop)
	}
}

func TestLevelIndex(t *testing.T) {
	cc, err := NewChainComplex(facetComplex{{0, 2, 5}, {1, 2}}, 2)
	if err != nil {
		t.Fatal(err)
	}
	edges := cc.levels[1]
	if got := edges.Count(); got != 4 {
		t.Fatalf("edge count %d, want 4", got)
	}
	if edges.width == 0 {
		t.Fatalf("a 6-vertex complex should build packed levels")
	}
	buf := make([]uint32, 2)
	for i := 0; i < edges.Count(); i++ {
		if got := edges.index(edges.unpack(i, buf)); got != i {
			t.Errorf("index(unpack %d) = %d", i, got)
		}
		if got := edges.indexKey(edges.keys[i]); got != i {
			t.Errorf("indexKey(key %d) = %d", i, got)
		}
	}
	if got := edges.index([]uint32{0, 1}); got != -1 {
		t.Errorf("index of absent edge = %d, want -1", got)
	}
}

// TestLevelIndexArenaForm pins the uint32-arena level form on a vertex
// universe too wide to pack (vertex ids near 2^31 force width 31, and
// 3-vertex simplexes need 93 bits).
func TestLevelIndexArenaForm(t *testing.T) {
	const big = 1 << 30
	cc, err := NewChainComplex(facetComplex{{0, 2, big}, {1, 2}}, 2)
	if err != nil {
		t.Fatal(err)
	}
	edges := cc.levels[1]
	if edges.width != 0 {
		t.Fatalf("wide universe unexpectedly packed (width %d)", edges.width)
	}
	if got := edges.Count(); got != 4 {
		t.Fatalf("edge count %d, want 4", got)
	}
	for i := 0; i < edges.Count(); i++ {
		if got := edges.index(edges.simplex(i)); got != i {
			t.Errorf("index(simplex %d) = %d", i, got)
		}
	}
	if got := edges.index([]uint32{0, 1}); got != -1 {
		t.Errorf("index of absent edge = %d, want -1", got)
	}
	b, err := cc.ReducedBettiCtx(context.Background(), 1)
	if err != nil {
		t.Fatal(err)
	}
	// Triangle face {0,2,big} plus the dangling edge {1,2}: contractible.
	for q, v := range b {
		if v != 0 {
			t.Errorf("β̃_%d = %d, want 0", q, v)
		}
	}
}
