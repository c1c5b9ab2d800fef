package homology

import (
	"context"
	"fmt"
	"sort"

	"ksettop/internal/par"
)

// This file is the level layer of the engine: flat simplex arenas per
// dimension, the streaming sharded facet-walk builder, and the radix /
// merge machinery that keeps level construction proportional to the output
// rather than the raw Σ_f 2^|f| subset stream.

// Level holds the distinct simplexes of one dimension, sorted
// lexicographically, in one of two representations chosen per ChainComplex:
// a flat arena of uint32 vertex ids (simplex i occupies
// verts[i*size : (i+1)*size]), or — when width > 0 — packed uint64 keys
// with width-bit vertex fields, most significant first, so numeric key
// order is the same lexicographic order (packedlevels.go).
type Level struct {
	size  int // vertices per simplex (dimension + 1)
	width int // per-vertex field width of the packed form; 0 = arena form
	verts []uint32
	keys  []uint64
}

// Size returns the vertex count per simplex (dimension + 1).
func (l *Level) Size() int { return l.size }

// Count returns the number of simplexes in the level.
func (l *Level) Count() int {
	if l.width > 0 {
		return len(l.keys)
	}
	if l.size == 0 {
		return 0
	}
	return len(l.verts) / l.size
}

// simplex returns the i-th simplex of an arena-form level as a slice into
// the arena (packed levels use unpack).
func (l *Level) simplex(i int) []uint32 {
	return l.verts[i*l.size : (i+1)*l.size]
}

// index returns the position of the sorted vertex list s in the level, or
// -1 when absent, by binary search.
func (l *Level) index(s []uint32) int {
	if l.width > 0 {
		return l.indexKey(packKey(s, l.width))
	}
	n := l.Count()
	i := sort.Search(n, func(i int) bool {
		return !lexLessU32(l.simplex(i), s)
	})
	if i == n || !equalU32(l.simplex(i), s) {
		return -1
	}
	return i
}

func lexLessU32(a, b []uint32) bool {
	for i := range a {
		if a[i] != b[i] {
			return a[i] < b[i]
		}
	}
	return false // equal length by construction
}

func equalU32(a, b []uint32) bool {
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// ChainComplex holds the simplex levels of a complex up to a dimension cap,
// built in a single pass over the facets. Boundary matrices are implicit
// (columns materialize on demand from the levels), so the peak footprint is
// the level table plus one reduction's live columns.
type ChainComplex struct {
	levels []*Level // levels[d] = simplexes of dimension d (d+1 vertices)
}

// NewChainComplex enumerates every simplex of c of dimension ≤ maxDim in one
// facet walk and returns the level table. Dimensions above the complex's own
// dimension come back as empty levels.
//
// Facets re-emit shared faces, so the raw subset stream is far larger than
// the distinct level (Σ_f 2^|f| vs the union). The builder therefore streams:
// per-level pending buffers are sorted, deduplicated and merged into a sorted
// accumulator every flushBudget entries, keeping both the peak footprint and
// the sort cost proportional to the output plus a constant-size batch.
func NewChainComplex(c Complex, maxDim int) (*ChainComplex, error) {
	if maxDim < 0 {
		return nil, fmt.Errorf("homology: negative dimension cap %d", maxDim)
	}
	facets := c.Facets()
	cc := &ChainComplex{levels: make([]*Level, maxDim+1)}
	if len(facets) == 0 {
		for d := range cc.levels {
			cc.levels[d] = &Level{size: d + 1}
		}
		return cc, nil
	}
	// Pick the level representation once for the whole table: when every
	// tabled simplex packs into a uint64 (exact per-vertex width), the
	// packed builder compresses the subset stream to one word per simplex
	// and sorts by machine-word radix.
	maxVert, maxFacet := uint32(0), 0
	for _, f := range facets {
		if len(f) > 0 && uint32(f[len(f)-1]) > maxVert {
			maxVert = uint32(f[len(f)-1]) // facets are sorted ascending
		}
		if len(f) > maxFacet {
			maxFacet = len(f)
		}
	}
	maxSize := maxDim + 1
	if maxFacet < maxSize {
		maxSize = maxFacet
	}
	if width := packedWidth(maxVert, maxSize); width > 0 {
		levels, err := buildPackedLevels(facets, maxDim, width)
		if err != nil {
			return nil, err
		}
		cc.levels = levels
		return cc, nil
	}
	// The facet walk shards across the worker pool: each shard streams its
	// facet range into private level builders, and the per-shard sorted
	// arenas are folded into the level union afterwards. The union is the
	// same sorted set regardless of shard boundaries, so the table is
	// deterministic across parallelism.
	shards := par.NumShards(int64(len(facets)))
	perShard := make([][][]uint32, shards) // perShard[shard][size] = sorted arena
	if err := par.ForEachShardN(context.Background(), int64(len(facets)), shards, &par.Ctl{}, func(shard int, from, to int64, _ *par.Ctl) {
		perShard[shard] = buildLevels(facets[from:to], maxDim)
	}); err != nil {
		return nil, fmt.Errorf("homology: level build: %w", err)
	}
	for d := 0; d <= maxDim; d++ {
		size := d + 1
		sorted := perShard[0][size]
		var scratch []uint32
		for s := 1; s < shards; s++ {
			next := perShard[s][size]
			if len(next) == 0 {
				continue
			}
			if len(sorted) == 0 {
				sorted = next
				continue
			}
			scratch = mergeDedup(size, sorted, next, scratch[:0])
			sorted, scratch = scratch, sorted
		}
		cc.levels[d] = &Level{size: size, verts: sorted}
	}
	return cc, nil
}

// buildLevels streams one facet range into sorted, deduplicated level
// arenas, indexed by simplex size.
func buildLevels(facets [][]int, maxDim int) [][]uint32 {
	builders := make([]*levelBuilder, maxDim+2) // indexed by simplex size
	for size := 1; size <= maxDim+1; size++ {
		builders[size] = &levelBuilder{size: size}
	}
	buf := make([]uint32, maxDim+1)
	maxVert := uint32(0)
	for _, f := range facets {
		if len(f) > 0 && uint32(f[len(f)-1]) > maxVert {
			maxVert = uint32(f[len(f)-1]) // facets are sorted ascending
		}
		maxSize := len(f)
		if maxSize > maxDim+1 {
			maxSize = maxDim + 1
		}
		for size := 1; size <= maxSize; size++ {
			b := builders[size]
			emitSubsets(f, size, buf[:size], 0, 0, &b.pending)
			if len(b.pending) >= flushBudget {
				b.flush(maxVert)
			}
		}
	}
	out := make([][]uint32, maxDim+2)
	for size := 1; size <= maxDim+1; size++ {
		builders[size].flush(maxVert)
		out[size] = builders[size].sorted
	}
	return out
}

// flushBudget is the pending-buffer size (in uint32s) at which a level
// builder sorts, dedups and merges its batch into the accumulator.
const flushBudget = 1 << 20

// levelBuilder accumulates one level's simplexes: pending holds the raw
// subset stream of the current batch, sorted the deduplicated union of all
// flushed batches.
type levelBuilder struct {
	size    int
	pending []uint32
	sorted  []uint32
	scratch []uint32   // reused merge destination
	radix   radixState // reused counting-sort buffers
}

// flush sorts and dedups the pending batch and merges it into sorted.
func (b *levelBuilder) flush(maxVert uint32) {
	if len(b.pending) == 0 {
		return
	}
	batch := sortDedup(b.size, b.pending, maxVert, &b.radix)
	if b.sorted == nil {
		b.sorted = append([]uint32(nil), batch...)
	} else {
		b.scratch = mergeDedup(b.size, b.sorted, batch, b.scratch[:0])
		b.sorted, b.scratch = b.scratch, b.sorted
	}
	b.pending = b.pending[:0]
}

// mergeDedup merges two sorted, deduplicated stride arenas into out,
// dropping simplexes present in both.
func mergeDedup(size int, a, b, out []uint32) []uint32 {
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		sa, sb := a[i:i+size], b[j:j+size]
		switch c := compareU32(sa, sb); {
		case c < 0:
			out = append(out, sa...)
			i += size
		case c > 0:
			out = append(out, sb...)
			j += size
		default:
			out = append(out, sa...)
			i += size
			j += size
		}
	}
	out = append(out, a[i:]...)
	out = append(out, b[j:]...)
	return out
}

func compareU32(a, b []uint32) int {
	for i := range a {
		if a[i] != b[i] {
			if a[i] < b[i] {
				return -1
			}
			return 1
		}
	}
	return 0
}

// emitSubsets appends every size-k subset of the sorted facet f to the
// arena, in lexicographic order per facet (the global order is restored by
// dedupLevel's sort).
func emitSubsets(f []int, k int, buf []uint32, start, depth int, arena *[]uint32) {
	if depth == k {
		*arena = append(*arena, buf...)
		return
	}
	for i := start; i <= len(f)-(k-depth); i++ {
		buf[depth] = uint32(f[i])
		emitSubsets(f, k, buf, i+1, depth+1, arena)
	}
}

// radixCap bounds the counting-sort bucket table; complexes with more
// vertices than this fall back to a comparison sort.
const radixCap = 1 << 20

// radixState is the reusable buffer set of radixSortLevel, kept on each
// level builder so repeated flushes (and repeated ReducedBetti calls on
// pooled builders) stop re-allocating the index vectors.
type radixState struct {
	idx    []int32
	next   []int32
	counts []int32
	dst    []uint32
}

// sortDedup sorts the stride-size arena lexicographically and compacts
// duplicate simplexes in place, returning the deduplicated prefix. Vertex
// ids are small integers, so the sort is an LSD radix: one stable counting
// pass per vertex position, last position first — O(size·n) instead of
// O(size·n·log n), which dominated the build on >64k-simplex complexes.
func sortDedup(size int, arena []uint32, maxVert uint32, rs *radixState) []uint32 {
	n := len(arena) / size
	if n <= 1 {
		return arena
	}
	if maxVert < radixCap {
		radixSortLevel(size, arena, n, int(maxVert)+1, rs)
	} else {
		sort.Sort(&levelSorter{size: size, verts: arena, tmp: make([]uint32, size)})
	}
	// Compact duplicates in place: runs of equal simplexes are adjacent.
	out := arena[:size]
	for i := 1; i < n; i++ {
		s := arena[i*size : (i+1)*size]
		if equalU32(out[len(out)-size:], s) {
			continue
		}
		out = append(out, s...)
	}
	return out
}

// radixSortLevel sorts the arena of n stride-size simplexes lexicographically
// with stable counting passes over vertex values < numVals. The passes
// permute an int32 index vector — moving whole simplexes every pass would be
// O(size²·n) memmove — and the permutation is applied to the arena once.
func radixSortLevel(size int, arena []uint32, n, numVals int, rs *radixState) {
	if cap(rs.idx) < n {
		rs.idx = make([]int32, n)
		rs.next = make([]int32, n)
	}
	idx, next := rs.idx[:n], rs.next[:n]
	for i := range idx {
		idx[i] = int32(i)
	}
	if cap(rs.counts) < numVals+1 {
		rs.counts = make([]int32, numVals+1)
	}
	counts := rs.counts[:numVals+1]
	for pos := size - 1; pos >= 0; pos-- {
		for i := range counts {
			counts[i] = 0
		}
		for _, i := range idx {
			counts[arena[int(i)*size+pos]+1]++
		}
		for v := 1; v <= numVals; v++ {
			counts[v] += counts[v-1]
		}
		for _, i := range idx {
			v := arena[int(i)*size+pos]
			next[counts[v]] = i
			counts[v]++
		}
		idx, next = next, idx
	}
	if cap(rs.dst) < len(arena) {
		rs.dst = make([]uint32, len(arena))
	}
	dst := rs.dst[:len(arena)]
	for j, i := range idx {
		copy(dst[j*size:(j+1)*size], arena[int(i)*size:(int(i)+1)*size])
	}
	copy(arena, dst)
}

// levelSorter is the comparison fallback for vertex universes too large for
// counting passes.
type levelSorter struct {
	size  int
	verts []uint32
	tmp   []uint32
}

func (s *levelSorter) Len() int { return len(s.verts) / s.size }
func (s *levelSorter) Less(i, j int) bool {
	return lexLessU32(s.verts[i*s.size:(i+1)*s.size], s.verts[j*s.size:(j+1)*s.size])
}
func (s *levelSorter) Swap(i, j int) {
	a, b := s.verts[i*s.size:(i+1)*s.size], s.verts[j*s.size:(j+1)*s.size]
	copy(s.tmp, a)
	copy(a, b)
	copy(b, s.tmp)
}

// Dim returns the highest dimension the table carries (the construction
// cap, not necessarily the complex's own dimension).
func (cc *ChainComplex) Dim() int { return len(cc.levels) - 1 }

// SimplexCount returns the number of distinct simplexes of the given
// dimension (0 outside the table).
func (cc *ChainComplex) SimplexCount(dim int) int {
	if dim < 0 || dim > cc.Dim() {
		return 0
	}
	return cc.levels[dim].Count()
}

// TotalSimplexes returns the number of distinct simplexes across every
// tabled dimension.
func (cc *ChainComplex) TotalSimplexes() int {
	total := 0
	for _, l := range cc.levels {
		total += l.Count()
	}
	return total
}

// IsEmpty reports whether the complex has no vertices.
func (cc *ChainComplex) IsEmpty() bool { return cc.levels[0].Count() == 0 }
