package topology

import (
	"context"
	"fmt"
	mathbits "math/bits"
	"slices"
	"sort"

	"ksettop/internal/homology"
)

// ReducedBettiNumbersCtx computes the reduced Betti numbers β̃_0 … β̃_maxDim of
// the complex over the field GF(2).
//
// β̃_q = dim ker ∂_q − dim im ∂_{q+1}, with the augmented chain complex
// (∂_0 maps every vertex to the generator of C_{-1}), so β̃_0 is
// (number of connected components) − 1.
//
// Why homology: k-connectivity (the property the paper's impossibility
// theorem consumes, [HKR13] Thm 10.3.1) is undecidable in general, but a
// k-connected complex necessarily has vanishing reduced homology in
// dimensions ≤ k. Checking β̃_0 = … = β̃_k = 0 therefore machine-validates
// the paper's connectivity claims on concrete instances: a violation would
// refute the claim outright, agreement corroborates it.
//
// The reduction runs on the hybrid-column engine (internal/homology). Its
// independent references are homology's (*ChainComplex).ReducedBettiSparse
// and the seed ReducedBettiNumbersOracle below. ctx expiry cancels the
// reduction across all workers and returns the context's cause; a completed
// call is identical at every parallelism setting.
func ReducedBettiNumbersCtx(ctx context.Context, c *AbstractComplex, maxDim int) ([]int, error) {
	if maxDim < 0 {
		return nil, fmt.Errorf("topology: negative homology dimension %d", maxDim)
	}
	if c.IsEmpty() {
		return nil, fmt.Errorf("topology: reduced homology of the empty complex is undefined here")
	}
	return homology.ReducedBettiCtx(ctx, c, maxDim)
}

// ReducedBettiNumbersOracle is the seed GF(2) reduction — the bit-packed
// fast path with a dense-column generic fallback. It is retained as an
// independent oracle for cross-checking the hybrid engine; new callers
// should use ReducedBettiNumbersCtx.
func ReducedBettiNumbersOracle(c *AbstractComplex, maxDim int) ([]int, error) {
	if maxDim < 0 {
		return nil, fmt.Errorf("topology: negative homology dimension %d", maxDim)
	}
	if c.IsEmpty() {
		return nil, fmt.Errorf("topology: reduced homology of the empty complex is undefined here")
	}
	if betti, ok := reducedBettiPacked(c, maxDim); ok {
		return betti, nil
	}

	// Generic fallback for complexes too large to bit-pack. Each level is
	// sorted lexicographically, so boundary-face rows are found by binary
	// search, no keyed index.
	counts := make([]int, maxDim+2)
	simplexes := make([][][]int, maxDim+2)
	for q := 0; q <= maxDim+1; q++ {
		simplexes[q] = c.Simplexes(q)
		counts[q] = len(simplexes[q])
	}

	// rank[q] = rank of ∂_q over GF(2).
	// ∂_0 is the augmentation map: rank 1 since the complex is nonempty.
	rank := make([]int, maxDim+2)
	rank[0] = 1
	for q := 1; q <= maxDim+1; q++ {
		rank[q] = boundaryRank(simplexes[q], simplexes[q-1])
	}

	betti := make([]int, maxDim+1)
	for q := 0; q <= maxDim; q++ {
		kernel := counts[q] - rank[q]
		betti[q] = kernel - rank[q+1]
	}
	return betti, nil
}

// PackedHomologyCapable reports whether the seed packed fast path can
// represent a betti computation up to maxDim on this complex — the cap the
// sparse engine removes. Exposed so reports can label instances that are
// reachable only through the sparse engine.
func PackedHomologyCapable(c *AbstractComplex, maxDim int) bool {
	return packWidth(c.numVertices, maxDim+2) != 0
}

// packWidth returns the bit width that packs simplexes of up to maxSize
// vertices from a numVertices universe into one uint64 (vertex fields from
// the most significant bits down, so numeric key order is lexicographic
// vertex order), or 0 when they don't fit.
func packWidth(numVertices, maxSize int) int {
	for _, w := range []int{8, 16, 32} {
		if maxSize <= 64/w && numVertices <= 1<<w {
			return w
		}
	}
	return 0
}

// reducedBettiPacked is ReducedBettiNumbersOracle for complexes whose simplexes
// fit in one uint64: levels are sorted []uint64, faces are field surgery,
// and row lookup is a binary search over machine words.
func reducedBettiPacked(c *AbstractComplex, maxDim int) ([]int, bool) {
	width := packWidth(c.numVertices, maxDim+2)
	if width == 0 {
		return nil, false
	}
	levels := packedLevels(c, maxDim+2, width)
	rank := make([]int, maxDim+2)
	rank[0] = 1
	for q := 1; q <= maxDim+1; q++ {
		rank[q] = packedBoundaryRank(levels[q], q+1, levels[q-1], width)
	}
	betti := make([]int, maxDim+1)
	for q := 0; q <= maxDim; q++ {
		kernel := len(levels[q]) - rank[q]
		betti[q] = kernel - rank[q+1]
	}
	return betti, true
}

// packedLevels returns the distinct simplexes of every size 1..maxSize as
// sorted packed keys, indexed by size−1, from a single facet walk.
func packedLevels(c *AbstractComplex, maxSize, width int) [][]uint64 {
	levels := make([][]uint64, maxSize)
	buf := make([]int, maxSize)
	for _, f := range c.facets {
		top := len(f)
		if top > maxSize {
			top = maxSize
		}
		for size := 1; size <= top; size++ {
			combinationsOf(f, size, buf[:size], 0, 0, func(s []int) {
				var key uint64
				for i, v := range s {
					key |= uint64(v) << uint(64-width*(i+1))
				}
				levels[size-1] = append(levels[size-1], key)
			})
		}
	}
	for i := range levels {
		slices.Sort(levels[i])
		levels[i] = slices.Compact(levels[i])
	}
	return levels
}

// packedBoundaryRank is boundaryRank over packed levels: the face omitting
// field i keeps the fields above it and shifts the fields below it up.
func packedBoundaryRank(colKeys []uint64, size int, rowKeys []uint64, width int) int {
	numRows := len(rowKeys)
	if len(colKeys) == 0 || numRows == 0 {
		return 0
	}
	words := (numRows + 63) / 64
	pivots := make([][]uint64, numRows)
	rank := 0
	col := make([]uint64, words)
	for _, key := range colKeys {
		for i := range col {
			col[i] = 0
		}
		for omit := 0; omit < size; omit++ {
			hiShift := uint(64 - width*omit) // ≥ 64 for omit = 0: shifts to zero
			hi := key >> hiShift << hiShift
			lo := key & (1<<uint(64-width*(omit+1)) - 1)
			face := hi | lo<<uint(width)
			if r, ok := slices.BinarySearch(rowKeys, face); ok {
				col[r/64] ^= 1 << uint(r%64)
			}
		}
		if addPivotColumn(pivots, col) {
			rank++
		}
	}
	return rank
}

// addPivotColumn reduces col against the dense pivot table and installs it
// as a new pivot when it does not vanish, reporting whether rank grew. col
// is clobbered.
func addPivotColumn(pivots [][]uint64, col []uint64) bool {
	for {
		low := lowestBit(col)
		if low < 0 {
			return false
		}
		p := pivots[low]
		if p == nil {
			cp := make([]uint64, len(col))
			copy(cp, col)
			pivots[low] = cp
			return true
		}
		for i := range col {
			col[i] ^= p[i]
		}
	}
}

// faceIndex returns the position of face in rows (sorted lexicographically,
// as returned by Simplexes), or -1 if absent.
func faceIndex(rows [][]int, face []int) int {
	i := sort.Search(len(rows), func(i int) bool { return !lexLess(rows[i], face) })
	if i == len(rows) || len(rows[i]) != len(face) {
		return -1
	}
	for j, v := range rows[i] {
		if v != face[j] {
			return -1
		}
	}
	return i
}

// boundaryRank computes the GF(2) rank of the boundary matrix whose columns
// are the given q-simplexes and whose rows are the (q-1)-simplexes, by
// column-reduction with bit-packed columns. The pivot table is a dense slice
// indexed by pivot row — pivots[r] is the reduced column whose lowest set
// bit is row r, nil when no column pivots there.
func boundaryRank(cols, rows [][]int) int {
	numRows := len(rows)
	if len(cols) == 0 || numRows == 0 {
		return 0
	}
	words := (numRows + 63) / 64
	pivots := make([][]uint64, numRows)
	rank := 0
	face := make([]int, 0, 16)
	col := make([]uint64, words)
	for _, simplex := range cols {
		for i := range col {
			col[i] = 0
		}
		// Column = sum of the (q-1)-faces of the simplex.
		for omit := range simplex {
			face = face[:0]
			for j, v := range simplex {
				if j != omit {
					face = append(face, v)
				}
			}
			// Every face of a simplex of the complex is in the complex, so
			// the lookup only misses on internal inconsistency.
			if r := faceIndex(rows, face); r >= 0 {
				col[r/64] ^= 1 << uint(r%64)
			}
		}
		if addPivotColumn(pivots, col) {
			rank++
		}
	}
	return rank
}

func lowestBit(v []uint64) int {
	for i, w := range v {
		if w != 0 {
			return i*64 + mathbits.TrailingZeros64(w)
		}
	}
	return -1
}

// IsHomologicallyKConnected reports whether all reduced Betti numbers up to
// dimension k vanish. k = -1 means "nonempty", which always holds for
// nonempty complexes and fails otherwise.
func IsHomologicallyKConnected(ctx context.Context, c *AbstractComplex, k int) (bool, []int, error) {
	if k < -1 {
		return true, nil, nil // trivially (-2)-connected, even when empty
	}
	if k == -1 {
		return !c.IsEmpty(), nil, nil
	}
	if c.IsEmpty() {
		return false, nil, nil
	}
	betti, err := ReducedBettiNumbersCtx(ctx, c, k)
	if err != nil {
		return false, nil, err
	}
	for _, b := range betti {
		if b != 0 {
			return false, betti, nil
		}
	}
	return true, betti, nil
}
