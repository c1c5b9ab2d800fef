package homology

import (
	"context"
	"fmt"
	mathbits "math/bits"
	"sort"
	"sync"

	"ksettop/internal/par"
)

// This file is the packed half of the level layer: when every simplex of
// the table fits one uint64 — vertex fields of ceil(log2(maxVert+1)) bits
// each, most significant first, so numeric key order is lexicographic
// vertex order — levels store sorted key arrays instead of uint32 arenas.
// That compresses the subset stream (one word per simplex instead of
// `size` uint32s), turns the level sort into a byte-wise LSD radix over
// machine words, and makes face lookups single-compare binary searches
// whose keys come from bit surgery rather than copied vertex lists. Unlike
// the seed packed path (8/16/32-bit fields, ≤ 8 vertices), the width is
// exact, so e.g. 12-vertex simplexes over 24 vertices still pack (5·12 =
// 60 bits).

// packedWidth returns the per-vertex field width that packs simplexes of
// up to maxSize vertices from a universe with maximum vertex id maxVert
// into one uint64, or 0 when they don't fit.
func packedWidth(maxVert uint32, maxSize int) int {
	w := mathbits.Len32(maxVert) // maxVert fits in w bits
	if w == 0 {
		w = 1
	}
	if maxSize <= 0 || w*maxSize > 64 {
		return 0
	}
	return w
}

// packKey packs the sorted vertex list s into a key with the given width.
func packKey(s []uint32, width int) uint64 {
	var key uint64
	for i, v := range s {
		key |= uint64(v) << uint(64-width*(i+1))
	}
	return key
}

// unpack writes the i-th simplex of a packed level into buf.
func (l *Level) unpack(i int, buf []uint32) []uint32 {
	key := l.keys[i]
	buf = buf[:l.size]
	for p := range buf {
		buf[p] = uint32(key >> uint(64-l.width*(p+1)) & (1<<uint(l.width) - 1))
	}
	return buf
}

// indexKey returns the position of the packed simplex key in the level, or
// -1 when absent.
func (l *Level) indexKey(key uint64) int {
	keys := l.keys
	lo, hi := 0, len(keys)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if keys[mid] < key {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo == len(keys) || keys[lo] != key {
		return -1
	}
	return lo
}

// faceKey returns the key of the face omitting field `omit`: the fields
// above it are kept and the fields below shift up one slot.
func faceKey(key uint64, width, omit int) uint64 {
	hiShift := uint(64 - width*omit) // ≥ 64 for omit = 0: shifts to zero
	hi := key >> hiShift << hiShift
	lo := key & (1<<uint(64-width*(omit+1)) - 1)
	return hi | lo<<uint(width)
}

// buildPackedLevels is the packed twin of NewChainComplex's facet walk:
// per-shard streaming builders over uint64 keys, folded into sorted level
// unions afterwards.
func buildPackedLevels(facets [][]int, maxDim, width int) ([]*Level, error) {
	shards := par.NumShards(int64(len(facets)))
	perShard := make([][][]uint64, shards)
	if err := par.ForEachShardN(context.Background(), int64(len(facets)), shards, &par.Ctl{}, func(shard int, from, to int64, _ *par.Ctl) {
		perShard[shard] = buildKeyLevels(facets[from:to], maxDim, width)
	}); err != nil {
		return nil, fmt.Errorf("homology: level build: %w", err)
	}
	levels := make([]*Level, maxDim+1)
	for d := 0; d <= maxDim; d++ {
		size := d + 1
		sorted := perShard[0][size]
		var scratch []uint64
		for s := 1; s < shards; s++ {
			next := perShard[s][size]
			if len(next) == 0 {
				continue
			}
			if len(sorted) == 0 {
				sorted = next
				continue
			}
			scratch = mergeDedupKeys(sorted, next, scratch[:0])
			sorted, scratch = scratch, sorted
		}
		levels[d] = &Level{size: size, width: width, keys: sorted}
	}
	return levels, nil
}

// keyBuilderPool recycles per-shard builder sets — the pending batches,
// radix scratch and merge buffers are the build phase's entire allocation
// profile, and they are identical in shape from one ReducedBetti call to
// the next.
var keyBuilderPool sync.Pool

type keyBuilderSet struct {
	builders []*keyLevelBuilder // indexed by simplex size
}

func getKeyBuilderSet(maxSize, width int) *keyBuilderSet {
	s, _ := keyBuilderPool.Get().(*keyBuilderSet)
	if s == nil {
		s = &keyBuilderSet{}
	}
	for len(s.builders) < maxSize+1 {
		s.builders = append(s.builders, &keyLevelBuilder{})
	}
	for size := 1; size <= maxSize; size++ {
		b := s.builders[size]
		b.width, b.size = width, size
		b.pending = b.pending[:0]
		b.sorted = nil // the previous accumulator escaped as level keys
	}
	return s
}

// buildKeyLevels streams one facet range into sorted, deduplicated key
// arrays, indexed by simplex size.
func buildKeyLevels(facets [][]int, maxDim, width int) [][]uint64 {
	set := getKeyBuilderSet(maxDim+1, width)
	builders := set.builders
	for _, f := range facets {
		maxSize := len(f)
		if maxSize > maxDim+1 {
			maxSize = maxDim + 1
		}
		for size := 1; size <= maxSize; size++ {
			b := builders[size]
			emitSubsetKeys(f, size, width, 0, 0, 0, &b.pending)
			if len(b.pending) >= keyFlushBudget {
				b.flush()
			}
		}
	}
	out := make([][]uint64, maxDim+2)
	for size := 1; size <= maxDim+1; size++ {
		builders[size].flush()
		out[size] = builders[size].sorted
		builders[size].sorted = nil // escapes into the Level; do not retain
	}
	keyBuilderPool.Put(set)
	return out
}

// emitSubsetKeys appends the packed key of every size-k subset of the
// sorted facet f, accumulating fields most-significant-first as the
// recursion descends.
func emitSubsetKeys(f []int, k int, width, start, depth int, acc uint64, arena *[]uint64) {
	if depth == k {
		*arena = append(*arena, acc)
		return
	}
	for i := start; i <= len(f)-(k-depth); i++ {
		emitSubsetKeys(f, k, width, i+1, depth+1,
			acc|uint64(f[i])<<uint(64-width*(depth+1)), arena)
	}
}

// keyFlushBudget is the pending-key count at which a builder sorts, dedups
// and merges its batch (4 MiB of keys).
const keyFlushBudget = 1 << 19

// keyLevelBuilder accumulates one level's packed keys: pending is the raw
// subset stream of the current batch, sorted the deduplicated union of the
// flushed batches.
type keyLevelBuilder struct {
	width   int
	size    int
	pending []uint64
	sorted  []uint64
	scratch []uint64
	radix   keyRadixState
}

func (b *keyLevelBuilder) flush() {
	if len(b.pending) == 0 {
		return
	}
	batch := sortDedupKeys(b.pending, b.width*b.size, &b.radix)
	if b.sorted == nil {
		b.sorted = append([]uint64(nil), batch...)
	} else {
		b.scratch = mergeDedupKeys(b.sorted, batch, b.scratch[:0])
		b.sorted, b.scratch = b.scratch, b.sorted
	}
	b.pending = b.pending[:0]
}

// mergeDedupKeys merges two sorted, deduplicated key arrays into out,
// dropping keys present in both.
func mergeDedupKeys(a, b, out []uint64) []uint64 {
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] < b[j]:
			out = append(out, a[i])
			i++
		case a[i] > b[j]:
			out = append(out, b[j])
			j++
		default:
			out = append(out, a[i])
			i++
			j++
		}
	}
	out = append(out, a[i:]...)
	out = append(out, b[j:]...)
	return out
}

// keyRadixState is the reusable buffer of sortDedupKeys.
type keyRadixState struct {
	dst    []uint64
	counts [256]int32
}

// sortDedupKeys sorts the key batch and compacts duplicates in place,
// returning the deduplicated prefix. Keys occupy only their top sigBits
// bits, so the LSD byte-radix skips the all-zero low bytes; tiny batches
// fall back to a comparison sort.
func sortDedupKeys(keys []uint64, sigBits int, rs *keyRadixState) []uint64 {
	if len(keys) <= 1 {
		return keys
	}
	if len(keys) < 256 {
		sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	} else {
		radixSortKeys(keys, sigBits, rs)
	}
	out := keys[:1]
	for _, k := range keys[1:] {
		if k != out[len(out)-1] {
			out = append(out, k)
		}
	}
	return out
}

// radixSortKeys is a stable LSD counting sort over the significant byte
// range of the keys.
func radixSortKeys(keys []uint64, sigBits int, rs *keyRadixState) {
	if cap(rs.dst) < len(keys) {
		rs.dst = make([]uint64, len(keys))
	}
	src, dst := keys, rs.dst[:len(keys)]
	byteLo := (64 - sigBits) / 8
	for b := byteLo; b < 8; b++ {
		counts := &rs.counts
		for i := range counts {
			counts[i] = 0
		}
		shift := uint(b * 8)
		for _, k := range src {
			counts[k>>shift&0xff]++
		}
		total := int32(0)
		for v := range counts {
			c := counts[v]
			counts[v] = total
			total += c
		}
		for _, k := range src {
			v := k >> shift & 0xff
			dst[counts[v]] = k
			counts[v]++
		}
		src, dst = dst, src
	}
	if (8-byteLo)%2 == 1 {
		copy(keys, src)
	}
}
