// Package memo is the canonical-key result cache behind the repeated
// closure computations.
//
// The exponential objects this repository derives from a generator set —
// minimal generator sets, whole models, closure counts — are pure functions of a canonical key (the sorted adjacency encoding of
// the set). Experiments E1–E14 and the CLI tools construct the same handful
// of models over and over; a bounded cache keyed by that canonical key turns
// every repeat construction into a map lookup.
//
// Caches are safe for concurrent use (experiments fan out across the par
// worker pool) and bounded: each cache holds at most its capacity entries
// and evicts least-recently-used ones. The package-level switch
// (SetEnabled(false), a test and benchmark hook) turns every cache into a
// pass-through, which pins that memoization never changes results.
package memo

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"sync/atomic"

	"ksettop/internal/obs"
)

// Process-wide memo metrics, aggregated across every Cache instance (the
// per-cache atomics behind Stats() remain the per-cache view).
var (
	obsHits = obs.DefaultRegistry().Counter("kset_memo_hits_total",
		"memo cache hits across all caches")
	obsMisses = obs.DefaultRegistry().Counter("kset_memo_misses_total",
		"memo cache misses across all caches")
	obsEvictions = obs.DefaultRegistry().Counter("kset_memo_evictions_total",
		"LRU evictions across all caches")
)

// Key builds the canonical cache key of a set of objects: the sorted
// per-object keys concatenated under a kind:n: prefix. Object keys must be
// fixed-width for a given n (graph.Digraph.Key is 8·n bytes), which makes
// the concatenation unambiguous. Shared by every generator-set cache so the
// keyspaces cannot drift apart.
func Key(kind string, n int, keys []string) string {
	sorted := make([]string, len(keys))
	copy(sorted, keys)
	sort.Strings(sorted)
	var b strings.Builder
	width := 0
	if len(sorted) > 0 {
		width = len(sorted[0])
	}
	b.Grow(len(kind) + 8 + len(sorted)*width)
	fmt.Fprintf(&b, "%s:%d:", kind, n)
	for _, k := range sorted {
		b.WriteString(k)
	}
	return b.String()
}

// enabled gates every cache in the process. On by default.
var enabled atomic.Bool

func init() { enabled.Store(true) }

// Enabled reports whether memoization is active.
func Enabled() bool { return enabled.Load() }

// SetEnabled switches memoization on or off process-wide. Turning it off
// does not drop existing entries; Get simply stops returning them, so
// re-enabling restores the warm cache.
func SetEnabled(on bool) { enabled.Store(on) }

// Stats is a point-in-time snapshot of one cache's effectiveness.
type Stats struct {
	Hits      int64
	Misses    int64
	Evictions int64
	Entries   int
}

// Cache is a bounded, thread-safe, LRU-evicting memo table from canonical
// string keys to values of type V.
//
// Values are returned as stored: callers share them across lookups, so only
// immutable results (or results the convention treats as read-only, like
// generator slices) belong in a cache.
type Cache[V any] struct {
	mu       sync.Mutex
	capacity int
	entries  map[string]*entry[V]
	head     *entry[V] // most recently used
	tail     *entry[V] // least recently used

	hits      atomic.Int64
	misses    atomic.Int64
	evictions atomic.Int64
}

type entry[V any] struct {
	key        string
	value      V
	prev, next *entry[V]
}

// NewCache returns a cache bounded to capacity entries (minimum 1).
func NewCache[V any](capacity int) *Cache[V] {
	if capacity < 1 {
		capacity = 1
	}
	return &Cache[V]{
		capacity: capacity,
		entries:  make(map[string]*entry[V], capacity),
	}
}

// Get returns the cached value for key. When memoization is disabled it
// always misses.
func (c *Cache[V]) Get(key string) (V, bool) {
	var zero V
	if !Enabled() {
		return zero, false
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	e, ok := c.entries[key]
	if !ok {
		c.misses.Add(1)
		obsMisses.Inc()
		return zero, false
	}
	c.moveToFront(e)
	c.hits.Add(1)
	obsHits.Inc()
	return e.value, true
}

// Put stores value under key, evicting the least-recently-used entry when
// the cache is full. A no-op while memoization is disabled.
func (c *Cache[V]) Put(key string, value V) {
	if !Enabled() {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if e, ok := c.entries[key]; ok {
		e.value = value
		c.moveToFront(e)
		return
	}
	if len(c.entries) >= c.capacity {
		lru := c.tail
		c.unlink(lru)
		delete(c.entries, lru.key)
		c.evictions.Add(1)
		obsEvictions.Inc()
	}
	e := &entry[V]{key: key, value: value}
	c.entries[key] = e
	c.pushFront(e)
}

// Do returns the cached value for key, computing and caching it on a miss.
// Concurrent misses on the same key may compute redundantly (computations
// here are pure, so the duplicate work is harmless and lock-free); errors are
// returned without caching.
func (c *Cache[V]) Do(key string, compute func() (V, error)) (V, error) {
	if v, ok := c.Get(key); ok {
		return v, nil
	}
	v, err := compute()
	if err != nil {
		var zero V
		return zero, err
	}
	c.Put(key, v)
	return v, nil
}

// Len returns the current number of entries.
func (c *Cache[V]) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.entries)
}

// Stats returns a snapshot of the cache counters.
func (c *Cache[V]) Stats() Stats {
	c.mu.Lock()
	n := len(c.entries)
	c.mu.Unlock()
	return Stats{
		Hits:      c.hits.Load(),
		Misses:    c.misses.Load(),
		Evictions: c.evictions.Load(),
		Entries:   n,
	}
}

// moveToFront marks e most recently used. Caller holds c.mu.
func (c *Cache[V]) moveToFront(e *entry[V]) {
	if c.head == e {
		return
	}
	c.unlink(e)
	c.pushFront(e)
}

func (c *Cache[V]) unlink(e *entry[V]) {
	if e.prev != nil {
		e.prev.next = e.next
	} else {
		c.head = e.next
	}
	if e.next != nil {
		e.next.prev = e.prev
	} else {
		c.tail = e.prev
	}
	e.prev, e.next = nil, nil
}

func (c *Cache[V]) pushFront(e *entry[V]) {
	e.next = c.head
	if c.head != nil {
		c.head.prev = e
	}
	c.head = e
	if c.tail == nil {
		c.tail = e
	}
}
