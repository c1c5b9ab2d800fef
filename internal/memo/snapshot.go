package memo

import (
	"fmt"
	"os"
	"sync"

	"ksettop/internal/durable"
	"ksettop/internal/faultinject"
)

// Memo snapshots persist cache contents across process runs. Caches opt in
// by registering a named section with an export/import pair; the value
// encoding lives with the cache owner, so this package stays free of domain
// types. No cache registers a section at present: the symmetric closure,
// the one cache that did, became a cheap orbit search and lost its cache.
// A snapshot therefore carries no section, and the registry stays so that
// ksetserved -memo-snapshot and the files it writes keep working.

// snapshotFormat is the memo snapshot layout. Loaders reject every other
// magic, version 1 (no checksums) included, and skip sections they have no
// importer for, so adding sections stays backward-compatible.
var snapshotFormat = durable.Format{Magic: []byte("ksetmemo\x02")}

type snapshotSection struct {
	name    string
	export  func() ([]byte, error)
	restore func([]byte) error
}

var (
	sectionMu sync.Mutex
	sections  []snapshotSection
)

// RegisterSnapshot adds a named snapshot section. export serializes the
// owner's cache contents; restore restores them (typically via Cache.Put,
// so restoring is additive and thread-safe). Registration normally happens
// in the owner package's init.
func RegisterSnapshot(name string, export func() ([]byte, error), restore func([]byte) error) {
	sectionMu.Lock()
	defer sectionMu.Unlock()
	for _, s := range sections {
		if s.name == name {
			panic(fmt.Sprintf("memo: duplicate snapshot section %q", name))
		}
	}
	sections = append(sections, snapshotSection{name: name, export: export, restore: restore})
}

// SaveSnapshot writes every registered section to path atomically and
// durably: a temp file in the same directory is fsynced, then renamed over
// the target, so a crash at any point leaves either the previous snapshot
// or the complete new one — never a zero-length file.
func SaveSnapshot(path string) error {
	sectionMu.Lock()
	secs := append([]snapshotSection(nil), sections...)
	sectionMu.Unlock()

	parts := make([]durable.Section, len(secs))
	for i, s := range secs {
		payload, err := s.export()
		if err != nil {
			return fmt.Errorf("memo: exporting section %q: %w", s.name, err)
		}
		parts[i] = durable.Section{Name: s.name, Payload: payload}
	}
	if err := durable.WriteFileAtomic(path, snapshotFormat.Encode("", parts), faultinject.PointSnapshotSync); err != nil {
		return fmt.Errorf("memo: %w", err)
	}
	return nil
}

// LoadSnapshot restores every section of the file that has a registered
// importer; sections without one are skipped, so snapshots survive the
// removal of a cache. Loading is additive — it Puts entries into live
// caches and never clears anything. Integrity failures (truncation, CRC
// mismatch, foreign bytes) return a *durable.CorruptError matching
// durable.ErrCorrupt, and checksums are verified BEFORE any section is
// imported, so a corrupt file never half-populates the caches.
func LoadSnapshot(path string) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return fmt.Errorf("memo: %w", err)
	}
	faultinject.Corrupt(faultinject.PointSnapshotLoad, data)
	_, secs, err := snapshotFormat.Decode(path, data)
	if err != nil {
		return err
	}
	sectionMu.Lock()
	importers := make(map[string]func([]byte) error, len(sections))
	for _, s := range sections {
		importers[s.name] = s.restore
	}
	sectionMu.Unlock()
	for _, s := range secs {
		imp, ok := importers[s.Name]
		if !ok {
			continue
		}
		if err := imp(s.Payload); err != nil {
			return fmt.Errorf("memo: importing section %q: %w", s.Name, err)
		}
	}
	return nil
}

// SnapshotEntries returns the cache's keys and values aligned, least
// recently used first — the order Restore should replay them in so that
// recency survives a round-trip.
func (c *Cache[V]) SnapshotEntries() ([]string, []V) {
	c.mu.Lock()
	defer c.mu.Unlock()
	keys := make([]string, 0, len(c.entries))
	vals := make([]V, 0, len(c.entries))
	for e := c.tail; e != nil; e = e.prev {
		keys = append(keys, e.key)
		vals = append(vals, e.value)
	}
	return keys, vals
}

// Restore Puts the entries back in order (pair i of keys and vals).
// Replaying a SnapshotEntries dump LRU-first reproduces the recency order.
func (c *Cache[V]) Restore(keys []string, vals []V) {
	for i := range keys {
		c.Put(keys[i], vals[i])
	}
}

// Clear drops every entry (counters are kept; they are lifetime totals).
func (c *Cache[V]) Clear() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.entries = make(map[string]*entry[V], c.capacity)
	c.head, c.tail = nil, nil
}
