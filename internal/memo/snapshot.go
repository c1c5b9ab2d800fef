package memo

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"sync"

	"ksettop/internal/faultinject"
)

// Memo snapshots persist cache contents across process runs: the CLI tools
// rebuild the same symmetric closures on every invocation, and a disk
// snapshot (canonical key → closure, length-prefixed binary) turns the cold
// start into a file read. Caches opt in by registering a named section with
// an export/import pair; the value encoding lives with the cache owner
// (e.g. internal/graph encodes digraph slices), so this package stays free
// of domain types.

// snapshotMagic identifies the file format; the trailing version byte bumps
// on incompatible changes. Version 2 appends a CRC32 (IEEE, over the section
// name and payload) to every section so that torn writes and bit rot are
// detected at load instead of deserialized into live caches; version 1
// snapshots (no checksums) are still accepted. Loaders reject other magics
// outright and skip sections they have no importer for, so adding sections
// stays backward-compatible.
var (
	snapshotMagic   = []byte("ksetmemo\x02")
	snapshotMagicV1 = []byte("ksetmemo\x01")
)

// ErrCorruptSnapshot is the sentinel every snapshot integrity failure —
// truncation, checksum mismatch, foreign bytes — matches under errors.Is.
// Callers treat it as "warn and start cold", never as fatal.
var ErrCorruptSnapshot = errors.New("memo: corrupt snapshot")

// CorruptSnapshotError reports a snapshot file that failed validation.
type CorruptSnapshotError struct {
	Path    string // the file that failed
	Section string // the section being read, if the failure was localized
	Reason  string // what failed
}

func (e *CorruptSnapshotError) Error() string {
	if e.Section != "" {
		return fmt.Sprintf("memo: corrupt snapshot %s (section %q): %s", e.Path, e.Section, e.Reason)
	}
	return fmt.Sprintf("memo: corrupt snapshot %s: %s", e.Path, e.Reason)
}

// Is matches ErrCorruptSnapshot.
func (e *CorruptSnapshotError) Is(target error) bool { return target == ErrCorruptSnapshot }

func corruptf(path, section, format string, args ...any) error {
	return &CorruptSnapshotError{Path: path, Section: section, Reason: fmt.Sprintf(format, args...)}
}

// sectionCRC is the integrity checksum of one v2 section: IEEE CRC32 over
// the section name followed by its payload.
func sectionCRC(name string, payload []byte) uint32 {
	crc := crc32.NewIEEE()
	io.WriteString(crc, name)
	crc.Write(payload)
	return crc.Sum32()
}

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

	parts := make([]snapshotPart, len(secs))
	for i, s := range secs {
		payload, err := s.export()
		if err != nil {
			return fmt.Errorf("memo: exporting section %q: %w", s.name, err)
		}
		parts[i] = snapshotPart{name: s.name, payload: payload}
	}
	data := encodeSnapshot(parts)

	tmp, err := os.CreateTemp(filepath.Dir(path), ".memo-snapshot-*")
	if err != nil {
		return fmt.Errorf("memo: %w", err)
	}
	cleanup := func() { tmp.Close(); os.Remove(tmp.Name()) }
	if _, err := tmp.Write(data); err != nil {
		cleanup()
		return fmt.Errorf("memo: %w", err)
	}
	if err := faultinject.Hit(faultinject.PointSnapshotSync); err != nil {
		cleanup()
		return fmt.Errorf("memo: fsync %s: %w", path, err)
	}
	if err := tmp.Sync(); err != nil {
		cleanup()
		return fmt.Errorf("memo: %w", err)
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmp.Name())
		return fmt.Errorf("memo: %w", err)
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		os.Remove(tmp.Name())
		return fmt.Errorf("memo: %w", err)
	}
	return nil
}

// LoadSnapshot restores every section of the file that has a registered
// importer; sections without one are skipped, so snapshots survive the
// removal of a cache. Loading is additive — it Puts entries into live
// caches and never clears anything. Integrity failures (truncation, CRC
// mismatch, foreign bytes) return a *CorruptSnapshotError matching
// ErrCorruptSnapshot, and checksums are verified BEFORE any section is
// imported, so a corrupt file never half-populates the caches.
func LoadSnapshot(path string) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return fmt.Errorf("memo: %w", err)
	}
	faultinject.Corrupt(faultinject.PointSnapshotLoad, data)
	secs, err := decodeSnapshot(path, data)
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
		imp, ok := importers[s.name]
		if !ok {
			continue
		}
		if err := imp(s.payload); err != nil {
			return fmt.Errorf("memo: importing section %q: %w", s.name, err)
		}
	}
	return nil
}

// snapshotPart is one named section of a snapshot file.
type snapshotPart struct {
	name    string
	payload []byte
}

// encodeSnapshot renders sections in the current (v2, checksummed) format.
func encodeSnapshot(parts []snapshotPart) []byte {
	var buf bytes.Buffer
	buf.Write(snapshotMagic)
	WriteUvarint(&buf, uint64(len(parts)))
	for _, p := range parts {
		WriteUvarint(&buf, uint64(len(p.name)))
		buf.WriteString(p.name)
		WriteUvarint(&buf, uint64(len(p.payload)))
		buf.Write(p.payload)
		var crc [4]byte
		binary.LittleEndian.PutUint32(crc[:], sectionCRC(p.name, p.payload))
		buf.Write(crc[:])
	}
	return buf.Bytes()
}

// decodeSnapshot parses and integrity-checks a snapshot image (v2, or the
// unchecksummed v1) without importing anything. Every failure is a
// *CorruptSnapshotError naming path.
func decodeSnapshot(path string, data []byte) ([]snapshotPart, error) {
	checked := true
	switch {
	case bytes.HasPrefix(data, snapshotMagic):
	case bytes.HasPrefix(data, snapshotMagicV1):
		checked = false // v1 predates checksums
	default:
		return nil, corruptf(path, "", "not a memo snapshot")
	}
	r := bytes.NewReader(data[len(snapshotMagic):])
	count, err := binary.ReadUvarint(r)
	if err != nil {
		return nil, corruptf(path, "", "section count: %v", err)
	}
	var secs []snapshotPart
	for i := uint64(0); i < count; i++ {
		name, err := ReadLengthPrefixed(r)
		if err != nil {
			return nil, corruptf(path, "", "section %d name: %v", i, err)
		}
		payload, err := ReadLengthPrefixed(r)
		if err != nil {
			return nil, corruptf(path, string(name), "payload: %v", err)
		}
		if checked {
			var crc [4]byte
			if _, err := io.ReadFull(r, crc[:]); err != nil {
				return nil, corruptf(path, string(name), "checksum: %v", err)
			}
			if got, want := sectionCRC(string(name), payload), binary.LittleEndian.Uint32(crc[:]); got != want {
				return nil, corruptf(path, string(name), "checksum mismatch (computed %08x, stored %08x)", got, want)
			}
		}
		secs = append(secs, snapshotPart{name: string(name), payload: payload})
	}
	if r.Len() != 0 {
		// A damaged section count would otherwise drop the sections past it.
		return nil, corruptf(path, "", "%d trailing bytes", r.Len())
	}
	return secs, nil
}

// WriteUvarint appends v to buf as a varint — the framing primitive shared
// by the snapshot file and the section codecs (e.g. internal/graph).
func WriteUvarint(buf *bytes.Buffer, v uint64) {
	var tmp [binary.MaxVarintLen64]byte
	buf.Write(tmp[:binary.PutUvarint(tmp[:], v)])
}

// ReadLengthPrefixed reads a varint length followed by that many bytes,
// rejecting lengths beyond the remaining input before allocating.
func ReadLengthPrefixed(r *bytes.Reader) ([]byte, error) {
	n, err := binary.ReadUvarint(r)
	if err != nil {
		return nil, err
	}
	if n > uint64(r.Len()) {
		return nil, fmt.Errorf("length %d exceeds remaining %d bytes", n, r.Len())
	}
	out := make([]byte, n)
	if _, err := io.ReadFull(r, out); err != nil {
		return nil, err
	}
	return out, nil
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
