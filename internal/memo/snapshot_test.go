package memo

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"ksettop/internal/durable"
	"ksettop/internal/faultinject"
)

func TestSnapshotEntriesRoundTrip(t *testing.T) {
	c := NewCache[int](8)
	c.Put("a", 1)
	c.Put("b", 2)
	c.Put("c", 3)
	c.Get("a") // bump recency: LRU order is now b, c, a

	keys, vals := c.SnapshotEntries()
	if len(keys) != 3 || keys[0] != "b" || keys[1] != "c" || keys[2] != "a" {
		t.Fatalf("LRU-first keys = %v, want [b c a]", keys)
	}

	fresh := NewCache[int](8)
	fresh.Restore(keys, vals)
	for key, want := range map[string]int{"a": 1, "b": 2, "c": 3} {
		if got, ok := fresh.Get(key); !ok || got != want {
			t.Errorf("restored %q = %d (ok=%v), want %d", key, got, ok, want)
		}
	}
	// Recency must survive: with capacity 2 the next Put should evict "b".
	tiny := NewCache[int](2)
	tiny.Restore(keys[1:], vals[1:]) // c, a
	tiny.Put("d", 4)
	if _, ok := tiny.Get("c"); ok {
		t.Error("LRU entry should have been evicted after restore+put")
	}
	if _, ok := tiny.Get("a"); !ok {
		t.Error("MRU entry should have survived restore+put")
	}
}

func TestCacheClear(t *testing.T) {
	c := NewCache[string](4)
	c.Put("x", "y")
	c.Clear()
	if c.Len() != 0 {
		t.Fatalf("Len = %d after Clear", c.Len())
	}
	if _, ok := c.Get("x"); ok {
		t.Error("entry survived Clear")
	}
	c.Put("x", "z") // the list must still be consistent
	if got, ok := c.Get("x"); !ok || got != "z" {
		t.Errorf("post-Clear Put/Get = %q, %v", got, ok)
	}
}

func TestSnapshotFileRoundTrip(t *testing.T) {
	cache := registerStringCache("test.section")
	cache.Put("alpha", "1")
	cache.Put("beta", "22")
	path := filepath.Join(t.TempDir(), "snap.bin")
	if err := SaveSnapshot(path); err != nil {
		t.Fatal(err)
	}
	cache.Clear()
	if err := LoadSnapshot(path); err != nil {
		t.Fatal(err)
	}
	for key, want := range map[string]string{"alpha": "1", "beta": "22"} {
		if got, ok := cache.Get(key); !ok || got != want {
			t.Errorf("after load, %q = %q (ok=%v), want %q", key, got, ok, want)
		}
	}
}

// stringCaches holds the caches registerStringCache has registered, by
// section name.
var stringCaches sync.Map

// registerStringCache registers a length-prefixed string-cache section under
// name and returns the backing cache, emptied. Sections cannot be
// unregistered, so every test uses a unique name, and a repeated run in the
// same process (-count > 1) gets the cache registered the first time.
func registerStringCache(name string) *Cache[string] {
	if c, ok := stringCaches.Load(name); ok {
		cache := c.(*Cache[string])
		cache.Clear()
		return cache
	}
	cache := NewCache[string](16)
	stringCaches.Store(name, cache)
	RegisterSnapshot(name,
		func() ([]byte, error) {
			keys, vals := cache.SnapshotEntries()
			var out []byte
			for i := range keys {
				out = append(out, byte(len(keys[i])))
				out = append(out, keys[i]...)
				out = append(out, byte(len(vals[i])))
				out = append(out, vals[i]...)
			}
			return out, nil
		},
		func(payload []byte) error {
			for len(payload) > 0 {
				kn := int(payload[0])
				key := string(payload[1 : 1+kn])
				payload = payload[1+kn:]
				vn := int(payload[0])
				cache.Put(key, string(payload[1:1+vn]))
				payload = payload[1+vn:]
			}
			return nil
		})
	return cache
}

// TestSnapshotBitFlipDetected flips every single bit of a v2 snapshot in
// turn and asserts the loader either rejects the file as corrupt or — when
// the flip lands in a section without an importer or in framing slack —
// never imports damaged bytes into the cache silently as a success with
// wrong contents.
func TestSnapshotBitFlipDetected(t *testing.T) {
	cache := registerStringCache("crc.section")
	cache.Put("alpha", "1")
	cache.Put("beta", "22")
	path := filepath.Join(t.TempDir(), "snap.bin")
	if err := SaveSnapshot(path); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	rejected := 0
	for bit := 0; bit < len(data)*8; bit++ {
		flipped := append([]byte(nil), data...)
		flipped[bit/8] ^= 1 << (bit % 8)
		if err := os.WriteFile(path, flipped, 0o644); err != nil {
			t.Fatal(err)
		}
		cache.Clear()
		err := LoadSnapshot(path)
		if err == nil {
			// The only single-bit flips a CRC over name+payload cannot see
			// are in the framing outside any section (e.g. the section count
			// collapsing to 0): the load must then be a no-op, never an
			// import of damaged bytes.
			if n := cache.Len(); n != 0 {
				t.Fatalf("bit %d: flipped snapshot loaded cleanly with %d entries", bit, n)
			}
			continue
		}
		if errors.Is(err, durable.ErrCorrupt) {
			rejected++
			var ce *durable.CorruptError
			if !errors.As(err, &ce) {
				t.Fatalf("bit %d: err %v is not a *durable.CorruptError", bit, err)
			}
		}
		if n := cache.Len(); n != 0 {
			t.Fatalf("bit %d: corrupt load half-populated the cache (%d entries)", bit, n)
		}
	}
	if rejected == 0 {
		t.Fatal("no flip was detected by the checksum")
	}
}

// TestSnapshotTruncationDetected cuts a v2 snapshot short at every length
// and asserts the loader reports corruption instead of importing a prefix.
func TestSnapshotTruncationDetected(t *testing.T) {
	cache := registerStringCache("trunc.section")
	cache.Put("gamma", "333")
	path := filepath.Join(t.TempDir(), "snap.bin")
	if err := SaveSnapshot(path); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	for cut := 0; cut < len(data); cut++ {
		if err := os.WriteFile(path, data[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		cache.Clear()
		if err := LoadSnapshot(path); !errors.Is(err, durable.ErrCorrupt) {
			t.Fatalf("cut at %d: err = %v, want durable.ErrCorrupt", cut, err)
		}
		if n := cache.Len(); n != 0 {
			t.Fatalf("cut at %d: truncated load half-populated the cache (%d entries)", cut, n)
		}
	}
}

// TestSnapshotV1Rejected pins that version-1 files (no checksums) are no
// longer loaded: they are reported as corrupt, so callers start cold, and
// nothing is imported.
func TestSnapshotV1Rejected(t *testing.T) {
	cache := registerStringCache("v1.section")
	// Magic, one section: name "v1.section", payload key "k" → value "v" in
	// the test codec, no CRC.
	v1 := []byte("ksetmemo\x01\x01\x0av1.section\x04\x01k\x01v")
	path := filepath.Join(t.TempDir(), "snap-v1.bin")
	if err := os.WriteFile(path, v1, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := LoadSnapshot(path); !errors.Is(err, durable.ErrCorrupt) {
		t.Fatalf("v1 snapshot: err = %v, want durable.ErrCorrupt", err)
	}
	if n := cache.Len(); n != 0 {
		t.Fatalf("v1 snapshot imported %d entries", n)
	}
}

// TestSnapshotFaultInjectedCorruption drives the memo.snapshot injection
// point: an armed corrupt rule flips seeded bits in the loaded bytes, and
// the checksums catch it.
func TestSnapshotFaultInjectedCorruption(t *testing.T) {
	cache := registerStringCache("fault.section")
	cache.Put("delta", "4444")
	path := filepath.Join(t.TempDir(), "snap.bin")
	if err := SaveSnapshot(path); err != nil {
		t.Fatal(err)
	}
	faultinject.Enable(7, faultinject.Rule{
		Point:  faultinject.PointSnapshotLoad,
		Action: faultinject.ActionCorrupt,
		Every:  1, // every load
		Flips:  4,
	})
	defer faultinject.Disable()
	cache.Clear()
	if err := LoadSnapshot(path); err == nil {
		t.Fatal("fault-injected corruption loaded cleanly")
	}
	faultinject.Disable()
	if err := LoadSnapshot(path); err != nil {
		t.Fatalf("clean reload after disarm: %v", err)
	}
	if got, ok := cache.Get("delta"); !ok || got != "4444" {
		t.Errorf("restored delta = %q (ok=%v)", got, ok)
	}
}

func TestLoadSnapshotRejectsGarbage(t *testing.T) {
	path := filepath.Join(t.TempDir(), "garbage")
	if err := os.WriteFile(path, []byte("not a snapshot"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := LoadSnapshot(path); err == nil {
		t.Error("garbage file should be rejected")
	}
	if err := LoadSnapshot(filepath.Join(t.TempDir(), "missing")); err == nil {
		t.Error("missing file should error (callers decide whether that is fatal)")
	}
}

// TestSnapshotSyncFailureKeepsPrevious drives the memo.sync injection point:
// a save whose fsync fails must return an error, leave the previous
// snapshot byte-intact and leave no temp file behind.
func TestSnapshotSyncFailureKeepsPrevious(t *testing.T) {
	cache := registerStringCache("sync.section")
	cache.Put("epsilon", "5")
	dir := t.TempDir()
	path := filepath.Join(dir, "snap.bin")
	if err := SaveSnapshot(path); err != nil {
		t.Fatal(err)
	}
	before, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}

	cache.Put("zeta", "66")
	faultinject.Enable(1, faultinject.Rule{Point: faultinject.PointSnapshotSync, Action: faultinject.ActionError})
	err = SaveSnapshot(path)
	faultinject.Disable()
	if err == nil {
		t.Fatal("save with a failed fsync reported success")
	}
	after, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(after, before) {
		t.Fatal("failed save disturbed the previous snapshot")
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 {
		t.Fatalf("failed save left %d files behind, want only the snapshot", len(entries))
	}
}
