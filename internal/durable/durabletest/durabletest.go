// Package durabletest holds the fuzz body shared by the loaders of the
// durable section-list formats: the keyed checkpoint format
// (internal/checkpoint) and the unkeyed memo snapshot format
// (internal/memo). Each loader keeps its own fuzz target, seeds and corpus;
// the property they check is written once here.
package durabletest

import (
	"bytes"
	"testing"

	"ksettop/internal/durable"
)

// FuzzDecode adds seeds to f and drives format.Decode with arbitrary bytes:
// it must never panic, and whenever it accepts an image, re-encoding the
// parsed key and sections must produce an image that parses back to the
// same key and sections (the format is canonical).
func FuzzDecode(f *testing.F, format durable.Format, seeds ...[]byte) {
	for _, seed := range seeds {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		key, parts, err := format.Decode("fuzz.bin", data)
		if err != nil {
			return // rejected input: the only requirement is "no panic"
		}
		key2, again, err := format.Decode("fuzz.bin", format.Encode(key, parts))
		if err != nil {
			t.Fatalf("re-encoded image rejected: %v", err)
		}
		if key2 != key || len(again) != len(parts) {
			t.Fatalf("re-encode drift: key %q→%q, %d→%d sections", key, key2, len(parts), len(again))
		}
		for i := range parts {
			if again[i].Name != parts[i].Name || !bytes.Equal(again[i].Payload, parts[i].Payload) {
				t.Fatalf("section %d drift", i)
			}
		}
	})
}
