package memo

import (
	"bytes"
	"testing"

	"ksettop/internal/durable"
)

// FuzzDecodeSnapshot drives the snapshot loader's parser (the shared
// internal/durable section decoder under the memo magic) with arbitrary
// bytes: it must never panic, and whenever it accepts an image, re-encoding
// the parsed sections must produce an image that parses back to the same
// sections. Seeds cover valid images, truncations and bit flips;
// testdata/fuzz holds a section count far beyond the input, which once
// panicked the loader by preallocating for it.
func FuzzDecodeSnapshot(f *testing.F) {
	valid := snapshotFormat.Encode("", []durable.Section{
		{Name: "graph.closure", Payload: []byte{1, 2, 3, 4, 5, 6, 7, 8, 9}},
		{Name: "model.count", Payload: bytes.Repeat([]byte{0xCD}, 40)},
	})
	f.Add(valid)
	f.Add(valid[:len(valid)/2])
	f.Add(valid[:len(snapshotFormat.Magic)])
	f.Add([]byte{})
	f.Add([]byte("not a snapshot"))
	flipped := append([]byte(nil), valid...)
	flipped[len(flipped)/2] ^= 0x40
	f.Add(flipped)

	f.Fuzz(func(t *testing.T, data []byte) {
		_, parts, err := snapshotFormat.Decode("fuzz.snap", data)
		if err != nil {
			return // rejected input: the only requirement is "no panic"
		}
		_, again, err := snapshotFormat.Decode("fuzz.snap", snapshotFormat.Encode("", parts))
		if err != nil {
			t.Fatalf("re-encoded image rejected: %v", err)
		}
		if len(again) != len(parts) {
			t.Fatalf("re-encode drift: %d → %d sections", len(parts), len(again))
		}
		for i := range parts {
			if again[i].Name != parts[i].Name || !bytes.Equal(again[i].Payload, parts[i].Payload) {
				t.Fatalf("section %d drift", i)
			}
		}
	})
}
