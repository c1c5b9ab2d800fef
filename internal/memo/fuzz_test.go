package memo

import (
	"bytes"
	"testing"
)

// FuzzDecodeSnapshot drives the snapshot loader's parser with arbitrary
// bytes: it must never panic, and whenever it accepts an image,
// re-encoding the parsed sections must produce a v2 image that parses back
// to the same sections. Seeds cover valid v2 and v1 images, truncations
// and bit flips; testdata/fuzz holds a section count far beyond the input,
// which once panicked the loader by preallocating for it.
func FuzzDecodeSnapshot(f *testing.F) {
	valid := encodeSnapshot([]snapshotPart{
		{name: "graph.closure", payload: []byte{1, 2, 3, 4, 5, 6, 7, 8, 9}},
		{name: "model.count", payload: bytes.Repeat([]byte{0xCD}, 40)},
	})
	f.Add(valid)
	f.Add(valid[:len(valid)/2])
	f.Add(valid[:len(snapshotMagic)])
	f.Add([]byte{})
	f.Add([]byte("not a snapshot"))
	flipped := append([]byte(nil), valid...)
	flipped[len(flipped)/2] ^= 0x40
	f.Add(flipped)
	var v1 bytes.Buffer
	v1.Write(snapshotMagicV1)
	WriteUvarint(&v1, 1)
	WriteUvarint(&v1, 2)
	v1.WriteString("v1")
	WriteUvarint(&v1, 1)
	v1.WriteByte(7)
	f.Add(v1.Bytes())

	f.Fuzz(func(t *testing.T, data []byte) {
		parts, err := decodeSnapshot("fuzz.snap", data)
		if err != nil {
			return // rejected input: the only requirement is "no panic"
		}
		again, err := decodeSnapshot("fuzz.snap", encodeSnapshot(parts))
		if err != nil {
			t.Fatalf("re-encoded image rejected: %v", err)
		}
		if len(again) != len(parts) {
			t.Fatalf("re-encode drift: %d → %d sections", len(parts), len(again))
		}
		for i := range parts {
			if again[i].name != parts[i].name || !bytes.Equal(again[i].payload, parts[i].payload) {
				t.Fatalf("section %d drift", i)
			}
		}
	})
}
