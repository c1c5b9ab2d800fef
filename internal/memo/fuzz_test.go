package memo

import (
	"bytes"
	"testing"

	"ksettop/internal/durable"
	"ksettop/internal/durable/durabletest"
)

// FuzzDecodeSnapshot drives the snapshot loader's parser (the shared
// internal/durable section decoder under the memo magic) through
// durabletest.FuzzDecode: no panic, and every accepted image re-encodes
// canonically. Seeds cover valid images, truncations and bit flips;
// testdata/fuzz holds a section count far beyond the input, which once
// panicked the loader by preallocating for it.
func FuzzDecodeSnapshot(f *testing.F) {
	valid := snapshotFormat.Encode("", []durable.Section{
		{Name: "graph.closure", Payload: []byte{1, 2, 3, 4, 5, 6, 7, 8, 9}},
		{Name: "model.count", Payload: bytes.Repeat([]byte{0xCD}, 40)},
	})
	flipped := bytes.Clone(valid)
	flipped[len(flipped)/2] ^= 0x40
	durabletest.FuzzDecode(f, snapshotFormat,
		valid,
		valid[:len(valid)/2],
		valid[:len(snapshotFormat.Magic)],
		[]byte{},
		[]byte("not a snapshot"),
		flipped,
	)
}
