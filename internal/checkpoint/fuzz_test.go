package checkpoint

import (
	"bytes"
	"testing"

	"ksettop/internal/durable/durabletest"
)

// FuzzDecode drives the checkpoint loader's parser (the shared
// internal/durable section decoder under the checkpoint magic and job key)
// through durabletest.FuzzDecode: no panic, and every accepted image
// re-encodes canonically. Seeds cover valid images, truncations and bit
// flips — the crash shapes the durability contract promises to survive;
// testdata/fuzz holds an input found by fuzzing.
func FuzzDecode(f *testing.F) {
	valid := fileFormat.Encode("ksetbounds|star:n=4|1", []Section{
		{Name: "solver.frontier#1", Payload: []byte{1, 2, 3, 4, 5, 6, 7, 8, 9}},
		{Name: "homology.reduction#2", Payload: bytes.Repeat([]byte{0xAB}, 64)},
	})
	flipped := bytes.Clone(valid)
	flipped[len(flipped)/2] ^= 0x40
	durabletest.FuzzDecode(f, fileFormat,
		valid,
		valid[:len(valid)/2],
		valid[:len(fileFormat.Magic)],
		[]byte{},
		[]byte("ksetckpt\x01"),
		[]byte("not a checkpoint at all"),
		flipped,
		fileFormat.Encode("job", []Section{{Name: "n#1", Payload: nil}}),
	)
}
