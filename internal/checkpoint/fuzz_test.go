package checkpoint

import (
	"bytes"
	"testing"
)

// FuzzDecode drives the checkpoint loader's parser (the shared
// internal/durable section decoder under the checkpoint magic and job key)
// with arbitrary bytes: it must never panic, and whenever it does accept an
// image, re-encoding the parsed sections must reproduce an image that parses
// to the same job and sections (the format is canonical). Seeds cover valid images, truncations and bit flips — the
// crash shapes the durability contract promises to survive.
func FuzzDecode(f *testing.F) {
	valid := fileFormat.Encode("ksetbounds|star:n=4|1", []Section{
		{Name: "solver.frontier#1", Payload: []byte{1, 2, 3, 4, 5, 6, 7, 8, 9}},
		{Name: "homology.reduction#2", Payload: bytes.Repeat([]byte{0xAB}, 64)},
	})
	f.Add(valid)
	f.Add(valid[:len(valid)/2])
	f.Add(valid[:len(fileFormat.Magic)])
	f.Add([]byte{})
	f.Add([]byte("ksetckpt\x01"))
	f.Add([]byte("not a checkpoint at all"))
	flipped := append([]byte(nil), valid...)
	flipped[len(flipped)/2] ^= 0x40
	f.Add(flipped)
	huge := fileFormat.Encode("job", []Section{{Name: "n#1", Payload: nil}})
	f.Add(huge)

	f.Fuzz(func(t *testing.T, data []byte) {
		job, secs, err := fileFormat.Decode("fuzz.ckpt", data)
		if err != nil {
			return // rejected input: the only requirement is "no panic"
		}
		re := fileFormat.Encode(job, secs)
		job2, secs2, err := fileFormat.Decode("fuzz.ckpt", re)
		if err != nil {
			t.Fatalf("re-encoded image rejected: %v", err)
		}
		if job2 != job || len(secs2) != len(secs) {
			t.Fatalf("re-encode drift: job %q→%q, %d→%d sections", job, job2, len(secs), len(secs2))
		}
		for i := range secs {
			if secs2[i].Name != secs[i].Name || !bytes.Equal(secs2[i].Payload, secs[i].Payload) {
				t.Fatalf("section %d drift", i)
			}
		}
	})
}
