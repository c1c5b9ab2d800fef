package durable_test

import (
	"bytes"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"ksettop/internal/checkpoint"
	"ksettop/internal/durable"
	"ksettop/internal/memo"
)

// The golden images under testdata were written by the encoders that
// predate this package; files already on disk must keep loading, so the
// formats may not drift by a single byte.

var goldenSections = []durable.Section{
	{Name: "graph.closure", Payload: []byte{1, 2, 3, 4, 5, 6, 7, 8, 9}},
	{Name: "model.count", Payload: bytes.Repeat([]byte{0xCD}, 200)},
	{Name: "empty", Payload: nil},
}

func readFile(t *testing.T, path string) []byte {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

func assertSections(t *testing.T, got, want []durable.Section) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("got %d sections, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i].Name != want[i].Name || !bytes.Equal(got[i].Payload, want[i].Payload) {
			t.Fatalf("section %d: got %q/%x, want %q/%x", i, got[i].Name, got[i].Payload, want[i].Name, want[i].Payload)
		}
	}
}

var (
	registerOnce sync.Once
	restored     = make([]durable.Section, len(goldenSections))
)

// TestDurableGoldenSnapshot pins the memo snapshot format (ksetmemo\x02)
// through memo's public save and load. The golden sections are the only
// ones registered in this test binary.
func TestDurableGoldenSnapshot(t *testing.T) {
	registerOnce.Do(func() {
		for i, s := range goldenSections {
			memo.RegisterSnapshot(s.Name,
				func() ([]byte, error) { return s.Payload, nil },
				func(payload []byte) error {
					restored[i] = durable.Section{Name: s.Name, Payload: payload}
					return nil
				})
		}
	})
	clear(restored)
	golden := readFile(t, filepath.Join("testdata", "golden.snap"))

	path := filepath.Join(t.TempDir(), "memo.snap")
	if err := memo.SaveSnapshot(path); err != nil {
		t.Fatal(err)
	}
	if data := readFile(t, path); !bytes.Equal(data, golden) {
		t.Fatalf("snapshot encoding drifted:\n got %x\nwant %x", data, golden)
	}
	if err := memo.LoadSnapshot(filepath.Join("testdata", "golden.snap")); err != nil {
		t.Fatal(err)
	}
	assertSections(t, restored, goldenSections)
}

// TestDurableGoldenCheckpoint pins the checkpoint format (ksetckpt\x01).
func TestDurableGoldenCheckpoint(t *testing.T) {
	const job = "ksetbounds|star:n=4|1"
	secs := []checkpoint.Section{
		{Name: "solver.frontier#1", Payload: []byte{1, 2, 3, 4, 5, 6, 7, 8, 9}},
		{Name: "homology.reduction#2", Payload: bytes.Repeat([]byte{0xAB}, 200)},
		{Name: "dist.shards", Payload: nil},
	}
	golden := readFile(t, filepath.Join("testdata", "golden.ckpt"))

	path := filepath.Join(t.TempDir(), "run.ckpt")
	if err := checkpoint.Save(path, job, secs); err != nil {
		t.Fatal(err)
	}
	if data := readFile(t, path); !bytes.Equal(data, golden) {
		t.Fatalf("checkpoint encoding drifted:\n got %x\nwant %x", data, golden)
	}
	got, err := checkpoint.Load(filepath.Join("testdata", "golden.ckpt"), job)
	if err != nil {
		t.Fatal(err)
	}
	assertSections(t, got, secs)
}
