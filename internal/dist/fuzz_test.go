package dist

import (
	"bytes"
	"maps"
	"os"
	"path/filepath"
	"testing"
)

// FuzzParseJournal drives the shard-journal parser with arbitrary bytes: it
// must never panic, the good-prefix offset must stay within the input, and
// the accepted prefix must re-parse to the same offset and commits — the
// truncation point a restart cuts the file back to is itself a clean
// journal. Seeds are journals written by Append, plus truncations, bit
// flips and a foreign header.
func FuzzParseJournal(f *testing.F) {
	const jobKey = "count|star:n=4|24"
	path := filepath.Join(f.TempDir(), "seed.journal")
	j, _, _, err := OpenJournal(path, jobKey)
	if err != nil {
		f.Fatal(err)
	}
	for shard, payload := range [][]byte{{3}, {1, 2, 3, 4}, nil, bytes.Repeat([]byte{9}, 20)} {
		if err := j.Append(shard, payload); err != nil {
			f.Fatal(err)
		}
	}
	if err := j.Close(); err != nil {
		f.Fatal(err)
	}
	valid, err := os.ReadFile(path)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(valid)
	f.Add(valid[:len(valid)-3])
	f.Add(valid[:len(journalFormat.Magic)])
	f.Add([]byte{})
	flipped := append([]byte(nil), valid...)
	flipped[len(flipped)-5] ^= 0x10
	f.Add(flipped)
	f.Add(bytes.Replace(valid, []byte("star:n=4"), []byte("star:n=5"), 1))

	f.Fuzz(func(t *testing.T, data []byte) {
		commits := make(map[int][]byte)
		end, ok := parseJournal(data, jobKey, commits)
		if !ok {
			return
		}
		if end < len(journalFormat.Magic) || end > len(data) {
			t.Fatalf("good prefix ends at %d, outside [%d, %d]", end, len(journalFormat.Magic), len(data))
		}
		again := make(map[int][]byte)
		end2, ok2 := parseJournal(data[:end], jobKey, again)
		if !ok2 || end2 != end {
			t.Fatalf("good prefix re-parses to (%d, %v), want (%d, true)", end2, ok2, end)
		}
		if !maps.EqualFunc(commits, again, bytes.Equal) {
			t.Fatal("good prefix re-parses to different commits")
		}
	})
}
