package dist

import (
	"bytes"
	"io"
	"os"
	"path/filepath"
	"testing"
)

func openForTest(t *testing.T, path, key string) (*Journal, map[int][]byte, bool) {
	t.Helper()
	j, commits, resumed, err := OpenJournal(path, key)
	if err != nil {
		t.Fatalf("OpenJournal: %v", err)
	}
	return j, commits, resumed
}

func TestJournalRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "sweep.journal")
	j, commits, resumed := openForTest(t, path, "job-A")
	if resumed || len(commits) != 0 {
		t.Fatalf("fresh journal: resumed=%v commits=%d", resumed, len(commits))
	}
	want := map[int][]byte{0: []byte("alpha"), 3: []byte("delta"), 1: {}}
	for shard, p := range want {
		if err := j.Append(shard, p); err != nil {
			t.Fatalf("Append(%d): %v", shard, err)
		}
	}
	j.Close()

	j2, commits, resumed := openForTest(t, path, "job-A")
	defer j2.Close()
	if !resumed {
		t.Fatal("want resumed=true")
	}
	if len(commits) != len(want) {
		t.Fatalf("recovered %d commits, want %d", len(commits), len(want))
	}
	for shard, p := range want {
		if !bytes.Equal(commits[shard], p) {
			t.Fatalf("shard %d: got %q want %q", shard, commits[shard], p)
		}
	}
}

// A torn tail — the expected artifact of a coordinator killed mid-append —
// must cost only the torn record: the good prefix survives and the file is
// truncated so later appends stay framed.
func TestJournalTornTailTruncated(t *testing.T) {
	path := filepath.Join(t.TempDir(), "sweep.journal")
	j, _, _ := openForTest(t, path, "job-A")
	j.Append(0, []byte("first"))
	j.Append(1, []byte("second"))
	j.Close()

	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	for cut := len(data) - 1; cut > len(data)-10; cut-- {
		if err := os.WriteFile(path, data[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		j2, commits, resumed := openForTest(t, path, "job-A")
		if !resumed || len(commits) != 1 || !bytes.Equal(commits[0], []byte("first")) {
			t.Fatalf("cut=%d: want shard 0 only, got resumed=%v commits=%v", cut, resumed, commits)
		}
		// Appends after the truncation must stay parseable.
		if err := j2.Append(1, []byte("second-again")); err != nil {
			t.Fatal(err)
		}
		j2.Close()
		j3, commits, _ := openForTest(t, path, "job-A")
		if len(commits) != 2 || !bytes.Equal(commits[1], []byte("second-again")) {
			t.Fatalf("cut=%d: after re-append got %v", cut, commits)
		}
		j3.Close()
		os.WriteFile(path, data, 0o644) // restore for the next cut
	}
}

// A corrupted record mid-file keeps the prefix before it and drops the rest.
func TestJournalCorruptRecordKeepsPrefix(t *testing.T) {
	path := filepath.Join(t.TempDir(), "sweep.journal")
	j, _, _ := openForTest(t, path, "job-A")
	j.Append(0, []byte("first"))
	off, err := j.f.Seek(0, io.SeekCurrent)
	if err != nil {
		t.Fatal(err)
	}
	j.Append(1, []byte("second"))
	j.Close()

	data, _ := os.ReadFile(path)
	data[int(off)+3] ^= 0xff // damage shard 1's record body
	os.WriteFile(path, data, 0o644)

	j2, commits, resumed := openForTest(t, path, "job-A")
	defer j2.Close()
	if !resumed || len(commits) != 1 || !bytes.Equal(commits[0], []byte("first")) {
		t.Fatalf("want shard 0 only, got resumed=%v commits=%v", resumed, commits)
	}
}

// A journal for a DIFFERENT job must never be resumed — it is reset.
func TestJournalForeignJobReset(t *testing.T) {
	path := filepath.Join(t.TempDir(), "sweep.journal")
	j, _, _ := openForTest(t, path, "job-A")
	j.Append(0, []byte("payload"))
	j.Close()

	j2, commits, resumed := openForTest(t, path, "job-B")
	if resumed || len(commits) != 0 {
		t.Fatalf("foreign job resumed: resumed=%v commits=%v", resumed, commits)
	}
	j2.Append(0, []byte("fresh"))
	j2.Close()

	j3, commits, resumed := openForTest(t, path, "job-B")
	defer j3.Close()
	if !resumed || !bytes.Equal(commits[0], []byte("fresh")) {
		t.Fatalf("want job-B's own commit back, got resumed=%v commits=%v", resumed, commits)
	}
}

// A file that is not a journal at all starts fresh instead of erroring —
// recovery must never be blocked by garbage on disk.
func TestJournalGarbageFileReset(t *testing.T) {
	path := filepath.Join(t.TempDir(), "sweep.journal")
	if err := os.WriteFile(path, []byte("not a journal at all"), 0o644); err != nil {
		t.Fatal(err)
	}
	j, commits, resumed := openForTest(t, path, "job-A")
	defer j.Close()
	if resumed || len(commits) != 0 {
		t.Fatalf("garbage file: resumed=%v commits=%v", resumed, commits)
	}
}

func TestJournalRemove(t *testing.T) {
	path := filepath.Join(t.TempDir(), "sweep.journal")
	j, _, _ := openForTest(t, path, "job-A")
	j.Append(0, []byte("payload"))
	if err := j.Remove(); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(path); !os.IsNotExist(err) {
		t.Fatalf("journal still on disk: %v", err)
	}
}

// TestJournalGolden pins the journal format (ksetdistj\x01) against an
// image written by the encoder that predates internal/durable: appends must
// reproduce it byte for byte, and reopening it must recover every commit,
// so a journal left by an older coordinator still resumes.
func TestJournalGolden(t *testing.T) {
	const jobKey = "count|star:n=4|24"
	records := []struct {
		shard   int
		payload []byte
	}{{0, []byte{3}}, {2, []byte{1, 2, 3, 4}}, {1, nil}, {300, bytes.Repeat([]byte{9}, 200)}}
	golden, err := os.ReadFile(filepath.Join("testdata", "golden.journal"))
	if err != nil {
		t.Fatal(err)
	}

	path := filepath.Join(t.TempDir(), "sweep.journal")
	j, _, _ := openForTest(t, path, jobKey)
	for _, r := range records {
		if err := j.Append(r.shard, r.payload); err != nil {
			t.Fatal(err)
		}
	}
	j.Close()
	if data, err := os.ReadFile(path); err != nil || !bytes.Equal(data, golden) {
		t.Fatalf("journal encoding drifted (err %v):\n got %x\nwant %x", err, data, golden)
	}

	if err := os.WriteFile(path, golden, 0o644); err != nil {
		t.Fatal(err)
	}
	j, commits, resumed := openForTest(t, path, jobKey)
	j.Close()
	if !resumed || len(commits) != len(records) {
		t.Fatalf("golden journal: resumed=%v, %d commits, want %d", resumed, len(commits), len(records))
	}
	for _, r := range records {
		if got, ok := commits[r.shard]; !ok || !bytes.Equal(got, r.payload) {
			t.Fatalf("shard %d: got %x (ok=%v), want %x", r.shard, got, ok, r.payload)
		}
	}
}
