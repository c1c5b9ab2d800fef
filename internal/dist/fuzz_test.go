package dist

import (
	"bytes"
	"encoding/json"
	"hash/crc32"
	"maps"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
	"time"
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

// TestWorkerExecRankRange pins /dist/v1/exec's range check: a negative or
// inverted rank range is a 400 bad_request before any op runs, and an empty
// range is a 200 covering zero ranks.
func TestWorkerExecRankRange(t *testing.T) {
	h := NewWorker(WorkerConfig{Log: discardLog}).Handler()
	for _, tc := range []struct {
		name     string
		from, to int64
		status   int
	}{
		{"inverted", 40, 8, http.StatusBadRequest},
		{"negative from", -7, 4, http.StatusBadRequest},
		{"negative both", -7, -1, http.StatusBadRequest},
		{"empty", 5, 5, http.StatusOK},
		{"empty at zero", 0, 0, http.StatusOK},
		{"valid", 0, 96, http.StatusOK},
	} {
		body, err := json.Marshal(ExecRequest{Op: "count", Model: "star:n=3", From: tc.from, To: tc.to})
		if err != nil {
			t.Fatal(err)
		}
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/dist/v1/exec", bytes.NewReader(body)))
		if rec.Code != tc.status {
			t.Fatalf("%s [%d, %d): status %d, want %d: %s", tc.name, tc.from, tc.to, rec.Code, tc.status, rec.Body)
		}
		if tc.status == http.StatusOK {
			var resp ExecResponse
			if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
				t.Fatalf("%s: %v", tc.name, err)
			}
			if resp.Ranks != tc.to-tc.from {
				t.Errorf("%s: ranks %d, want %d", tc.name, resp.Ranks, tc.to-tc.from)
			}
			continue
		}
		var envelope struct {
			Error workerError `json:"error"`
		}
		if err := json.Unmarshal(rec.Body.Bytes(), &envelope); err != nil || envelope.Error.Kind != "bad_request" {
			t.Errorf("%s: body is not a bad_request envelope (%v): %s", tc.name, err, rec.Body)
		}
	}
}

// FuzzWorkerExec posts arbitrary bodies to a worker's /dist/v1/exec: the
// handler must never panic, and must answer either 200 with an ExecResponse
// whose CRC matches its payload and whose ranks equal to − from ≥ 0, or a
// 4xx/5xx JSON error envelope. Seeds are
// a valid count request, inverted and negative rank ranges, an unknown op
// and malformed JSON. Models naming more than 5 processes are skipped, as
// their closure construction alone can run for minutes.
func FuzzWorkerExec(f *testing.F) {
	for _, body := range []string{
		`{"op":"count","model":"star:n=3","shard":0,"from":0,"to":96}`,
		`{"op":"enum","model":"star:n=3","shard":1,"from":40,"to":8}`,
		`{"op":"count","model":"star:n=3","from":-7,"to":-1,"lease_ms":-5}`,
		`{"op":"sum","model":"star:n=3","from":0,"to":96}`,
		`{"op":"count","model":`,
	} {
		f.Add([]byte(body))
	}
	// A short lease bounds every execution: a slow shard answers 504.
	w := NewWorker(WorkerConfig{MaxLease: time.Second, Log: discardLog})
	h := w.Handler()
	f.Fuzz(func(t *testing.T, body []byte) {
		var req ExecRequest
		decoded := json.NewDecoder(bytes.NewReader(body)).Decode(&req) == nil
		if decoded && processesNamed(req.Model) > 5 {
			t.Skip()
		}
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/dist/v1/exec", bytes.NewReader(body)))
		if n := w.Stats().Panics; n != 0 {
			t.Fatalf("handler panicked on %q (%d recovered panics)", body, n)
		}
		if rec.Code == http.StatusOK {
			var resp ExecResponse
			if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
				t.Fatalf("200 body is not an ExecResponse: %v\n%s", err, rec.Body)
			}
			if got := crc32.ChecksumIEEE(resp.Payload); got != resp.CRC {
				t.Fatalf("200 response CRC %08x, payload checksums to %08x", resp.CRC, got)
			}
			if !decoded || resp.Ranks != req.To-req.From || resp.Ranks < 0 {
				t.Fatalf("200 response covers %d ranks for request %q", resp.Ranks, body)
			}
			return
		}
		if rec.Code < 400 || rec.Code > 599 {
			t.Fatalf("status %d, want 200 or an error status", rec.Code)
		}
		var envelope struct {
			Error workerError `json:"error"`
		}
		if err := json.Unmarshal(rec.Body.Bytes(), &envelope); err != nil || envelope.Error.Kind == "" {
			t.Fatalf("status %d body is not a JSON error envelope (%v): %s", rec.Code, err, rec.Body)
		}
	})
}

// processesNamed bounds the process count a model spec can name: its largest
// integer, or the most rows of one '|'-separated adjacency generator.
func processesNamed(spec string) int {
	most := 0
	for _, g := range strings.Split(spec, "|") {
		most = max(most, strings.Count(g, ";")+1)
	}
	for _, digits := range strings.FieldsFunc(spec, func(r rune) bool { return r < '0' || r > '9' }) {
		n, err := strconv.Atoi(digits)
		if err != nil {
			return math.MaxInt
		}
		most = max(most, n)
	}
	return most
}
