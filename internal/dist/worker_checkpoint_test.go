package dist

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"ksettop/internal/checkpoint"
	"ksettop/internal/cli"
	"ksettop/internal/model"
)

func testModel(t *testing.T, spec string) *model.ClosedAbove {
	t.Helper()
	m, err := cli.ParseModel(spec)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// countAcc computes the genuine durable accumulator of OpCount over
// [lo, pos): the 8-byte LE running count.
func countAcc(t *testing.T, m *model.ClosedAbove, lo, pos int64) []byte {
	t.Helper()
	op := opTable[OpCount]
	payload, err := op.Run(context.Background(), m, lo, pos, nil)
	if err != nil {
		t.Fatal(err)
	}
	n, err := DecodeCount(payload)
	if err != nil {
		t.Fatal(err)
	}
	acc := make([]byte, 8)
	binary.LittleEndian.PutUint64(acc, uint64(n))
	return acc
}

// enumAcc computes the genuine durable accumulator of OpEnum over [lo, pos):
// the payload prefix emitted for those ranks.
func enumAcc(t *testing.T, m *model.ClosedAbove, lo, pos int64) []byte {
	t.Helper()
	op := opTable[OpEnum]
	payload, err := op.Run(context.Background(), m, lo, pos, nil)
	if err != nil {
		t.Fatal(err)
	}
	return payload
}

// TestDistShardResumeByteIdentity pins the op-level durability contract: a
// durable op resumed from a mid-shard accumulator produces exactly the bytes
// of a cold run, for every op and at every split point.
func TestDistShardResumeByteIdentity(t *testing.T) {
	m := testModel(t, "star:n=4")
	e, err := m.Enumeration()
	if err != nil {
		t.Fatal(err)
	}
	lo, hi := int64(0), e.Size() // 2048 ranks
	ctx := context.Background()

	for _, opName := range []string{OpCount, OpEnum} {
		op := opTable[opName]
		want, err := op.Run(ctx, m, lo, hi, nil)
		if err != nil {
			t.Fatal(err)
		}

		for _, pos := range []int64{lo + 1, lo + 100, 1024, hi - 1, hi} {
			var acc []byte
			if opName == OpCount {
				acc = countAcc(t, m, lo, pos)
			} else {
				acc = enumAcc(t, m, lo, pos)
			}
			st := &ShardState{}
			st.Set(pos, acc)
			got, err := op.Run(ctx, m, lo, hi, st)
			if err != nil {
				t.Fatalf("%s resume@%d: %v", opName, pos, err)
			}
			if !bytes.Equal(got, want) {
				t.Fatalf("%s resume@%d: payload differs from cold run (%d vs %d bytes)",
					opName, pos, len(got), len(want))
			}
		}

		// Stale or malformed states must be ignored, never trusted: position
		// at/below lo, beyond hi, and (for count) a wrong-length accumulator.
		for _, bad := range []struct {
			name string
			pos  int64
			acc  []byte
		}{
			{"pos=lo", lo, []byte{1, 2, 3, 4, 5, 6, 7, 8}},
			{"pos>hi", hi + 1, []byte{1, 2, 3, 4, 5, 6, 7, 8}},
			{"short-acc", 1024, []byte{9}},
		} {
			if opName == OpEnum && bad.name == "short-acc" {
				continue // any byte prefix is structurally valid for enum
			}
			st := &ShardState{}
			st.Set(bad.pos, bad.acc)
			got, err := op.Run(ctx, m, lo, hi, st)
			if err != nil {
				t.Fatalf("%s %s: %v", opName, bad.name, err)
			}
			if !bytes.Equal(got, want) {
				t.Fatalf("%s: %s state skewed the payload", opName, bad.name)
			}
		}
	}
}

// TestDistShardTableCheckpointRoundTrip: the shard-progress table encodes to
// a checkpoint section and restores losslessly; live executions are never
// overwritten; garbage payloads are rejected whole.
func TestDistShardTableCheckpointRoundTrip(t *testing.T) {
	t1 := newShardTable()
	a := t1.claim("count|star:n=4|0|1024", 0)
	a.Set(512, []byte{1, 0, 0, 0, 0, 0, 0, 0})
	t1.release("count|star:n=4|0|1024", false)
	b := t1.claim("enum|star:n=4|1024|2048", 1024)
	b.Set(1500, []byte("partial-enum-bytes"))
	t1.release("enum|star:n=4|1024|2048", false)

	payload, err := t1.encode()
	if err != nil {
		t.Fatal(err)
	}
	t2 := newShardTable()
	if err := t2.restore(payload); err != nil {
		t.Fatal(err)
	}
	payload2, err := t2.encode()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(payload, payload2) {
		t.Fatal("restore→encode is not the identity")
	}
	if pos, acc := t2.states["enum|star:n=4|1024|2048"].Snapshot(); pos != 1500 || string(acc) != "partial-enum-bytes" {
		t.Fatalf("restored state pos=%d acc=%q", pos, acc)
	}

	// A key executing RIGHT NOW must not be clobbered by a stale checkpoint.
	live := t2.claim("enum|star:n=4|1024|2048", 1024)
	live.Set(2000, []byte("live"))
	if err := t2.restore(payload); err != nil {
		t.Fatal(err)
	}
	if pos, _ := live.Snapshot(); pos != 2000 {
		t.Fatalf("restore overwrote a live execution (pos %d)", pos)
	}

	// Garbage payloads: rejected with an error, table untouched.
	for _, garbage := range [][]byte{
		{},
		{99},                              // wrong version
		{1, 0xFF, 0xFF, 0xFF, 0xFF, 0x7F}, // absurd entry count
		append(payload, 0xAA),             // trailing bytes
	} {
		if err := newShardTable().restore(garbage); err == nil {
			t.Fatalf("garbage payload %v accepted", garbage)
		}
	}
}

// execShard POSTs one shard grant to a worker and returns the payload.
func execShard(t *testing.T, url string, req ExecRequest) ([]byte, int) {
	t.Helper()
	body, _ := json.Marshal(req)
	resp, err := http.Post(url+"/dist/v1/exec", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var er ExecResponse
	if resp.StatusCode == http.StatusOK {
		if err := json.NewDecoder(resp.Body).Decode(&er); err != nil {
			t.Fatal(err)
		}
	}
	return er.Payload, resp.StatusCode
}

// TestDistWorkerKillRestartResumeByteIdentity is the worker-level durability
// contract: a worker restarted over the checkpoint of a crashed predecessor
// resumes the in-flight shard mid-range, and the payload it delivers is
// byte-identical to one computed cold.
func TestDistWorkerKillRestartResumeByteIdentity(t *testing.T) {
	m := testModel(t, "star:n=4")
	e, err := m.Enumeration()
	if err != nil {
		t.Fatal(err)
	}
	lo, hi := int64(0), e.Size()
	path := filepath.Join(t.TempDir(), "worker.ckpt")

	// "Crash" a worker mid-shard: record genuine partial progress for both
	// ops into a checkpoint file, the way the runner's cadence would have.
	crashed := newShardTable()
	for _, opName := range []string{OpCount, OpEnum} {
		key := fmt.Sprintf("%s|star:n=4|%d|%d", opName, lo, hi)
		st := crashed.claim(key, lo)
		if opName == OpCount {
			st.Set(1000, countAcc(t, m, lo, 1000))
		} else {
			st.Set(1000, enumAcc(t, m, lo, 1000))
		}
		crashed.release(key, false) // crash: execution ended, payload never delivered
	}
	r1 := checkpoint.NewRunner(path, "job", 0)
	r1.Register(kindDistShards, distShardsFP(), crashed.encode)
	if err := r1.SaveNow(); err != nil {
		t.Fatal(err)
	}

	// Restart: a fresh worker over the same checkpoint file.
	r2 := checkpoint.NewRunner(path, "job", 0)
	if !r2.LoadForResume() {
		t.Fatal("worker checkpoint did not load")
	}
	w2 := NewWorker(WorkerConfig{Checkpoint: r2, Log: discardLog})
	ts := httptest.NewServer(w2.Handler())
	defer ts.Close()

	for _, opName := range []string{OpCount, OpEnum} {
		op := opTable[opName]
		want, err := op.Run(context.Background(), m, lo, hi, nil)
		if err != nil {
			t.Fatal(err)
		}
		got, status := execShard(t, ts.URL, ExecRequest{Op: opName, Model: "star:n=4", From: lo, To: hi})
		if status != http.StatusOK {
			t.Fatalf("%s: exec status %d", opName, status)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("%s: resumed worker payload differs from cold run (%d vs %d bytes)",
				opName, len(got), len(want))
		}
		// Delivery drops the durable entry — resuming a committed shard
		// again would be wasted work.
		key := fmt.Sprintf("%s|star:n=4|%d|%d", opName, lo, hi)
		w2.shards.mu.Lock()
		_, still := w2.shards.states[key]
		w2.shards.mu.Unlock()
		if still {
			t.Fatalf("%s: shard entry survived successful delivery", opName)
		}
	}
}

// TestDistWorkerCheckpointLeaseExpiryRecordsProgress aborts a real shard
// execution mid-range (lease deadline on a 327k-rank shard) and checks the
// interrupted progress lands in the checkpoint file, then finishes the shard
// on a restarted worker and requires the cold-run bytes.
func TestDistWorkerCheckpointLeaseExpiryRecordsProgress(t *testing.T) {
	m := testModel(t, "star:n=5")
	e, err := m.Enumeration()
	if err != nil {
		t.Fatal(err)
	}
	lo, hi := int64(0), e.Size() // 327680 ranks
	path := filepath.Join(t.TempDir(), "worker.ckpt")

	r1 := checkpoint.NewRunner(path, "job", 0)
	w1 := NewWorker(WorkerConfig{Checkpoint: r1, Log: discardLog})
	ts1 := httptest.NewServer(w1.Handler())
	defer ts1.Close()

	// A lease far too short for 327k ranks of enum serialization: the worker
	// must give up at the deadline, leaving its progress in the shard table.
	req := ExecRequest{Op: OpEnum, Model: "star:n=5", From: lo, To: hi, LeaseMs: 5}
	deadline := time.Now().Add(10 * time.Second)
	aborted := false
	for time.Now().Before(deadline) {
		if _, status := execShard(t, ts1.URL, req); status == http.StatusGatewayTimeout {
			aborted = true
			break
		}
	}
	if !aborted {
		t.Skip("machine finished a 327k-rank shard inside a 5ms lease; nothing to resume")
	}
	if err := r1.SaveNow(); err != nil {
		t.Fatal(err)
	}

	r2 := checkpoint.NewRunner(path, "job", 0)
	if !r2.LoadForResume() {
		t.Fatal("checkpoint did not load after lease expiry")
	}
	w2 := NewWorker(WorkerConfig{Checkpoint: r2, Log: discardLog})
	ts2 := httptest.NewServer(w2.Handler())
	defer ts2.Close()

	op := opTable[OpEnum]
	want, err := op.Run(context.Background(), m, lo, hi, nil)
	if err != nil {
		t.Fatal(err)
	}
	got, status := execShard(t, ts2.URL, ExecRequest{Op: OpEnum, Model: "star:n=5", From: lo, To: hi})
	if status != http.StatusOK {
		t.Fatalf("resume exec status %d", status)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("post-restart payload differs from cold run (%d vs %d bytes)", len(got), len(want))
	}
}

// TestDistSweepWithCheckpointingWorkersByteIdentity runs a full distributed
// sweep on checkpointing workers: durable execution must be invisible in the
// merged result.
func TestDistSweepWithCheckpointingWorkersByteIdentity(t *testing.T) {
	dir := t.TempDir()
	addrs := make([]string, 2)
	for i := range addrs {
		r := checkpoint.NewRunner(filepath.Join(dir, fmt.Sprintf("w%d.ckpt", i)), "job", 0)
		ts := httptest.NewServer(NewWorker(WorkerConfig{Checkpoint: r, Log: discardLog}).Handler())
		t.Cleanup(ts.Close)
		addrs[i] = strings.TrimPrefix(ts.URL, "http://")
	}
	c := NewCoordinator(testCoordConfig(addrs))
	for _, opName := range []string{OpCount, OpEnum} {
		job := Job{Op: opName, Model: "star:n=4"}
		want, err := RunSequential(context.Background(), job)
		if err != nil {
			t.Fatal(err)
		}
		got, err := c.Run(context.Background(), job)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("%s: sweep over checkpointing workers differs from sequential", opName)
		}
	}
}
