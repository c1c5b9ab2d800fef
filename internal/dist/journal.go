package dist

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"os"

	"ksettop/internal/durable"
	"ksettop/internal/faultinject"
)

// The shard journal is the coordinator's crash-recovery log: an append-only
// file of committed shard results in the internal/durable framing — a keyed
// header naming the sweep, then one record per commit, each a uvarint shard
// index, a length-prefixed payload and a CRC32 trailer over both. A
// coordinator killed mid-sweep reopens the journal on restart, replays the
// committed prefix, and resumes dispatching only the missing shards — the
// merged output is byte-identical to an uninterrupted run because the merge
// consumes results in shard-index order regardless of commit order.
//
// Torn writes are the expected failure mode of a killed coordinator, so
// loading is forgiving by construction: the committed prefix up to the first
// damaged record is kept and the file is truncated back to the last good
// byte, while a journal whose header names a DIFFERENT job (or a foreign
// file) is reset — resuming someone else's sweep would corrupt results.

// journalFormat is the journal header: magic, then the sweep's job key.
var journalFormat = durable.Format{Magic: []byte("ksetdistj\x01"), Keyed: true}

// Journal is an open shard journal positioned for appends.
type Journal struct {
	path string
	f    *os.File
}

// OpenJournal opens (or creates) the journal at path for the job identified
// by jobKey and returns the shard results already committed. A missing or
// empty file starts a fresh journal; a journal for a different job or with
// an unreadable header is reset to fresh (reported via resumed=false); a
// journal with a torn or corrupt tail keeps its good prefix and truncates
// the damage away. resumed reports whether any committed shards were
// recovered.
func OpenJournal(path, jobKey string) (j *Journal, commits map[int][]byte, resumed bool, err error) {
	commits = make(map[int][]byte)
	data, err := os.ReadFile(path)
	if err != nil && !os.IsNotExist(err) {
		return nil, nil, false, fmt.Errorf("dist: journal: %w", err)
	}
	faultinject.Corrupt(faultinject.PointDistJournal, data)

	goodEnd, fresh := 0, true
	if len(data) > 0 {
		end, ok := parseJournal(data, jobKey, commits)
		if ok {
			goodEnd, fresh = end, false
		} else {
			// Foreign file or another job's sweep: reset. Never resume it.
			commits = make(map[int][]byte)
		}
	}

	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, nil, false, fmt.Errorf("dist: journal: %w", err)
	}
	if fresh {
		var buf bytes.Buffer
		journalFormat.WriteHeader(&buf, jobKey)
		if err := f.Truncate(0); err == nil {
			_, err = f.WriteAt(buf.Bytes(), 0)
		}
		if err != nil {
			f.Close()
			return nil, nil, false, fmt.Errorf("dist: journal: %w", err)
		}
		goodEnd = buf.Len()
	} else if goodEnd < len(data) {
		// Torn tail from the previous crash: drop it so appends stay framed.
		if err := f.Truncate(int64(goodEnd)); err != nil {
			f.Close()
			return nil, nil, false, fmt.Errorf("dist: journal: %w", err)
		}
	}
	if _, err := f.Seek(int64(goodEnd), io.SeekStart); err != nil {
		f.Close()
		return nil, nil, false, fmt.Errorf("dist: journal: %w", err)
	}
	return &Journal{path: path, f: f}, commits, len(commits) > 0, nil
}

// parseJournal validates the header against jobKey and reads records into
// commits, returning the byte offset after the last intact record and
// whether the header matched. A damaged record stops the scan (its offset is
// the truncation point); a damaged header reports ok=false.
func parseJournal(data []byte, jobKey string, commits map[int][]byte) (end int, ok bool) {
	key, r, err := journalFormat.ReadHeader("", data)
	if err != nil || key != jobKey {
		return 0, false
	}
	total := len(data)
	end = total - r.Len()
	for r.Len() > 0 {
		shard, err := binary.ReadUvarint(r)
		if err != nil {
			return end, true
		}
		payload, err := durable.ReadLengthPrefixed(r)
		if err != nil {
			return end, true
		}
		if durable.CheckCRC(r, binary.AppendUvarint(nil, shard), payload) != nil {
			return end, true
		}
		commits[int(shard)] = payload
		end = total - r.Len()
	}
	return end, true
}

// Append durably commits one shard result: a single buffered write followed
// by fsync, so a record is either wholly present or (after a crash)
// truncated away on the next open.
func (j *Journal) Append(shard int, payload []byte) error {
	tag := binary.AppendUvarint(nil, uint64(shard))
	var buf bytes.Buffer
	buf.Write(tag)
	durable.WriteUvarint(&buf, uint64(len(payload)))
	buf.Write(payload)
	durable.WriteCRC(&buf, tag, payload)
	if _, err := j.f.Write(buf.Bytes()); err != nil {
		return fmt.Errorf("dist: journal append: %w", err)
	}
	if err := j.f.Sync(); err != nil {
		return fmt.Errorf("dist: journal sync: %w", err)
	}
	return nil
}

// Close closes the journal file.
func (j *Journal) Close() error { return j.f.Close() }

// Remove deletes the journal from disk — called after a sweep completes and
// its result has been handed to the caller; the next sweep starts fresh.
func (j *Journal) Remove() error {
	j.f.Close()
	return os.Remove(j.path)
}
