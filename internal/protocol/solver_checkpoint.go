package protocol

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"io"

	"ksettop/internal/durable"
)

// This file is the durability layer of the parallel engine: it serializes
// the sweep's schedule-free progress — probe/decomposition node counters,
// the frozen shared clause store, the completed task records and the open
// frontier of value-branch prefixes — into a checkpoint section, and
// restores a later run from it.
//
// Why this is sufficient for byte-identical resume: every task's outcome is
// a pure function of the frozen store and its decision prefix (determinism
// point 3 in solver_parallel.go), so re-running the saved frontier against
// the restored store reproduces exactly the records the interrupted run
// would have produced, and the rank-ordered reduction then consumes an
// identical record sequence. Cancelled records are deliberately NOT saved —
// cancellation timing is schedule-dependent — their tasks stay on the
// frontier and re-run to their deterministic conclusion instead.

// kindSolverFrontier is the checkpoint section kind of the solver sweep.
const kindSolverFrontier = "solver.frontier"

const solverCkptVersion = 1

// solverFingerprint identifies the exact search workload: the flat tables'
// content plus every knob that participates in the deterministic node
// accounting. A checkpoint section only resumes into a run with an equal
// fingerprint; anything else recomputes cold.
func solverFingerprint(t *solveTables, budget int) uint64 {
	h := fnv.New64a()
	io.WriteString(h, "solver.frontier.v1")
	var b [8]byte
	wu := func(v uint64) {
		binary.LittleEndian.PutUint64(b[:], v)
		h.Write(b[:])
	}
	wu(uint64(t.k))
	wu(uint64(t.numValues))
	wu(uint64(len(t.views)))
	wu(uint64(t.numCons()))
	wu(uint64(budget))
	wu(uint64(probeLimit()))
	for _, d := range t.initDomains {
		binary.LittleEndian.PutUint16(b[:2], d)
		h.Write(b[:2])
	}
	for _, v := range t.valueOrder {
		wu(uint64(v))
	}
	hashInt32s(h, t.veStarts)
	hashInt32s(h, t.veData)
	return h.Sum64()
}

// hashInt32s streams an int32 slice into h in 1k-element chunks (the
// constraint transpose can run to millions of entries; per-element Write
// calls would dominate the fingerprint cost).
func hashInt32s(h io.Writer, xs []int32) {
	var buf [4096]byte
	for len(xs) > 0 {
		n := len(xs)
		if n > len(buf)/4 {
			n = len(buf) / 4
		}
		for i := 0; i < n; i++ {
			binary.LittleEndian.PutUint32(buf[i*4:], uint32(xs[i]))
		}
		h.Write(buf[:n*4])
		xs = xs[n:]
	}
}

// solverCkptState is a decoded solver checkpoint, ready to seed a sweep.
type solverCkptState struct {
	probeNodes  int
	prefixNodes int
	shared      *nogoodStore
	records     []taskRecord
	frontier    []searchTask
}

// encodeSharedStore serializes the frozen shared clause store as a flat
// clause list. The store's occurrence index and hasAny filter are derived
// structures, rebuilt clause-by-clause on restore.
func encodeSharedStore(ng *nogoodStore) []byte {
	var buf bytes.Buffer
	durable.WriteUvarint(&buf, uint64(ng.count()))
	for c := int32(0); c < int32(ng.count()); c++ {
		keys := ng.clause(c)
		durable.WriteUvarint(&buf, uint64(len(keys)))
		for _, key := range keys {
			durable.WriteUvarint(&buf, uint64(key))
		}
	}
	return buf.Bytes()
}

// decodeSharedStore rebuilds the frozen store by replaying the clause list
// through add() against the store's bounds; a clause the store rejects
// means the checkpoint was written under different bounds than the
// fingerprint admitted — corrupt by construction.
func decodeSharedStore(r *bytes.Reader, numViews, numValues int) (*nogoodStore, error) {
	count, err := binary.ReadUvarint(r)
	if err != nil {
		return nil, fmt.Errorf("clause count: %w", err)
	}
	ng := newNogoodStore(numViews, numValues, maxSharedNogoods)
	maxKey := uint64(numViews) * uint64(numValues)
	keys := make([]int32, 0, maxNogoodLen)
	for c := uint64(0); c < count; c++ {
		n, err := binary.ReadUvarint(r)
		if err != nil {
			return nil, fmt.Errorf("clause %d length: %w", c, err)
		}
		if n == 0 || n > maxNogoodLen {
			return nil, fmt.Errorf("clause %d length %d out of range", c, n)
		}
		keys = keys[:0]
		for i := uint64(0); i < n; i++ {
			key, err := binary.ReadUvarint(r)
			if err != nil {
				return nil, fmt.Errorf("clause %d literal %d: %w", c, i, err)
			}
			if key >= maxKey {
				return nil, fmt.Errorf("clause %d literal %d out of range", c, key)
			}
			keys = append(keys, int32(key))
		}
		if !ng.add(keys) {
			return nil, fmt.Errorf("clause %d rejected by store bounds", c)
		}
	}
	return ng, nil
}

// encodeCheckpoint captures the sweep's current durable state under pr.mu.
// sharedBytes is the (immutable, frozen) store serialized once up front so
// periodic captures don't re-encode it.
func (pr *parallelRun) encodeCheckpoint(probeNodes, prefixNodes int, sharedBytes []byte) []byte {
	var buf bytes.Buffer
	buf.WriteByte(solverCkptVersion)
	durable.WriteUvarint(&buf, uint64(probeNodes))
	durable.WriteUvarint(&buf, uint64(prefixNodes))
	buf.Write(sharedBytes)

	pr.mu.Lock()
	defer pr.mu.Unlock()
	kept := 0
	for _, r := range pr.records {
		if r.status != taskCancelled {
			kept++
		}
	}
	durable.WriteUvarint(&buf, uint64(kept))
	for _, r := range pr.records {
		if r.status == taskCancelled {
			continue
		}
		durable.WriteUvarint(&buf, uint64(len(r.path)))
		buf.Write(r.path)
		buf.WriteByte(byte(r.status))
		durable.WriteUvarint(&buf, uint64(r.nodes))
		durable.WriteUvarint(&buf, uint64(r.learned))
		durable.WriteUvarint(&buf, uint64(len(r.decided)))
		for _, v := range r.decided {
			durable.WriteUvarint(&buf, uint64(v+1)) // NoValue (-1) -> 0
		}
	}
	durable.WriteUvarint(&buf, uint64(len(pr.frontier)))
	for _, task := range pr.frontierSorted() {
		durable.WriteUvarint(&buf, uint64(len(task.path)))
		buf.Write(task.path)
		durable.WriteUvarint(&buf, uint64(len(task.decisions)))
		for _, d := range task.decisions {
			durable.WriteUvarint(&buf, uint64(d))
		}
	}
	return buf.Bytes()
}

// decodeSolverCheckpoint parses a checkpoint section against the live
// tables, validating every index range so even a fingerprint-colliding
// foreign payload fails cleanly into a cold start.
func decodeSolverCheckpoint(payload []byte, t *solveTables) (*solverCkptState, error) {
	r := bytes.NewReader(payload)
	ver, err := r.ReadByte()
	if err != nil {
		return nil, fmt.Errorf("version: %w", err)
	}
	if ver != solverCkptVersion {
		return nil, fmt.Errorf("version %d, want %d", ver, solverCkptVersion)
	}
	st := &solverCkptState{}
	probeNodes, err := binary.ReadUvarint(r)
	if err != nil {
		return nil, fmt.Errorf("probe nodes: %w", err)
	}
	prefixNodes, err := binary.ReadUvarint(r)
	if err != nil {
		return nil, fmt.Errorf("prefix nodes: %w", err)
	}
	st.probeNodes, st.prefixNodes = int(probeNodes), int(prefixNodes)
	st.shared, err = decodeSharedStore(r, len(t.views), t.numValues)
	if err != nil {
		return nil, err
	}
	readPath := func(label string, i uint64) ([]uint8, error) {
		n, err := binary.ReadUvarint(r)
		if err != nil {
			return nil, fmt.Errorf("%s %d path length: %w", label, i, err)
		}
		if n > 4096 {
			return nil, fmt.Errorf("%s %d path length %d out of range", label, i, n)
		}
		path := make([]uint8, n)
		if _, err := io.ReadFull(r, path); err != nil {
			return nil, fmt.Errorf("%s %d path: %w", label, i, err)
		}
		for _, p := range path {
			if int(p) >= t.numValues {
				return nil, fmt.Errorf("%s %d path element %d out of range", label, i, p)
			}
		}
		return path, nil
	}
	recCount, err := binary.ReadUvarint(r)
	if err != nil {
		return nil, fmt.Errorf("record count: %w", err)
	}
	st.records = make([]taskRecord, 0, recCount)
	for i := uint64(0); i < recCount; i++ {
		var rec taskRecord
		if rec.path, err = readPath("record", i); err != nil {
			return nil, err
		}
		status, err := r.ReadByte()
		if err != nil {
			return nil, fmt.Errorf("record %d status: %w", i, err)
		}
		rec.status = taskStatus(status)
		if rec.status != taskCompleted && rec.status != taskWitness && rec.status != taskBudget {
			return nil, fmt.Errorf("record %d status %d not durable", i, status)
		}
		nodes, err := binary.ReadUvarint(r)
		if err != nil {
			return nil, fmt.Errorf("record %d nodes: %w", i, err)
		}
		learned, err := binary.ReadUvarint(r)
		if err != nil {
			return nil, fmt.Errorf("record %d learned: %w", i, err)
		}
		rec.nodes, rec.learned = int(nodes), int(learned)
		decCount, err := binary.ReadUvarint(r)
		if err != nil {
			return nil, fmt.Errorf("record %d decided count: %w", i, err)
		}
		if decCount > 0 {
			if decCount != uint64(len(t.views)) {
				return nil, fmt.Errorf("record %d decided count %d, want %d", i, decCount, len(t.views))
			}
			rec.decided = make([]Value, decCount)
			for j := uint64(0); j < decCount; j++ {
				v, err := binary.ReadUvarint(r)
				if err != nil {
					return nil, fmt.Errorf("record %d decided %d: %w", i, j, err)
				}
				if v > uint64(t.numValues) {
					return nil, fmt.Errorf("record %d decided value %d out of range", i, v)
				}
				rec.decided[j] = Value(v) - 1
			}
		}
		st.records = append(st.records, rec)
	}
	taskCount, err := binary.ReadUvarint(r)
	if err != nil {
		return nil, fmt.Errorf("frontier count: %w", err)
	}
	maxKey := uint64(len(t.views)) * uint64(t.numValues)
	st.frontier = make([]searchTask, 0, taskCount)
	for i := uint64(0); i < taskCount; i++ {
		var task searchTask
		if task.path, err = readPath("frontier task", i); err != nil {
			return nil, err
		}
		decCount, err := binary.ReadUvarint(r)
		if err != nil {
			return nil, fmt.Errorf("frontier task %d decision count: %w", i, err)
		}
		if decCount > 4096 {
			return nil, fmt.Errorf("frontier task %d decision count %d out of range", i, decCount)
		}
		task.decisions = make([]int32, decCount)
		for j := uint64(0); j < decCount; j++ {
			key, err := binary.ReadUvarint(r)
			if err != nil {
				return nil, fmt.Errorf("frontier task %d decision %d: %w", i, j, err)
			}
			if key >= maxKey {
				return nil, fmt.Errorf("frontier task %d decision %d out of range", i, key)
			}
			task.decisions[j] = int32(key)
		}
		st.frontier = append(st.frontier, task)
	}
	if r.Len() != 0 {
		return nil, fmt.Errorf("%d trailing bytes", r.Len())
	}
	return st, nil
}
