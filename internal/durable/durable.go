// Package durable owns the on-disk framing every persistent file of the
// project shares: memo snapshots, engine checkpoints and the distributed
// shard journal. Integers are uvarints, byte strings are uvarint
// length-prefixed, and every record ends in a 4-byte little-endian IEEE
// CRC32 trailer, so torn writes and bit rot are detected at load instead of
// deserialized into live state. Whole files are replaced atomically
// (WriteFileAtomic); every integrity failure is a *CorruptError matching
// ErrCorrupt, which callers treat as "warn and start cold", never as fatal.
package durable

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"

	"ksettop/internal/faultinject"
)

// ErrCorrupt is the sentinel every integrity failure of a durable file —
// truncation, checksum mismatch, foreign bytes, trailing bytes — matches
// under errors.Is.
var ErrCorrupt = errors.New("durable: corrupt file")

// CorruptError reports a durable file that failed validation.
type CorruptError struct {
	Path    string // the file that failed
	Section string // the section being read, if the failure was localized
	Reason  string // what failed
}

func (e *CorruptError) Error() string {
	if e.Section != "" {
		return fmt.Sprintf("durable: corrupt file %s (section %q): %s", e.Path, e.Section, e.Reason)
	}
	return fmt.Sprintf("durable: corrupt file %s: %s", e.Path, e.Reason)
}

// Is matches ErrCorrupt.
func (e *CorruptError) Is(target error) bool { return target == ErrCorrupt }

func corruptf(path, section, format string, args ...any) error {
	return &CorruptError{Path: path, Section: section, Reason: fmt.Sprintf(format, args...)}
}

// WriteUvarint appends v to buf as a uvarint — the framing primitive shared
// by the file formats and the section payload codecs.
func WriteUvarint(buf *bytes.Buffer, v uint64) {
	var tmp [binary.MaxVarintLen64]byte
	buf.Write(tmp[:binary.PutUvarint(tmp[:], v)])
}

// ReadLengthPrefixed reads a uvarint length followed by that many bytes,
// rejecting lengths beyond the remaining input before allocating.
func ReadLengthPrefixed(r *bytes.Reader) ([]byte, error) {
	n, err := binary.ReadUvarint(r)
	if err != nil {
		return nil, err
	}
	if n > uint64(r.Len()) {
		return nil, fmt.Errorf("length %d exceeds remaining %d bytes", n, r.Len())
	}
	out := make([]byte, n)
	if _, err := io.ReadFull(r, out); err != nil {
		return nil, err
	}
	return out, nil
}

// WriteCRC appends the CRC32 trailer of a record: IEEE CRC32 over the
// concatenation of parts, 4 bytes little-endian.
func WriteCRC(buf *bytes.Buffer, parts ...[]byte) {
	var crc [4]byte
	binary.LittleEndian.PutUint32(crc[:], checksum(parts))
	buf.Write(crc[:])
}

// CheckCRC reads a record's CRC32 trailer from r and verifies it against
// parts.
func CheckCRC(r *bytes.Reader, parts ...[]byte) error {
	var crc [4]byte
	if _, err := io.ReadFull(r, crc[:]); err != nil {
		return fmt.Errorf("checksum: %w", err)
	}
	if got, want := checksum(parts), binary.LittleEndian.Uint32(crc[:]); got != want {
		return fmt.Errorf("checksum mismatch (computed %08x, stored %08x)", got, want)
	}
	return nil
}

func checksum(parts [][]byte) uint32 {
	var crc uint32
	for _, p := range parts {
		crc = crc32.Update(crc, crc32.IEEETable, p)
	}
	return crc
}

// Section is one named payload of a section-list file.
type Section struct {
	Name    string
	Payload []byte
}

// Format is one durable file layout: Magic (the file type's name plus a
// trailing version byte that bumps on incompatible changes), then, for a
// Keyed format, the length-prefixed key of the job the file belongs to.
// Section-list files (Encode/Decode) continue with the section count and
// the sections, each a length-prefixed name, a length-prefixed payload and
// the CRC32 trailer over name and payload; nothing may follow the last one.
type Format struct {
	Magic []byte
	Keyed bool
}

// WriteHeader appends the magic and, for a keyed format, key.
func (f Format) WriteHeader(buf *bytes.Buffer, key string) {
	buf.Write(f.Magic)
	if f.Keyed {
		WriteUvarint(buf, uint64(len(key)))
		buf.WriteString(key)
	}
}

// ReadHeader checks the magic of data and reads the key of a keyed format,
// returning a reader positioned after the header. Failures are
// *CorruptErrors naming path.
func (f Format) ReadHeader(path string, data []byte) (string, *bytes.Reader, error) {
	if !bytes.HasPrefix(data, f.Magic) {
		return "", nil, corruptf(path, "", "magic is not %q", f.Magic)
	}
	r := bytes.NewReader(data[len(f.Magic):])
	if !f.Keyed {
		return "", r, nil
	}
	key, err := ReadLengthPrefixed(r)
	if err != nil {
		return "", nil, corruptf(path, "", "job key: %v", err)
	}
	return string(key), r, nil
}

// Encode renders a section-list file.
func (f Format) Encode(key string, secs []Section) []byte {
	var buf bytes.Buffer
	f.WriteHeader(&buf, key)
	WriteUvarint(&buf, uint64(len(secs)))
	for _, s := range secs {
		WriteUvarint(&buf, uint64(len(s.Name)))
		buf.WriteString(s.Name)
		WriteUvarint(&buf, uint64(len(s.Payload)))
		buf.Write(s.Payload)
		WriteCRC(&buf, []byte(s.Name), s.Payload)
	}
	return buf.Bytes()
}

// Decode parses a section-list file, verifying every section checksum
// before returning anything, so a torn or rotted file never half-loads.
// path only labels errors; every failure is a *CorruptError.
func (f Format) Decode(path string, data []byte) (string, []Section, error) {
	key, r, err := f.ReadHeader(path, data)
	if err != nil {
		return "", nil, err
	}
	count, err := binary.ReadUvarint(r)
	if err != nil {
		return "", nil, corruptf(path, "", "section count: %v", err)
	}
	// Each section occupies at least 6 bytes (two length prefixes and the
	// CRC), so a larger count is corruption: reject it before it sizes an
	// allocation.
	if count > uint64(r.Len())/6 {
		return "", nil, corruptf(path, "", "section count %d exceeds remaining %d bytes", count, r.Len())
	}
	secs := make([]Section, 0, count)
	for i := uint64(0); i < count; i++ {
		name, err := ReadLengthPrefixed(r)
		if err != nil {
			return "", nil, corruptf(path, "", "section %d name: %v", i, err)
		}
		payload, err := ReadLengthPrefixed(r)
		if err != nil {
			return "", nil, corruptf(path, string(name), "payload: %v", err)
		}
		if err := CheckCRC(r, name, payload); err != nil {
			return "", nil, corruptf(path, string(name), "%v", err)
		}
		secs = append(secs, Section{Name: string(name), Payload: payload})
	}
	if r.Len() != 0 {
		// A damaged section count would otherwise drop the sections past it.
		return "", nil, corruptf(path, "", "%d trailing bytes", r.Len())
	}
	return key, secs, nil
}

// WriteFileAtomic replaces path with data durably: data goes to a temp file
// in the same directory, which is fsynced, closed and renamed over path, so
// a crash at any point leaves either the previous file or the complete new
// one — never a zero-length or torn one. syncPoint is the faultinject point
// hit just before the fsync; an armed error there models a failed fsync.
// On failure the temp file is removed.
func WriteFileAtomic(path string, data []byte, syncPoint string) error {
	tmp, err := os.CreateTemp(filepath.Dir(path), "."+filepath.Base(path)+".tmp-*")
	if err != nil {
		return err
	}
	_, err = tmp.Write(data)
	if err == nil {
		if err = faultinject.Hit(syncPoint); err != nil {
			err = fmt.Errorf("fsync %s: %w", path, err)
		}
	}
	if err == nil {
		err = tmp.Sync()
	}
	if cerr := tmp.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(tmp.Name(), path)
	}
	if err != nil {
		os.Remove(tmp.Name())
	}
	return err
}
