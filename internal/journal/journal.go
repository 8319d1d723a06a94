// Package journal is the one append-only log under every durable journal in
// CSAR: the metadata manager's write-ahead log and, as a Pair, the I/O
// daemons' stripe intent and dirty-region journals. On-disk format,
// little-endian:
//
//	magic (8 B) | frame | frame | ...
//	frame: u32 payload length | u32 CRC32C(payload) | payload
//
// The magic is written in the same WriteAt as the log's first frame, so a
// log with no records is zero bytes, and a file that does not start with it
// — a journal from before this format — is refused with ErrFormat instead of
// being misread. Replay stops at the first short or corrupt frame and
// truncates the file there: a torn tail is the unacknowledged append a crash
// interrupted, and everything before it is intact. A flip in the middle of
// the log also stops replay, so the records after it are dropped with it.
//
// A Pair keeps one journal in two such logs, so that compacting it never
// truncates the only copy of a live record: Compact writes the live set into
// the other log followed by a seal frame, u8 4 | u64 generation (a form no
// owner record may take), and only then empties the log it replaces. Replay
// takes the log with the higher generation; an unsealed log is generation 0.
//
// Payloads are opaque. Owners encode their records, keep their live sets,
// decide when to compact and serialize their calls: a Log is not safe for
// concurrent use.
package journal

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
)

// File is the storage under a Log. *os.File satisfies it.
type File interface {
	ReadAt(p []byte, off int64) (int, error)
	WriteAt(p []byte, off int64) (int, error)
	Truncate(size int64) error
	Sync() error
}

// ErrFormat refuses a non-empty file that does not start with the magic.
var ErrFormat = errors.New("journal: not a framed journal (bad magic)")

const (
	magic     = "CSARJNL1"
	headerLen = 8 // u32 length + u32 CRC32C
)

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// Log is an open journal.
type Log struct {
	f    File
	size int64
}

// Open replays the size-byte log in f, calling each with every whole frame's
// payload in append order (each may keep it), and truncates the file after
// the last whole frame — to zero bytes when none survives. A file that
// starts with a proper prefix of the magic (possibly empty) and then only
// zeros up to the magic's length is a torn first append and opens empty. An
// error from each stops the replay and is returned: a payload whose checksum
// holds is not a torn tail.
func Open(f File, size int64, each func(payload []byte) error) (*Log, error) {
	buf := make([]byte, size)
	if n, err := f.ReadAt(buf, 0); n < len(buf) {
		return nil, fmt.Errorf("journal: reading: %w", err)
	}
	valid, err := replay(buf, each)
	l := &Log{f: f, size: size}
	if err == nil && valid < size {
		err = l.commit(valid, nil, true) // durable before a frame lands after it
	}
	if err != nil {
		return nil, err
	}
	return l, nil
}

// replay calls each for every whole frame of buf and returns the length of
// the valid prefix.
func replay(buf []byte, each func([]byte) error) (int64, error) {
	head := buf[:min(len(buf), len(magic))]
	if !bytes.Equal(head, []byte(magic)[:len(head)]) {
		// A torn first append leaves a prefix of the magic, then at most
		// zeros the write never filled.
		i := 0
		for head[i] == magic[i] {
			i++
		}
		if bytes.Count(head[i:], []byte{0}) != len(head)-i {
			return 0, ErrFormat
		}
		return 0, nil
	}
	valid := 0
	for off := len(magic); len(buf)-off >= headerLen; {
		// The length is bounded by the bytes left before it becomes an int,
		// which on 32-bit platforms a flipped high bit would make negative.
		// An empty frame is never written: a zero-filled tail would
		// otherwise pass, since the CRC32C of nothing is zero.
		n := binary.LittleEndian.Uint32(buf[off:])
		if n == 0 || uint64(n) > uint64(len(buf)-off-headerLen) {
			break
		}
		end := off + headerLen + int(n)
		payload := buf[off+headerLen : end]
		if crc32.Checksum(payload, castagnoli) != binary.LittleEndian.Uint32(buf[off+4:]) {
			break
		}
		if err := each(payload); err != nil {
			return 0, fmt.Errorf("journal: record at offset %d: %w", off, err)
		}
		off, valid = end, end
	}
	return int64(valid), nil
}

// frames encodes payloads as frames, after the magic when they start the
// log. An empty payload is a bug in its owner, and panics.
func frames(first bool, payloads [][]byte) []byte {
	n := len(magic)
	for _, p := range payloads {
		n += headerLen + len(p)
	}
	buf := make([]byte, 0, n)
	if first {
		buf = append(buf, magic...)
	}
	for _, p := range payloads {
		if len(p) == 0 {
			panic("journal: empty payload")
		}
		buf = binary.LittleEndian.AppendUint32(buf, uint32(len(p)))
		buf = binary.LittleEndian.AppendUint32(buf, crc32.Checksum(p, castagnoli))
		buf = append(buf, p...)
	}
	return buf
}

// Append durably appends one frame per payload: one WriteAt, then one Sync.
// Appending nothing does nothing.
func (l *Log) Append(payloads ...[]byte) error {
	if len(payloads) == 0 {
		return nil
	}
	return l.commit(l.size, frames(l.size == 0, payloads), true)
}

// AppendUnsynced appends like Append but leaves out the Sync: the frames
// become durable with the next synced append, rewrite or compaction, and a
// crash before that may drop them. It is for records whose loss is safe —
// the owner must be able to replay the log as if they were never written.
func (l *Log) AppendUnsynced(payloads ...[]byte) error {
	if len(payloads) == 0 {
		return nil
	}
	return l.commit(l.size, frames(l.size == 0, payloads), false)
}

// Rewrite compacts the log to one frame per payload; with no payloads the
// log becomes zero bytes, synced even if it was. It truncates before it
// writes, so a crash between the two leaves an empty log: its callers are
// the manager WAL after a snapshot save and a Pair's non-current log.
func (l *Log) Rewrite(payloads ...[]byte) error {
	var buf []byte
	if len(payloads) > 0 {
		buf = frames(true, payloads)
	}
	return l.commit(0, buf, true)
}

// commit makes the log its first at bytes followed by buf, and syncs it when
// sync is set: it truncates the file to at unless the log ends there, then
// writes buf. After a failed write the log still ends at at, so the next
// commit overwrites whatever part of buf landed; after a failed sync buf
// stays in the log.
func (l *Log) commit(at int64, buf []byte, sync bool) error {
	if at != l.size {
		if err := l.f.Truncate(at); err != nil {
			return fmt.Errorf("journal: truncating: %w", err)
		}
	}
	l.size = at
	if len(buf) > 0 {
		if _, err := l.f.WriteAt(buf, at); err != nil {
			return fmt.Errorf("journal: writing: %w", err)
		}
		l.size += int64(len(buf))
	}
	if !sync {
		return nil
	}
	if err := l.f.Sync(); err != nil {
		return fmt.Errorf("journal: syncing: %w", err)
	}
	return nil
}

// Size returns the log's length in bytes: zero when it holds no records.
func (l *Log) Size() int64 { return l.size }
