// The manager's write-ahead operation log. Every metadata mutation is
// encoded as one record, CRC-framed, appended and fsynced before the
// mutation is acknowledged — so a crash loses at most an unacknowledged
// tail, never an acknowledged operation. The same record encoding rides
// MetaReplicate frames to standby managers: the log is the replication
// stream, persisted.
//
// On-disk frame format, little-endian:
//
//	u32 payload length | u32 CRC32C(payload) | payload
//
// Record payload format (wire.Codec conventions):
//
//	u8 op | u64 epoch | u64 seq | op-specific fields
//
// Recovery scans frames from the start and truncates the file at the first
// incomplete or corrupt frame (the torn tail a crash mid-append leaves), so
// replay always sees a valid prefix of acknowledged operations. Compaction
// rewrites the snapshot (which records the sequence number it covers) and
// atomically replaces the log with an empty one; replay skips records the
// snapshot already covers, so a crash between the two steps is harmless.

package meta

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"os"

	"csar/internal/wire"
)

// WAL operation kinds. Appended only — old logs must replay forever.
const (
	opCreate uint8 = iota + 1
	opSetSize
	opRemove
	// opEpoch records a primary-epoch bump (a promotion). It mutates no
	// files but must be durable: a restarted manager may never again accept
	// an epoch older than one it acknowledged.
	opEpoch
	// Online scheme migration: opMigBegin pins a shadow layout (a fresh
	// file ID carrying the target scheme) next to the file's live ref,
	// opMigCommit atomically swaps the ref for the shadow, opMigAbort drops
	// the pin. Commit and abort carry the shadow ID as a fence so a stale
	// coordinator cannot conclude someone else's migration.
	opMigBegin
	opMigCommit
	opMigAbort
)

// walRec is one logged metadata operation. Only the fields of its op kind
// are meaningful.
type walRec struct {
	op    uint8
	epoch uint64
	seq   uint64

	name  string       // opCreate, opRemove
	ref   wire.FileRef // opCreate; opMigBegin (the shadow layout)
	id    uint64       // opSetSize; opMig* (the file's live ID)
	size  int64        // opSetSize
	newID uint64       // opMigCommit, opMigAbort (shadow-ID fence)
}

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// codec reads or writes a record payload (the part that is CRC-protected on
// disk and shipped verbatim in MetaReplicate.Rec): the header, then the
// fields of its op kind. An unknown op kind fails the decode: a CRC-valid
// record cannot be corrupt, so either the peer speaks a newer protocol or
// the bytes did not come from this codec.
func (rec *walRec) codec(c *wire.Codec) {
	c.U8(&rec.op)
	c.U64(&rec.epoch)
	c.U64(&rec.seq)
	switch rec.op {
	case opCreate:
		c.Str(&rec.name)
		c.FileRef(&rec.ref)
	case opSetSize:
		c.U64(&rec.id)
		c.I64(&rec.size)
	case opRemove:
		c.Str(&rec.name)
	case opEpoch:
	case opMigBegin:
		c.U64(&rec.id)
		c.FileRef(&rec.ref)
	case opMigCommit, opMigAbort:
		c.U64(&rec.id)
		c.U64(&rec.newID)
	default:
		c.Fail(fmt.Errorf("meta: unknown wal op %d", rec.op))
	}
}

// encodeRec serializes a record payload.
func encodeRec(rec walRec) []byte {
	c := wire.Encoding(make([]byte, 0, 64))
	rec.codec(&c)
	return c.Buf
}

// decodeRec parses a record payload.
func decodeRec(b []byte) (walRec, error) {
	var rec walRec
	c := wire.Decoding(b)
	if rec.codec(&c); c.Err() != nil {
		return rec, fmt.Errorf("meta: bad wal record: %w", c.Err())
	}
	return rec, nil
}

// wal is the open write-ahead log file. All methods are called with the
// owning Manager's commit path serialized, so it needs no lock of its own.
type wal struct {
	path string
	f    *os.File
	size int64
}

const walFrameHeader = 8 // u32 length + u32 CRC32C

// openWAL opens (creating if absent) the log at path, replays its valid
// prefix, and truncates any torn tail so the next append lands on a clean
// frame boundary. The returned records are in append order.
func openWAL(path string) (*wal, []walRec, error) {
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, nil, fmt.Errorf("meta: opening wal: %w", err)
	}
	data, err := io.ReadAll(f)
	if err != nil {
		f.Close()
		return nil, nil, fmt.Errorf("meta: reading wal: %w", err)
	}

	var recs []walRec
	valid := 0 // byte offset of the end of the last valid frame
	for off := 0; ; {
		if len(data)-off < walFrameHeader {
			break
		}
		n := int(binary.LittleEndian.Uint32(data[off:]))
		sum := binary.LittleEndian.Uint32(data[off+4:])
		if n < 0 || off+walFrameHeader+n > len(data) {
			break // frame extends past EOF: torn tail
		}
		payload := data[off+walFrameHeader : off+walFrameHeader+n]
		if crc32.Checksum(payload, castagnoli) != sum {
			break // bit rot or a torn header: stop at the last good record
		}
		rec, err := decodeRec(payload)
		if err != nil {
			break // CRC-valid but unparseable: treat like a torn tail
		}
		recs = append(recs, rec)
		off += walFrameHeader + n
		valid = off
	}

	if valid < len(data) {
		// Drop the torn tail so the next append starts a clean frame. The
		// truncation must be durable before any new record lands after it.
		if err := f.Truncate(int64(valid)); err != nil {
			f.Close()
			return nil, nil, fmt.Errorf("meta: truncating torn wal tail: %w", err)
		}
		if err := f.Sync(); err != nil {
			f.Close()
			return nil, nil, fmt.Errorf("meta: syncing wal truncation: %w", err)
		}
	}
	if _, err := f.Seek(int64(valid), io.SeekStart); err != nil {
		f.Close()
		return nil, nil, fmt.Errorf("meta: seeking wal: %w", err)
	}
	return &wal{path: path, f: f, size: int64(valid)}, recs, nil
}

// append frames, writes and fsyncs one record. On any error the log file's
// state is unknown, but the frame CRC makes a partial write indistinguishable
// from a crash: recovery truncates it.
func (w *wal) append(rec walRec) error {
	payload := encodeRec(rec)
	frame := make([]byte, walFrameHeader, walFrameHeader+len(payload))
	binary.LittleEndian.PutUint32(frame, uint32(len(payload)))
	binary.LittleEndian.PutUint32(frame[4:], crc32.Checksum(payload, castagnoli))
	frame = append(frame, payload...)
	if _, err := w.f.Write(frame); err != nil {
		return fmt.Errorf("meta: appending wal record: %w", err)
	}
	if err := w.f.Sync(); err != nil {
		return fmt.Errorf("meta: syncing wal append: %w", err)
	}
	w.size += int64(len(frame))
	return nil
}

// reset atomically replaces the log with an empty one — the compaction step
// after the snapshot has durably recorded everything the log held. A fresh
// empty file is fsynced and renamed over the log, and the directory entry
// itself is fsynced (a rename alone does not survive a power cut on most
// filesystems), so a crash anywhere leaves either the full old log or a
// clean empty one.
func (w *wal) reset() error {
	tmp := w.path + ".tmp"
	tf, err := os.OpenFile(tmp, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return fmt.Errorf("meta: creating wal replacement: %w", err)
	}
	if err := tf.Sync(); err != nil {
		tf.Close()
		return fmt.Errorf("meta: syncing wal replacement: %w", err)
	}
	if err := tf.Close(); err != nil {
		return fmt.Errorf("meta: closing wal replacement: %w", err)
	}
	if err := os.Rename(tmp, w.path); err != nil {
		return fmt.Errorf("meta: renaming wal replacement: %w", err)
	}
	if err := syncDir(w.path); err != nil {
		return fmt.Errorf("meta: syncing wal rename: %w", err)
	}
	// The old inode stays open in w.f; reopen the new one for appends.
	f, err := os.OpenFile(w.path, os.O_RDWR|os.O_APPEND, 0o644)
	if err != nil {
		return fmt.Errorf("meta: reopening wal: %w", err)
	}
	w.f.Close()
	w.f = f
	w.size = 0
	return nil
}

// Close releases the log file handle.
func (w *wal) Close() error { return w.f.Close() }
