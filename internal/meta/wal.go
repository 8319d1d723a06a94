// The manager's write-ahead operation log. Every metadata mutation is
// encoded as one record, appended to an internal/journal log and fsynced
// before the mutation is acknowledged — so a crash loses at most an
// unacknowledged tail, never an acknowledged operation. The same record
// bytes ride MetaReplicate frames to standby managers: the log is the
// replication stream, persisted.
//
// Record payload format (wire.Codec conventions):
//
//	u8 op | u64 epoch | u64 seq | op-specific fields
//
// The log is a journal.Pair. A compaction writes the live state as records
// into the pair's other log, sealed, in one write: an opState record (epoch,
// seq, next file ID), then one opFile record per file. So the pair always
// replays either the old log or the new one, and a sealed log holds no
// record its state already covers. The same state records, as a
// journal.Image, are the snapshot a lagging standby is sent, which it
// installs by the same sealed write.

package meta

import (
	"fmt"

	"csar/internal/journal"
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
	// The state records a compaction writes and a snapshot carries:
	// opState sets epoch, seq and the next file ID; opFile sets one file
	// whole — name, ref, size and migration pin.
	opState
	opFile
)

// stateRecLen and fileRecLen are what an opState record and an opFile
// record less its name's bytes take in a compacted log, frame included.
var (
	stateRecLen = journal.FrameHeader + int64(len(encodeRec(walRec{op: opState})))
	fileRecLen  = journal.FrameHeader + int64(len(encodeRec(walRec{op: opFile})))
)

// walRec is one logged metadata operation. Only the fields of its op kind
// are meaningful.
type walRec struct {
	op    uint8
	epoch uint64
	seq   uint64

	name   string       // opCreate, opRemove, opFile
	ref    wire.FileRef // opCreate, opFile; opMigBegin (the shadow layout)
	id     uint64       // opSetSize; opMig* (the file's live ID)
	size   int64        // opSetSize, opFile
	newID  uint64       // opMigCommit, opMigAbort (shadow-ID fence)
	mig    wire.FileRef // opFile (the pinned shadow layout; zero ID for none)
	nextID uint64       // opState
}

// codec reads or writes a record payload (one journal frame on disk, shipped
// verbatim in MetaReplicate.Rec): the header, then the
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
	case opState:
		c.U64(&rec.nextID)
	case opFile:
		c.Str(&rec.name)
		c.FileRef(&rec.ref)
		c.I64(&rec.size)
		c.FileRef(&rec.mig)
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
