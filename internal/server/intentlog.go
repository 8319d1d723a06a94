package server

import (
	"csar/internal/journal"
	"csar/internal/wire"
)

// The intent journal lives in two internal/journal logs, intents.journal
// and intents.journal.1, so that compacting it never truncates the only
// copy of a live intent. Appends go to the current log. A compaction writes
// the live set into the other log, followed by a seal record carrying the
// next generation, syncs it, and only then truncates the log it replaces.
// A crash anywhere in that sequence leaves one complete copy:
//
//   - before the seal is durable, the other log has no valid seal (the
//     journal's replay stops at the first torn frame), so the current log,
//     still untouched, is the one replayed;
//   - after it, both logs may hold records, and the higher generation wins.
//
// A log with no seal is generation 0. Only intents.journal is ever written
// without one: it is where appends start on an empty journal, and when the
// live set drains both logs are empty and appends return to it.

// intentAltJournalName is the second of the intent journal's two logs.
const intentAltJournalName = intentJournalName + ".1"

// intentSealLen is the encoded length of a seal record:
//
//	u8 intentOpSeal | u64 generation
const intentSealLen = 9

// sealPayload encodes the seal record of generation gen.
func sealPayload(gen uint64) []byte {
	e := wire.Encoding(make([]byte, 0, intentSealLen))
	op := intentOpSeal
	e.U8(&op)
	e.U64(&gen)
	return e.Buf
}

// intentLog is the intent journal's pair of logs. Caller holds jmu.
type intentLog struct {
	logs [2]*journal.Log
	cur  int    // the log appends go to
	gen  uint64 // logs[cur]'s generation
}

// append writes recs to the current log, synced when sync is set.
func (l *intentLog) append(sync bool, recs ...[]byte) {
	if sync {
		l.logs[l.cur].Append(recs...) //nolint:errcheck // local store
	} else {
		l.logs[l.cur].AppendUnsynced(recs...) //nolint:errcheck // local store
	}
}

// size is the current log's length in bytes.
func (l *intentLog) size() int64 { return l.logs[l.cur].Size() }

// empty reports whether neither log holds a record.
func (l *intentLog) empty() bool { return l.logs[0].Size()+l.logs[1].Size() == 0 }

// clear empties the journal once no intent is live: both logs end up zero
// bytes, and appends start again unsealed in intents.journal.
func (l *intentLog) clear() {
	for _, log := range l.logs {
		if log.Size() > 0 {
			log.Rewrite() //nolint:errcheck // local store
		}
	}
	l.cur, l.gen = 0, 0
}

// compact replaces the journal with recs, one record per live intent, by
// way of the other log (see the top of this file).
func (l *intentLog) compact(recs [][]byte) {
	next, gen := 1-l.cur, l.gen+1
	l.logs[next].Rewrite(append(recs, sealPayload(gen))...) //nolint:errcheck // local store
	l.logs[l.cur].Rewrite()                                 //nolint:errcheck // local store
	l.cur, l.gen = next, gen
}

// logImage is what one log's replay found: its intent records in order,
// and its seal's generation, if it has one.
type logImage struct {
	recs   []intentEntry
	sealed bool
	gen    uint64
}

// openIntentLog opens both logs and returns the journal with the records
// of the one that holds the current copy; the other log's records are
// superseded and it is emptied.
func (s *Server) openIntentLog() (*intentLog, []intentEntry) {
	var l intentLog
	var imgs [2]logImage
	for i, name := range []string{intentJournalName, intentAltJournalName} {
		img := &imgs[i]
		l.logs[i] = s.openJournal(name, func(p []byte) error {
			d := wire.Decoding(p)
			if len(p) == intentSealLen && p[0] == intentOpSeal {
				var op uint8
				d.U8(&op)
				d.U64(&img.gen)
				img.sealed = true
				return d.Err()
			}
			var r intentEntry
			if r.codec(&d); d.Err() != nil {
				return d.Err()
			}
			img.recs = append(img.recs, r)
			return nil
		})
	}
	// intents.journal.1 is only ever written sealed: without a valid seal
	// it is a compaction the crash cut short.
	if imgs[1].sealed && imgs[1].gen > imgs[0].gen {
		l.cur = 1
	}
	l.gen = imgs[l.cur].gen
	if l.logs[1-l.cur].Size() > 0 {
		l.logs[1-l.cur].Rewrite() //nolint:errcheck // local store
	}
	return &l, imgs[l.cur].recs
}
