package meta

import (
	"errors"
	"fmt"
	"io"
	"os"
	"sort"

	"csar/internal/journal"
)

// NewPersistent creates a manager whose metadata survives restarts: its
// state is the replay of the journal.Pair kept in path+".wal" and
// path+".wal.1". Mutations append (fsynced) to the pair; when its rule
// calls for it (journal.Pair.Due, with SetWALCompactBytes's floor) the pair
// is compacted to the live namespace, written as records. A file at path
// itself is a JSON snapshot from an older format, which this manager does
// not read, and is refused.
func NewPersistent(serverCount int, serverAddrs []string, path string) (*Manager, error) {
	if _, err := os.Stat(path); !errors.Is(err, os.ErrNotExist) {
		if err == nil {
			err = errors.New("a metadata snapshot of an older format; this manager keeps its state in " +
				path + ".wal and " + path + ".wal.1 only")
		}
		return nil, fmt.Errorf("meta: %s: %w", path, err)
	}
	m := New(serverCount, serverAddrs)
	var jf [2]journal.File
	var sizes [2]int64
	for i, name := range [2]string{path + ".wal", path + ".wal.1"} {
		f, err := os.OpenFile(name, os.O_RDWR|os.O_CREATE, 0o644)
		if err == nil {
			m.walFiles[i], jf[i] = f, f
			sizes[i], err = f.Seek(0, io.SeekEnd)
		}
		if err != nil {
			m.Close() //nolint:errcheck // already failing
			return nil, fmt.Errorf("meta: opening wal: %w", err)
		}
	}
	wal, err := journal.OpenPair(jf, sizes, func(p []byte) error {
		rec, err := decodeRec(p)
		if err == nil {
			m.applyRecLocked(rec)
		}
		return err
	})
	if err != nil {
		m.Close() //nolint:errcheck // already failing
		return nil, fmt.Errorf("meta: wal %s: %w", path+".wal", err)
	}
	m.wal = wal
	return m, nil
}

// stateRecsLocked encodes the manager's state as records: one opState
// record (epoch, seq, next file ID), then one opFile record per file, in
// file-ID order, so identical namespaces encode identically. It is what a
// compaction writes and what a MetaReplicate{Snap} carries. Caller holds
// m.mu.
func (m *Manager) stateRecsLocked() [][]byte {
	recs := make([][]byte, 0, 1+len(m.byID))
	recs = append(recs, encodeRec(walRec{op: opState, epoch: m.epoch, seq: m.seq, nextID: m.nextID}))
	files := make([]*fileMeta, 0, len(m.byName))
	for _, fm := range m.byName {
		files = append(files, fm)
	}
	sort.Slice(files, func(i, j int) bool { return files[i].ref.ID < files[j].ref.ID })
	for _, fm := range files {
		recs = append(recs, encodeRec(walRec{op: opFile, epoch: m.epoch, seq: m.seq,
			name: fm.name, ref: fm.ref, size: fm.size, mig: fm.mig}))
	}
	return recs
}

// compactLocked compacts the pair to the live state when its rule calls for
// it. The compaction is one sealed write: a crash anywhere in it replays
// either the old log or the new one. Caller holds m.mu and the commit path.
func (m *Manager) compactLocked() error {
	if !m.wal.Due(m.walCompact, stateRecLen+m.fileBytes) {
		return nil
	}
	if err := m.wal.Compact(m.stateRecsLocked()...); err != nil {
		return fmt.Errorf("meta: compacting wal: %w", err)
	}
	m.obs.Counter("meta_compactions").Add(1)
	return nil
}
