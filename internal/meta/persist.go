package meta

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"

	"csar/internal/journal"
	"csar/internal/wire"
)

// snapshot is the on-disk metadata format (JSON for inspectability). Epoch
// and Seq record the primary epoch and last operation sequence number the
// snapshot covers: WAL replay skips records at or below Seq, so a crash
// between writing the snapshot and truncating the log re-applies nothing.
type snapshot struct {
	Epoch  uint64         `json:"epoch"`
	Seq    uint64         `json:"seq"`
	NextID uint64         `json:"next_id"`
	Files  []snapshotFile `json:"files"`
}

type snapshotFile struct {
	Name       string `json:"name"`
	ID         uint64 `json:"id"`
	Servers    uint16 `json:"servers"`
	StripeUnit uint32 `json:"stripe_unit"`
	Scheme     uint8  `json:"scheme"`
	Parity     uint8  `json:"parity,omitempty"`
	Size       int64  `json:"size"`
	// In-flight scheme migration pin. The shadow layout shares the file's
	// server set and stripe unit, so only its identity and target scheme
	// are recorded.
	MigID     uint64 `json:"mig_id,omitempty"`
	MigScheme uint8  `json:"mig_scheme,omitempty"`
	MigParity uint8  `json:"mig_parity,omitempty"`
}

// NewPersistent creates a manager whose metadata survives restarts: state
// is the last snapshot at path plus the replay of the write-ahead log at
// path+".wal". Mutations append (fsynced) to the log; the snapshot is only
// rewritten when the log passes the compaction threshold, so the per-
// mutation cost is one sequential append instead of a full state rewrite.
func NewPersistent(serverCount int, serverAddrs []string, path string) (*Manager, error) {
	m := New(serverCount, serverAddrs)
	m.persistPath = path

	data, err := os.ReadFile(path)
	switch {
	case os.IsNotExist(err):
	case err != nil:
		return nil, fmt.Errorf("meta: reading snapshot: %w", err)
	default:
		var snap snapshot
		if err := json.Unmarshal(data, &snap); err != nil {
			return nil, fmt.Errorf("meta: corrupt snapshot %s: %w", path, err)
		}
		m.installSnapshotLocked(&snap)
	}

	walPath := path + ".wal"
	f, err := os.OpenFile(walPath, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, fmt.Errorf("meta: opening wal: %w", err)
	}
	st, err := f.Stat()
	if err == nil {
		m.wal, err = journal.Open(f, st.Size(), func(p []byte) error {
			rec, err := decodeRec(p)
			// Records the snapshot already covers are replay noise from a
			// crash mid-compaction; skip them. Epoch records and the rest
			// re-apply idempotently in log order.
			if err == nil && rec.seq > m.seq {
				m.applyRecLocked(rec)
			}
			return err
		})
	}
	if err != nil {
		f.Close()
		return nil, fmt.Errorf("meta: wal %s: %w", walPath, err)
	}
	m.walFile = f
	return m, nil
}

// snapshotLocked captures the manager's state as a snapshot with files
// sorted by ID. The ordering matters: marshaled snapshots must be
// byte-identical for identical namespace state (map iteration is not), so
// a replica rebuilt from WAL replay can be diffed against the pre-crash
// snapshot and replication snapshots are deterministic. Caller holds m.mu.
func (m *Manager) snapshotLocked() *snapshot {
	snap := &snapshot{Epoch: m.epoch, Seq: m.seq, NextID: m.nextID}
	for _, fm := range m.byName {
		snap.Files = append(snap.Files, snapshotFile{
			Name:       fm.name,
			ID:         fm.ref.ID,
			Servers:    fm.ref.Servers,
			StripeUnit: fm.ref.StripeUnit,
			Scheme:     uint8(fm.ref.Scheme),
			Parity:     fm.ref.Parity,
			Size:       fm.size,
			MigID:      fm.mig.ID,
			MigScheme:  uint8(fm.mig.Scheme),
			MigParity:  fm.mig.Parity,
		})
	}
	sort.Slice(snap.Files, func(i, j int) bool { return snap.Files[i].ID < snap.Files[j].ID })
	return snap
}

// marshalSnapshotLocked serializes the deterministic snapshot form (also
// the payload of a MetaReplicate{Snap} catch-up transfer). Caller holds m.mu.
func (m *Manager) marshalSnapshotLocked() ([]byte, error) {
	return json.MarshalIndent(m.snapshotLocked(), "", "  ")
}

// installSnapshotLocked replaces the manager's namespace, epoch and
// sequence state with the snapshot's. Caller holds m.mu (or is still
// constructing the manager).
func (m *Manager) installSnapshotLocked(snap *snapshot) {
	m.epoch = snap.Epoch
	if m.epoch == 0 {
		m.epoch = 1 // pre-HA snapshots carry no epoch
	}
	m.seq = snap.Seq
	m.nextID = snap.NextID
	if m.nextID == 0 {
		m.nextID = 1
	}
	m.byName = make(map[string]*fileMeta, len(snap.Files))
	m.byID = make(map[uint64]*fileMeta, len(snap.Files))
	for _, sf := range snap.Files {
		fm := &fileMeta{
			name: sf.Name,
			ref: wire.FileRef{
				ID:         sf.ID,
				Servers:    sf.Servers,
				StripeUnit: sf.StripeUnit,
				Scheme:     wire.Scheme(sf.Scheme),
				Parity:     sf.Parity,
			},
			size: sf.Size,
		}
		if sf.MigID != 0 {
			fm.mig = wire.FileRef{
				ID:         sf.MigID,
				Servers:    sf.Servers,
				StripeUnit: sf.StripeUnit,
				Scheme:     wire.Scheme(sf.MigScheme),
				Parity:     sf.MigParity,
			}
		}
		m.byName[fm.name] = fm
		m.byID[fm.ref.ID] = fm
	}
}

// save writes the snapshot atomically. Caller holds m.mu.
func (m *Manager) save() error {
	if m.persistPath == "" {
		return nil
	}
	data, err := m.marshalSnapshotLocked()
	if err != nil {
		return err
	}
	// Write-fsync-rename: the temp file's bytes must be durable before the
	// rename publishes them, or a crash could leave the (durable) rename
	// pointing at (lost) content — the metadata flavor of the write hole.
	tmp := m.persistPath + ".tmp"
	tf, err := os.OpenFile(tmp, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return err
	}
	if _, err := tf.Write(data); err != nil {
		tf.Close()
		return err
	}
	if err := tf.Sync(); err != nil {
		tf.Close()
		return err
	}
	if err := tf.Close(); err != nil {
		return err
	}
	if err := os.Rename(tmp, m.persistPath); err != nil {
		return err
	}
	// Durability of the rename itself: until the directory entry is synced,
	// a power cut can resurrect the old snapshot — which is only safe if we
	// know the sync happened everywhere we assume it did, so failures are
	// reported, not swallowed.
	dir, err := os.Open(filepath.Dir(m.persistPath))
	if err != nil {
		return err
	}
	defer dir.Close() //nolint:errcheck // only read
	if err := dir.Sync(); err != nil {
		return fmt.Errorf("meta: syncing snapshot rename: %w", err)
	}
	return nil
}

// compactLocked rewrites the snapshot and truncates the log to zero once the
// log outgrows the threshold. The snapshot records its covered sequence
// number, so a crash between the two steps only costs replaying records the
// snapshot already holds. Caller holds the commit path.
func (m *Manager) compactLocked() error {
	if m.wal == nil || m.walCompact <= 0 || m.wal.Size() < m.walCompact {
		return nil
	}
	if err := m.save(); err != nil {
		return fmt.Errorf("meta: compaction snapshot: %w", err)
	}
	if err := m.wal.Rewrite(); err != nil {
		return fmt.Errorf("meta: truncating wal: %w", err)
	}
	m.obs.Counter("meta_compactions").Add(1)
	return nil
}
