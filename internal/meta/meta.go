// Package meta implements the CSAR manager: the PVFS "mgr" process that
// owns file metadata — names, stripe layouts, redundancy schemes and
// logical sizes — and hands clients the layout they need to talk to the
// I/O servers directly. The manager is never on the data path.
//
// Managers run as a primary-backup group with epoch fencing (not
// consensus): one primary serves all metadata RPCs and synchronously ships
// every committed operation — the same record it just fsynced to its
// write-ahead log — to each reachable standby before acknowledging the
// client. A monotonically increasing primary epoch rides every replicated
// record; a manager refuses records from an older epoch, which fences a
// deposed primary's stragglers exactly like ErrLeaseExpired fences stale
// parity writes. Promotion is deterministic: the lowest-index manager that
// is still reachable wins the next epoch.
package meta

import (
	"errors"
	"fmt"
	"log"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"csar/internal/journal"
	"csar/internal/obs"
	"csar/internal/raid"
	"csar/internal/wire"
)

// Caller issues one RPC to a peer manager. TCPPeer implements it for real
// deployments; in-process tests pass the peer's Handle directly.
type Caller interface {
	Call(wire.Msg) (wire.Msg, error)
}

// defaultWALCompactBytes is the WAL's compaction floor (see
// journal.Pair.Due): the log compacts to the live state once it passes this
// and twice that state.
const defaultWALCompactBytes = 256 << 10

// Manager is the metadata server. Drive it through Handle (an rpc.Handler).
type Manager struct {
	serverCount int
	serverAddrs []string

	// shipMu serializes the commit path (apply → WAL append → ship to
	// standbys → acknowledge): replicated records must leave in sequence
	// order. Read-only requests take only mu, so they are not blocked by an
	// in-flight ship's network round trips.
	shipMu sync.Mutex

	mu      sync.Mutex
	primary bool
	index   int      // this manager's position in the group
	epoch   uint64   // current primary epoch
	seq     uint64   // last applied operation sequence number
	peers   []Caller // peer managers by group index; nil entries (incl. self) are skipped
	peerSeq []uint64 // last sequence number each peer acknowledged
	nextID  uint64
	byName  map[string]*fileMeta
	byID    map[uint64]*fileMeta
	// fileBytes is what the files' opFile records take in a compacted log.
	fileBytes int64

	wal        *journal.Pair // nil: in-memory namespace
	walFiles   [2]*os.File
	walCompact int64

	obs      *obs.Registry
	rpcHists *obs.KindHists[wire.Kind]
	requests atomic.Int64
}

type fileMeta struct {
	name string
	ref  wire.FileRef
	size int64
	// mig is the pinned shadow layout of an in-flight scheme migration
	// (zero ID = none): a fresh file ID carrying the target scheme on the
	// same server set and stripe unit. Both layouts stay pinned — shipped
	// to standbys and in every file's state record — until the coordinator
	// commits or aborts, so a manager failover mid-migration loses nothing.
	mig wire.FileRef
}

// New creates a manager for a cluster of serverCount I/O servers.
// serverAddrs optionally carries the servers' dialable addresses (TCP
// deployments); it may be nil for in-process clusters. The manager starts
// as a single-member group: primary at epoch 1 with no peers. SetCluster
// joins it to a replicated group.
func New(serverCount int, serverAddrs []string) *Manager {
	m := &Manager{
		serverCount: serverCount,
		serverAddrs: serverAddrs,
		primary:     true,
		epoch:       1,
		nextID:      1,
		byName:      make(map[string]*fileMeta),
		byID:        make(map[uint64]*fileMeta),
		walCompact:  defaultWALCompactBytes,
		obs:         obs.NewRegistry(),
	}
	m.rpcHists = obs.NewKindHists[wire.Kind](m.obs, "rpc_")
	m.registerGauges()
	return m
}

// SetCluster joins the manager to a replicated group: its own index, the
// peer callers indexed by group position (the entry at index — and any
// other unreachable-by-construction slot — may be nil), and whether it
// starts as a standby. Call before serving requests.
func (m *Manager) SetCluster(index int, peers []Caller, standby bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.index = index
	m.peers = peers
	m.peerSeq = make([]uint64, len(peers))
	m.primary = !standby
}

// SetWALCompactBytes overrides the WAL's compaction floor (useful to
// exercise compaction in tests); n <= 0 disables compaction.
func (m *Manager) SetWALCompactBytes(n int64) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.walCompact = n
}

// Obs exposes the manager's metrics registry, for the daemon's -debug-addr
// HTTP endpoint.
func (m *Manager) Obs() *obs.Registry { return m.obs }

// Close releases the write-ahead log's files. The manager must not be used
// afterwards.
func (m *Manager) Close() error {
	m.mu.Lock()
	defer m.mu.Unlock()
	var errs []error
	for _, f := range m.walFiles {
		if f != nil {
			errs = append(errs, f.Close())
		}
	}
	return errors.Join(errs...)
}

// registerGauges installs the live-state gauges evaluated at every stats
// snapshot.
func (m *Manager) registerGauges() {
	m.obs.RegisterGauge("meta_epoch", func() int64 {
		m.mu.Lock()
		defer m.mu.Unlock()
		return int64(m.epoch)
	})
	m.obs.RegisterGauge("meta_primary", func() int64 {
		m.mu.Lock()
		defer m.mu.Unlock()
		if m.primary {
			return 1
		}
		return 0
	})
	m.obs.RegisterGauge("meta_seq", func() int64 {
		m.mu.Lock()
		defer m.mu.Unlock()
		return int64(m.seq)
	})
	m.obs.RegisterGauge("meta_files", func() int64 {
		m.mu.Lock()
		defer m.mu.Unlock()
		return int64(len(m.byName))
	})
	// meta_replication_lag is the worst peer's distance behind the primary,
	// in operations: seq minus the lowest acknowledged peer seq.
	m.obs.RegisterGauge("meta_replication_lag", func() int64 {
		m.mu.Lock()
		defer m.mu.Unlock()
		if !m.primary {
			return 0
		}
		var lag int64
		for i, p := range m.peers {
			if p == nil || i == m.index {
				continue
			}
			if d := int64(m.seq) - int64(m.peerSeq[i]); d > lag {
				lag = d
			}
		}
		return lag
	})
}

// Handle dispatches one request. It satisfies rpc.Handler.
func (m *Manager) Handle(req wire.Msg) (wire.Msg, error) {
	m.requests.Add(1)
	start := time.Now()
	resp, err := m.dispatch(req)
	m.rpcHists.Of(req.Kind()).Observe(time.Since(start))
	if err != nil {
		m.obs.Counter("errors").Add(1)
	}
	return resp, err
}

func (m *Manager) dispatch(req wire.Msg) (wire.Msg, error) {
	switch r := req.(type) {
	case *wire.Ping:
		return &wire.OK{}, nil
	case *wire.Create:
		return m.create(r)
	case *wire.Open:
		return m.open(r.Name)
	case *wire.SetSize:
		return m.setSize(r)
	case *wire.Remove:
		return m.remove(r.Name)
	case *wire.SetScheme:
		return m.setScheme(r)
	case *wire.CommitScheme:
		return m.commitScheme(r)
	case *wire.AbortScheme:
		return m.abortScheme(r)
	case *wire.List:
		return m.list()
	case *wire.ServerList:
		return &wire.ServerListResp{Addrs: append([]string(nil), m.serverAddrs...)}, nil
	case *wire.MetaStatus:
		return m.status()
	case *wire.MetaReplicate:
		return m.replicate(r)
	case *wire.Stats:
		return m.handleStats()
	default:
		return nil, fmt.Errorf("meta: unsupported request %T", req)
	}
}

// primaryCheckLocked refuses the namespace RPCs on a standby. The error
// carries CodeNotPrimary over the wire, which the client's manager-group
// routing treats as "try the next manager". Caller holds m.mu.
func (m *Manager) primaryCheckLocked() error {
	if m.primary {
		return nil
	}
	return fmt.Errorf("meta: manager %d is a standby at epoch %d: %w",
		m.index, m.epoch, wire.ErrNotPrimary)
}

// layout is the layout a create or migration request asks for, its parity
// count defaulted and the whole checked by raid.Resolve: the same check
// every server and client makes, so the manager records no layout they
// would refuse. The count is fixed here and rides the FileRef from then on.
func layout(servers uint16, su uint32, scheme wire.Scheme, parity uint8) (wire.FileRef, error) {
	ref := raid.WithDefaultParity(wire.FileRef{Servers: servers, StripeUnit: su, Scheme: scheme, Parity: parity})
	if _, err := raid.Resolve(ref); err != nil {
		return ref, fmt.Errorf("meta: %w", err)
	}
	return ref, nil
}

func (m *Manager) create(r *wire.Create) (wire.Msg, error) {
	ref, err := layout(r.Servers, r.StripeUnit, r.Scheme, r.Parity)
	if err != nil {
		return nil, err
	}
	if int(ref.Servers) > m.serverCount {
		return nil, fmt.Errorf("meta: layout wants %d servers, cluster has %d", ref.Servers, m.serverCount)
	}
	if r.Name == "" {
		return nil, fmt.Errorf("meta: empty file name")
	}

	m.shipMu.Lock()
	defer m.shipMu.Unlock()
	m.mu.Lock()
	if err := m.primaryCheckLocked(); err != nil {
		m.mu.Unlock()
		return nil, err
	}
	if _, exists := m.byName[r.Name]; exists {
		m.mu.Unlock()
		return nil, fmt.Errorf("meta: file %q already exists", r.Name)
	}
	ref.ID = m.nextID
	rec := walRec{op: opCreate, name: r.Name, ref: ref}
	prevID := m.nextID
	if err := m.commitAndShip(rec, func() {
		m.dropLocked(m.byName[rec.name])
		m.nextID = prevID
	}); err != nil {
		return nil, fmt.Errorf("meta: committing create: %w", err)
	}
	return &wire.CreateResp{Ref: rec.ref}, nil
}

func (m *Manager) open(name string) (wire.Msg, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if err := m.primaryCheckLocked(); err != nil {
		return nil, err
	}
	fm := m.byName[name]
	if fm == nil {
		return nil, fmt.Errorf("meta: no such file %q", name)
	}
	return &wire.OpenResp{Ref: fm.ref, Size: fm.size, Mig: fm.mig}, nil
}

func (m *Manager) setSize(r *wire.SetSize) (wire.Msg, error) {
	m.shipMu.Lock()
	defer m.shipMu.Unlock()
	m.mu.Lock()
	if err := m.primaryCheckLocked(); err != nil {
		m.mu.Unlock()
		return nil, err
	}
	fm := m.byID[r.ID]
	if fm == nil {
		m.mu.Unlock()
		return nil, fmt.Errorf("meta: no such file id %d", r.ID)
	}
	if r.Size <= fm.size {
		m.mu.Unlock()
		return &wire.OK{}, nil
	}
	prev := fm.size
	rec := walRec{op: opSetSize, id: r.ID, size: r.Size}
	if err := m.commitAndShip(rec, func() { fm.size = prev }); err != nil {
		return nil, fmt.Errorf("meta: committing size: %w", err)
	}
	return &wire.OK{}, nil
}

func (m *Manager) remove(name string) (wire.Msg, error) {
	m.shipMu.Lock()
	defer m.shipMu.Unlock()
	m.mu.Lock()
	if err := m.primaryCheckLocked(); err != nil {
		m.mu.Unlock()
		return nil, err
	}
	fm := m.byName[name]
	if fm == nil {
		m.mu.Unlock()
		return nil, fmt.Errorf("meta: no such file %q", name)
	}
	rec := walRec{op: opRemove, name: name}
	if err := m.commitAndShip(rec, func() { m.putLocked(fm) }); err != nil {
		return nil, fmt.Errorf("meta: committing remove: %w", err)
	}
	return &wire.OK{}, nil
}

// setScheme pins a shadow layout for an online scheme migration: a fresh
// file ID on the same server set and stripe unit, carrying the target
// scheme. The coordinator re-encodes the bytes old→new and then commits.
// Re-issuing the same target while a matching pin is live resumes it (the
// existing shadow ref comes back), so an interrupted coordinator — or a
// client retrying across a manager failover — picks up where it left off.
func (m *Manager) setScheme(r *wire.SetScheme) (wire.Msg, error) {
	m.shipMu.Lock()
	defer m.shipMu.Unlock()
	m.mu.Lock()
	if err := m.primaryCheckLocked(); err != nil {
		m.mu.Unlock()
		return nil, err
	}
	fm := m.byID[r.ID]
	if fm == nil {
		m.mu.Unlock()
		return nil, fmt.Errorf("meta: no such file id %d", r.ID)
	}
	mig, err := layout(fm.ref.Servers, fm.ref.StripeUnit, r.Scheme, r.Parity)
	if err != nil {
		m.mu.Unlock()
		return nil, err
	}
	if fm.mig.ID != 0 {
		if fm.mig.Scheme == mig.Scheme && fm.mig.Parity == mig.Parity {
			// Idempotent resume: the same target is already pinned.
			resp := &wire.SetSchemeResp{Old: fm.ref, New: fm.mig, Size: fm.size}
			m.mu.Unlock()
			return resp, nil
		}
		err := fmt.Errorf("meta: file id %d is already migrating to %v; abort it first", r.ID, fm.mig.Scheme)
		m.mu.Unlock()
		return nil, err
	}
	if fm.ref.Scheme == mig.Scheme && fm.ref.Parity == mig.Parity {
		m.mu.Unlock()
		return nil, fmt.Errorf("meta: file id %d already uses scheme %v", r.ID, r.Scheme)
	}
	mig.ID = m.nextID
	prevID := m.nextID
	rec := walRec{op: opMigBegin, id: r.ID, ref: mig}
	if err := m.commitAndShip(rec, func() {
		fm.mig = wire.FileRef{}
		m.nextID = prevID
	}); err != nil {
		return nil, fmt.Errorf("meta: committing scheme pin: %w", err)
	}
	m.obs.Counter("meta_migrations_begun").Add(1)
	return &wire.SetSchemeResp{Old: fm.ref, New: mig, Size: fm.size}, nil
}

// commitScheme swaps a file's live ref for its pinned shadow layout. The
// NewID fence refuses a commit whose pin has since been aborted or
// superseded; a re-send of an already-applied commit answers OK.
func (m *Manager) commitScheme(r *wire.CommitScheme) (wire.Msg, error) {
	m.shipMu.Lock()
	defer m.shipMu.Unlock()
	m.mu.Lock()
	if err := m.primaryCheckLocked(); err != nil {
		m.mu.Unlock()
		return nil, err
	}
	fm := m.byID[r.ID]
	if fm == nil {
		// The old ID is gone: a retry of a commit that already swapped the
		// ref succeeds idempotently if the shadow is now live.
		if cur := m.byID[r.NewID]; cur != nil && cur.mig.ID == 0 {
			m.mu.Unlock()
			return &wire.OK{}, nil
		}
		m.mu.Unlock()
		return nil, fmt.Errorf("meta: no such file id %d", r.ID)
	}
	if fm.mig.ID == 0 || fm.mig.ID != r.NewID {
		err := fmt.Errorf("meta: stale scheme commit for file id %d (fence %d, pinned %d)",
			r.ID, r.NewID, fm.mig.ID)
		m.mu.Unlock()
		return nil, err
	}
	prevRef, prevMig := fm.ref, fm.mig
	rec := walRec{op: opMigCommit, id: r.ID, newID: r.NewID}
	if err := m.commitAndShip(rec, func() {
		delete(m.byID, prevMig.ID)
		fm.ref, fm.mig = prevRef, prevMig
		m.byID[prevRef.ID] = fm
	}); err != nil {
		return nil, fmt.Errorf("meta: committing scheme cutover: %w", err)
	}
	m.obs.Counter("meta_migrations_committed").Add(1)
	return &wire.OK{}, nil
}

// abortScheme drops a pinned shadow layout. Fenced by NewID like commit; an
// already-cleared pin answers OK so abort is safely re-issuable.
func (m *Manager) abortScheme(r *wire.AbortScheme) (wire.Msg, error) {
	m.shipMu.Lock()
	defer m.shipMu.Unlock()
	m.mu.Lock()
	if err := m.primaryCheckLocked(); err != nil {
		m.mu.Unlock()
		return nil, err
	}
	fm := m.byID[r.ID]
	if fm == nil {
		m.mu.Unlock()
		return nil, fmt.Errorf("meta: no such file id %d", r.ID)
	}
	if fm.mig.ID == 0 {
		m.mu.Unlock()
		return &wire.OK{}, nil
	}
	if fm.mig.ID != r.NewID {
		err := fmt.Errorf("meta: stale scheme abort for file id %d (fence %d, pinned %d)",
			r.ID, r.NewID, fm.mig.ID)
		m.mu.Unlock()
		return nil, err
	}
	prevMig := fm.mig
	rec := walRec{op: opMigAbort, id: r.ID, newID: r.NewID}
	if err := m.commitAndShip(rec, func() { fm.mig = prevMig }); err != nil {
		return nil, fmt.Errorf("meta: committing scheme abort: %w", err)
	}
	m.obs.Counter("meta_migrations_aborted").Add(1)
	return &wire.OK{}, nil
}

func (m *Manager) list() (wire.Msg, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if err := m.primaryCheckLocked(); err != nil {
		return nil, err
	}
	names := make([]string, 0, len(m.byName))
	for n := range m.byName {
		names = append(names, n)
	}
	sort.Strings(names)
	return &wire.ListResp{Names: names}, nil
}

// putLocked adds fm to the namespace, in place of any file of its name;
// dropLocked takes fm out. Caller holds m.mu.
func (m *Manager) putLocked(fm *fileMeta) {
	if old := m.byName[fm.name]; old != nil {
		m.dropLocked(old)
	}
	m.byName[fm.name] = fm
	m.byID[fm.ref.ID] = fm
	m.fileBytes += fileRecLen + int64(len(fm.name))
}

func (m *Manager) dropLocked(fm *fileMeta) {
	delete(m.byName, fm.name)
	delete(m.byID, fm.ref.ID)
	m.fileBytes -= fileRecLen + int64(len(fm.name))
}

// applyRecLocked applies one operation record to the in-memory namespace
// and advances epoch/seq to the record's. It is idempotent per record — a
// create of an existing (name, ID) pair, a size already surpassed, a remove
// of a missing name are all no-ops — so WAL replay and replication re-sends
// are safe. Caller holds m.mu (or is still constructing the manager).
func (m *Manager) applyRecLocked(rec walRec) {
	m.epoch = rec.epoch
	m.seq = rec.seq
	switch rec.op {
	case opCreate:
		m.putLocked(&fileMeta{name: rec.name, ref: rec.ref})
		if rec.ref.ID >= m.nextID {
			m.nextID = rec.ref.ID + 1
		}
	case opSetSize:
		if fm := m.byID[rec.id]; fm != nil && rec.size > fm.size {
			fm.size = rec.size
		}
	case opRemove:
		if fm := m.byName[rec.name]; fm != nil {
			m.dropLocked(fm)
		}
	case opState:
		m.nextID = rec.nextID
	case opFile:
		m.putLocked(&fileMeta{name: rec.name, ref: rec.ref, size: rec.size, mig: rec.mig})
	case opEpoch:
	case opMigBegin:
		if fm := m.byID[rec.id]; fm != nil {
			fm.mig = rec.ref
			if rec.ref.ID >= m.nextID {
				m.nextID = rec.ref.ID + 1
			}
		}
	case opMigCommit:
		if fm := m.byID[rec.id]; fm != nil && fm.mig.ID == rec.newID && rec.newID != 0 {
			delete(m.byID, fm.ref.ID)
			fm.ref, fm.mig = fm.mig, wire.FileRef{}
			m.byID[fm.ref.ID] = fm
		}
	case opMigAbort:
		if fm := m.byID[rec.id]; fm != nil && fm.mig.ID == rec.newID {
			fm.mig = wire.FileRef{}
		}
	}
}

// commitAndShip runs the primary's commit path for one mutation: stamp the
// record with the next sequence number and current epoch, apply it, fsync
// it to the WAL, then ship it to every peer — and only then let the caller
// acknowledge. Called with shipMu held and m.mu held; m.mu is released
// before the network ships (readers proceed while the record travels).
//
// undo reverses the caller's optimistic view if the record cannot be made
// durable locally. A fencing response from a peer does NOT undo: the record
// is already in our log, and a deposed primary's divergent tail is healed
// by the snapshot transfer when it rejoins as a standby — the caller just
// sees the fencing error instead of an acknowledgment.
func (m *Manager) commitAndShip(rec walRec, undo func()) error {
	rec.epoch = m.epoch
	rec.seq = m.seq + 1
	m.applyRecLocked(rec)
	payload := encodeRec(rec)
	if err := m.logLocked(payload); err != nil {
		undo()
		m.seq = rec.seq - 1
		m.mu.Unlock()
		return err
	}
	peers := m.peers
	selfIdx := m.index
	m.mu.Unlock()

	fenced := false
	for i, p := range peers {
		if p == nil || i == selfIdx {
			continue
		}
		m.obs.Counter("meta_replication_ships").Add(1)
		resp, err := p.Call(&wire.MetaReplicate{Epoch: rec.epoch, Seq: rec.seq, Rec: payload})
		switch {
		case err == nil:
			rr, ok := resp.(*wire.MetaReplicateResp)
			if !ok {
				continue
			}
			if rr.Epoch > rec.epoch {
				fenced = true
				continue
			}
			if rr.Seq < rec.seq {
				// The standby is behind (fresh start, missed ops, or an
				// epoch transition that may hide divergence): catch it up
				// with a full snapshot.
				m.sendSnapshot(i, p)
			} else {
				m.setPeerSeq(i, rr.Seq)
			}
		case errors.Is(err, wire.ErrStaleEpoch):
			fenced = true
		default:
			// Unreachable peer: it catches up via the snapshot path on the
			// first ship it answers. Not this operation's problem.
		}
	}
	if fenced {
		m.demote()
		return fmt.Errorf("meta: primary at epoch %d was deposed: %w", rec.epoch, wire.ErrStaleEpoch)
	}
	return nil
}

// logLocked durably appends one encoded record to the WAL (a no-op for an
// in-memory manager) and compacts the log when the pair's rule calls for
// it. Caller holds m.mu and the commit path.
func (m *Manager) logLocked(payload []byte) error {
	if m.wal == nil {
		return nil
	}
	if err := m.wal.Append(true, payload); err != nil {
		return fmt.Errorf("meta: appending wal record: %w", err)
	}
	m.obs.Counter("meta_wal_appends").Add(1)
	if err := m.compactLocked(); err != nil {
		// The operation itself is durable; compaction can retry at the
		// next commit. Surface the disk trouble without failing the op.
		m.obs.Counter("meta_compact_errors").Add(1)
		log.Printf("meta: wal compaction failed (will retry): %v", err)
	}
	return nil
}

// sendSnapshot ships the full state through the current sequence number,
// as its state records, to one lagging peer. Called with shipMu held (so
// seq cannot advance mid-marshal) and m.mu released.
func (m *Manager) sendSnapshot(i int, p Caller) {
	m.mu.Lock()
	data := journal.Image(m.stateRecsLocked()...)
	epoch, seq := m.epoch, m.seq
	m.mu.Unlock()
	m.obs.Counter("meta_snapshots_sent").Add(1)
	resp, err := p.Call(&wire.MetaReplicate{Epoch: epoch, Seq: seq, Snap: true, Rec: data})
	if err != nil {
		return
	}
	if rr, ok := resp.(*wire.MetaReplicateResp); ok && rr.Epoch == epoch {
		m.setPeerSeq(i, rr.Seq)
	}
}

func (m *Manager) setPeerSeq(i int, seq uint64) {
	m.mu.Lock()
	if i < len(m.peerSeq) && seq > m.peerSeq[i] {
		m.peerSeq[i] = seq
	}
	m.mu.Unlock()
}

// demote steps down from the primary role after a fencing response proved
// a higher epoch exists.
func (m *Manager) demote() {
	m.mu.Lock()
	if m.primary {
		m.primary = false
		m.obs.Counter("meta_demotions").Add(1)
	}
	m.mu.Unlock()
}

// replicate applies one record (or installs one snapshot) shipped by the
// primary. The epoch fence lives here: a record from an epoch older than
// ours is refused with CodeStaleEpoch, a record from a newer epoch demotes
// us (if we thought we were primary) and asks for a snapshot — an epoch
// transition means our log may have diverged from the new primary's, so
// only a full transfer is trusted.
func (m *Manager) replicate(r *wire.MetaReplicate) (wire.Msg, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if r.Epoch < m.epoch {
		m.obs.Counter("meta_replication_fenced").Add(1)
		return nil, fmt.Errorf("meta: replicate from epoch %d refused at epoch %d: %w",
			r.Epoch, m.epoch, wire.ErrStaleEpoch)
	}

	if r.Snap {
		return m.installLocked(r)
	}

	if r.Epoch > m.epoch {
		// Epoch transition via an op record: adopt the new epoch, step down
		// if needed, and report Seq 0 so the new primary sends a snapshot —
		// our same-numbered log suffix may belong to the deposed history.
		m.epoch = r.Epoch
		if m.primary {
			m.primary = false
			m.obs.Counter("meta_demotions").Add(1)
		}
		return &wire.MetaReplicateResp{Epoch: m.epoch, Seq: 0}, nil
	}

	rec, err := decodeRec(r.Rec)
	if err != nil {
		return nil, err
	}
	if rec.seq <= m.seq {
		// Duplicate of something we already hold (a primary retry).
		return &wire.MetaReplicateResp{Epoch: m.epoch, Seq: m.seq}, nil
	}
	if rec.seq != m.seq+1 {
		// Gap: we missed operations while unreachable. Reporting our true
		// seq (< the record's) makes the primary fall back to a snapshot.
		return &wire.MetaReplicateResp{Epoch: m.epoch, Seq: m.seq}, nil
	}
	m.applyRecLocked(rec)
	if err := m.logLocked(r.Rec); err != nil {
		// Could not durably log it: report the op unapplied (seq rolls
		// back; the in-memory apply is idempotent under the re-send).
		m.seq = rec.seq - 1
		return nil, err
	}
	return &wire.MetaReplicateResp{Epoch: m.epoch, Seq: m.seq}, nil
}

// installLocked replaces the manager's state with a shipped snapshot: the
// primary's state records as a journal.Image, which must open with its
// epoch and seq. Durably first — one sealed write replaces the log, any
// divergent tail included, so a crash leaves either the old state or the
// installed one — and a snapshot that cannot be made durable is refused
// unapplied. Caller holds m.mu.
func (m *Manager) installLocked(r *wire.MetaReplicate) (wire.Msg, error) {
	payloads, err := journal.Records(r.Rec)
	recs := make([]walRec, len(payloads))
	for i := 0; err == nil && i < len(payloads); i++ {
		recs[i], err = decodeRec(payloads[i])
	}
	if err == nil && (len(recs) == 0 || recs[0].op != opState || recs[0].epoch != r.Epoch || recs[0].seq != r.Seq) {
		err = fmt.Errorf("meta: snapshot does not open with the state of epoch %d, seq %d", r.Epoch, r.Seq)
	}
	if err != nil {
		return nil, fmt.Errorf("meta: corrupt replicated snapshot: %w", err)
	}
	if m.wal != nil {
		if err := m.wal.Compact(payloads...); err != nil {
			return nil, fmt.Errorf("meta: persisting replicated snapshot: %w", err)
		}
	}
	if m.primary {
		m.primary = false
		m.obs.Counter("meta_demotions").Add(1)
	}
	m.byName, m.byID, m.fileBytes = make(map[string]*fileMeta, len(recs)), make(map[uint64]*fileMeta, len(recs)), 0
	for _, rec := range recs {
		m.applyRecLocked(rec)
	}
	m.obs.Counter("meta_snapshots_installed").Add(1)
	return &wire.MetaReplicateResp{Epoch: m.epoch, Seq: m.seq}, nil
}

// status answers the MetaStatus probe. Unlike the namespace RPCs it is
// served in any role — promotion logic and `csar stats` must see standbys.
func (m *Manager) status() (wire.Msg, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	var walBytes int64
	if m.wal != nil {
		walBytes = m.wal.Size()
	}
	return &wire.MetaStatusResp{
		Index:    uint16(m.index),
		Epoch:    m.epoch,
		Seq:      m.seq,
		Primary:  m.primary,
		Files:    int64(len(m.byName)),
		WALBytes: walBytes,
	}, nil
}

// Promote makes this manager the primary at a fresh epoch. The epoch bump
// is logged (a restarted manager must never accept records from an epoch it
// already moved past) and shipped to every reachable peer, which adopts the
// new epoch — and steps down, fencing the old primary if it still lives.
func (m *Manager) Promote() error {
	m.shipMu.Lock()
	defer m.shipMu.Unlock()
	m.mu.Lock()
	prevEpoch, prevPrimary := m.epoch, m.primary
	m.epoch++
	m.primary = true
	m.obs.Counter("meta_promotions").Add(1)
	rec := walRec{op: opEpoch}
	if err := m.commitAndShip(rec, func() {
		m.epoch = prevEpoch
		m.primary = prevPrimary
	}); err != nil {
		return fmt.Errorf("meta: promoting: %w", err)
	}
	return nil
}

// TryPromote promotes this manager only if no lower-index peer answers a
// MetaStatus probe — the deterministic promotion rule: the lowest-index
// reachable manager wins the next epoch. It reports whether this manager
// is (now) the primary.
//
// The rule is primary-backup with fencing, not consensus: two managers
// partitioned from each other can both conclude they win. The epoch fence
// limits the damage — the second promotion deposes the first retroactively,
// and the deposed side's unreplicated tail is discarded when it rejoins —
// but operators who need zero split-brain windows must arbitrate
// externally (see DESIGN §11).
func (m *Manager) TryPromote() (bool, error) {
	m.mu.Lock()
	idx, primary := m.index, m.primary
	peers := m.peers
	m.mu.Unlock()
	if primary {
		return true, nil
	}
	for i, p := range peers {
		if i >= idx {
			break
		}
		if p == nil {
			continue
		}
		if resp, err := p.Call(&wire.MetaStatus{}); err == nil {
			if _, ok := resp.(*wire.MetaStatusResp); ok {
				return false, nil // a lower-index manager is alive; it wins
			}
		}
	}
	if err := m.Promote(); err != nil {
		return false, err
	}
	return true, nil
}

// handleStats answers the Stats RPC with the manager's observability
// snapshot: replication counters, role/epoch/lag gauges, and the per-RPC-
// kind latency histograms. Index 0xFFFF marks a manager snapshot.
func (m *Manager) handleStats() (wire.Msg, error) {
	snap := m.obs.Snapshot()
	resp := &wire.StatsResp{
		Index:    0xFFFF,
		Requests: m.requests.Load(),
	}
	for _, kv := range snap.Counters {
		resp.Counters = append(resp.Counters, wire.StatKV{Name: kv.Name, Value: kv.Value})
	}
	for _, kv := range snap.Gauges {
		resp.Gauges = append(resp.Gauges, wire.StatKV{Name: kv.Name, Value: kv.Value})
	}
	for _, h := range snap.Hists {
		resp.Hists = append(resp.Hists, wire.HistDump{
			Name:    h.Name,
			Count:   h.Count,
			Sum:     int64(h.Sum),
			Max:     int64(h.Max),
			Buckets: h.TrimmedBuckets(),
		})
	}
	return resp, nil
}
