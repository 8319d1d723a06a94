// Package server implements the CSAR I/O daemon — the per-node storage
// server that PVFS calls an iod, extended with the redundancy machinery of
// the paper:
//
//   - five local stores per file: the data file (identical layout to PVFS),
//     the RAID1 mirror file, the RAID5 parity file, and the Hybrid scheme's
//     overflow region plus its mirror;
//   - the overflow table mapping logical byte ranges to overflow contents,
//     consulted on every read so clients always receive the newest data
//     (Section 4, "the I/O servers return the latest copy of the data which
//     could be in the overflow region");
//   - the parity-lock table of Section 5.1: a read of a parity unit with the
//     lock flag set acquires a FIFO lock on that stripe's parity, released
//     by the subsequent parity write;
//   - the write-buffering scheme of Section 5.2, which coalesces the data
//     received from the network into aligned, full-block disk writes.
//
// A Server is driven through its Handle method, which satisfies rpc.Handler.
package server

import (
	"fmt"
	"hash/crc32"
	"sync"
	"sync/atomic"
	"time"

	"csar/internal/extent"
	"csar/internal/obs"
	"csar/internal/raid"
	"csar/internal/simtime"
	"csar/internal/storage"
	"csar/internal/wire"
)

// Store indexes the five per-file local stores.
type Store int

// The store kinds, in the order reported by wire.StorageStatResp.ByStore.
const (
	StoreData Store = iota
	StoreMirror
	StoreParity
	StoreOverflow
	StoreOverflowMirror
	numStores
)

var storeSuffix = [numStores]string{"data", "mirror", "parity", "overflow", "ovmirror"}

// Options tunes a server.
type Options struct {
	// WriteBuffering enables the Section 5.2 fix: incoming data is
	// accumulated and flushed to the local store in block-aligned pieces.
	// When disabled, data is written in network-receive-sized chunks as it
	// arrives, reproducing the partial-block write problem.
	WriteBuffering bool
	// RecvChunk is the size of one modeled non-blocking network receive,
	// used when WriteBuffering is off. Defaults to 8 KiB.
	RecvChunk int
	// Clock is the performance-model time base; nil runs untimed.
	Clock *simtime.Clock
	// RequestCPU is the modeled per-request processing cost of the iod
	// (request parsing, buffer management, syscalls — a few hundred
	// microseconds on the paper's 1 GHz Pentium III nodes). Charged per
	// request when the clock is timed.
	RequestCPU time.Duration
	// PageSize is the local block size the write-buffering path aligns
	// flushes to. Defaults to 4 KiB.
	PageSize int
	// SlowOp, when positive, logs every request whose handling takes longer
	// (with its kind, duration and trace ID) — the server end of the
	// client's operation tracing.
	SlowOp time.Duration
}

// DefaultOptions returns the production configuration (write buffering on).
func DefaultOptions() Options {
	return Options{WriteBuffering: true, RecvChunk: 8 << 10, PageSize: 4096}
}

// Server is one I/O daemon.
type Server struct {
	idx  int
	disk storage.Backend
	opts Options
	cpu  *simtime.Limiter // serial request processing, like the iod's event loop

	requests atomic.Int64

	mu    sync.Mutex
	files map[uint64]*serverFile

	// Stripe intent journal (see intent.go). jmu nests inside sf.mu.
	jmu     sync.Mutex
	journal storage.File
	jOff    int64 // append cursor
	jLive   int   // live (open or abandoned) intents across all files
	// pendingIntents holds journal-loaded intents (fileID -> stripe ->
	// owner) not yet adopted by a serverFile record. Guarded by mu.
	pendingIntents map[uint64]map[int64]uint64

	// Dirty-region logs of outages this server witnessed as a survivor
	// (see dirty.go). Self-locking; independent of mu and jmu.
	dirty dirtyState

	intOpened     atomic.Int64
	intRetired    atomic.Int64
	intAbandoned  atomic.Int64
	intResolved   atomic.Int64
	leaseRenewals atomic.Int64
	leaseExpiries atomic.Int64

	// obs holds the per-RPC-kind latency histograms and the store-level
	// counters/gauges served by the Stats RPC and the /metrics endpoint
	// (stats.go).
	obs *obs.Registry
}

// Requests returns the number of requests handled since startup.
func (s *Server) Requests() int64 { return s.requests.Load() }

type serverFile struct {
	ref  wire.FileRef
	geom raid.Geometry

	mu       sync.Mutex
	stores   [numStores]storage.File
	ovTable  extent.Map      // logical range -> offset in overflow store
	ovmTable extent.Map      // logical range -> offset in overflow-mirror store
	ovNext   int64           // allocation cursor of the overflow store
	ovmNext  int64           // allocation cursor of the overflow-mirror store
	ovSlots  map[int64]int64 // stripe unit -> its slot base in the overflow store
	ovmSlots map[int64]int64 // stripe unit -> slot base in the overflow mirror
	locks    map[int64]*parityLock
	// intents holds the file's stripe write intents: open ones belong to
	// an in-flight locked read-modify-write, abandoned ones mark possibly
	// torn stripes that refuse new parity locks until replayed (intent.go).
	intents map[int64]*intentRec
	// canceled remembers tokens whose acquisitions UnlockParity canceled, so
	// a late-arriving locked ReadParity (its frame delivered after the
	// client's compensating UnlockParity was processed) is refused instead of
	// re-acquiring a lock nobody will ever release. canceledFIFO bounds it.
	canceled     map[uint64]struct{}
	canceledFIFO []uint64
}

// canceledTokensMax bounds the canceled-token memory per file. Tokens are
// single-use, so an evicted entry only matters if its locked read is still
// in flight after 4096 later cancellations on the same file — far beyond any
// plausible frame reordering window.
const canceledTokensMax = 4096

// parityLock is one stripe's FIFO parity lock. owner is the token of the
// holding acquisition (never zero: a locked read must carry one); each
// queued waiter remembers its own token so UnlockParity can surgically
// cancel a dead peer's acquisition — held or still queued — without
// disturbing anyone else's.
type parityLock struct {
	held  bool
	owner uint64
	queue []lockWaiter
}

type lockWaiter struct {
	ch    chan bool // true: granted; false: canceled by UnlockParity
	owner uint64
}

// New creates a server with the given index (its position in every file's
// stripe layout) backed by disk.
func New(idx int, disk storage.Backend, opts Options) *Server {
	if opts.RecvChunk <= 0 {
		opts.RecvChunk = 8 << 10
	}
	if opts.PageSize <= 0 {
		opts.PageSize = 4096
	}
	s := &Server{
		idx:   idx,
		disk:  disk,
		opts:  opts,
		cpu:   simtime.NewLimiter(opts.Clock, 1), // durations only
		files: make(map[uint64]*serverFile),
		obs:   obs.NewRegistry(),
	}
	s.registerGauges()
	s.loadIntents()
	s.loadDirty()
	return s
}

// Index returns the server's position in the stripe layout.
func (s *Server) Index() int { return s.idx }

// Disk exposes the underlying storage (tests and the harness inspect its
// storage totals).
func (s *Server) Disk() storage.Backend { return s.disk }

func (s *Server) file(ref wire.FileRef) (*serverFile, error) {
	g := raid.Geometry{Servers: int(ref.Servers), StripeUnit: int64(ref.StripeUnit)}
	if ref.Scheme == wire.ReedSolomon {
		g.ParityUnits = ref.ParityUnits()
		if err := g.ValidateParity(); err != nil {
			return nil, err
		}
	} else if err := g.Validate(); err != nil {
		return nil, err
	}
	if s.idx >= g.Servers {
		return nil, fmt.Errorf("server %d not part of %d-server layout", s.idx, g.Servers)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	sf := s.files[ref.ID]
	if sf == nil {
		sf = &serverFile{
			ref:      ref,
			geom:     g,
			ovSlots:  make(map[int64]int64),
			ovmSlots: make(map[int64]int64),
			locks:    make(map[int64]*parityLock),
			intents:  make(map[int64]*intentRec),
			canceled: make(map[uint64]struct{}),
		}
		s.adoptIntents(sf)
		s.files[ref.ID] = sf
	}
	return sf, nil
}

func (sf *serverFile) store(d storage.Backend, k Store) storage.File {
	sf.mu.Lock()
	defer sf.mu.Unlock()
	if sf.stores[k] == nil {
		sf.stores[k] = d.Open(fmt.Sprintf("f%06d.%s", sf.ref.ID, storeSuffix[k]))
	}
	return sf.stores[k]
}

// Handle dispatches one request. It satisfies rpc.Handler.
func (s *Server) Handle(req wire.Msg) (wire.Msg, error) {
	return s.HandleTraced(req, 0)
}

func (s *Server) dispatch(req wire.Msg) (wire.Msg, error) {
	switch m := req.(type) {
	case *wire.Ping:
		return &wire.OK{}, nil
	case *wire.Health:
		return &wire.HealthResp{Index: uint16(s.idx), Requests: s.requests.Load()}, nil
	case *wire.UnlockParity:
		return s.handleUnlockParity(m)
	case *wire.RenewLease:
		return s.handleRenewLease(m)
	case *wire.ListIntents:
		return s.handleListIntents(m)
	case *wire.ResolveIntent:
		return s.handleResolveIntent(m)
	case *wire.MarkDirty:
		return s.handleMarkDirty(m)
	case *wire.DirtyDump:
		return s.handleDirtyDump(m)
	case *wire.ClearDirty:
		return s.handleClearDirty(m)
	case *wire.Read:
		return s.handleRead(m)
	case *wire.WriteData:
		return s.handleWriteData(m)
	case *wire.WriteMirror:
		return s.handleWriteMirror(m)
	case *wire.ReadMirror:
		return s.handleReadMirror(m)
	case *wire.ReadParity:
		return s.handleReadParity(m)
	case *wire.WriteParity:
		return s.handleWriteParity(m)
	case *wire.WriteOverflow:
		return s.handleWriteOverflow(m)
	case *wire.InvalidateOverflow:
		return s.handleInvalidateOverflow(m)
	case *wire.OverflowDump:
		return s.handleOverflowDump(m)
	case *wire.Sync:
		return s.handleSync(m)
	case *wire.DropCaches:
		s.disk.DropCaches()
		return &wire.OK{}, nil
	case *wire.StorageStat:
		return s.handleStorageStat(m)
	case *wire.RemoveFile:
		return s.handleRemoveFile(m)
	case *wire.CompactOverflow:
		return s.handleCompactOverflow(m)
	case *wire.ChecksumRange:
		return s.handleChecksumRange(m)
	case *wire.Stats:
		return s.handleStats()
	default:
		return nil, fmt.Errorf("server: unsupported request %T", req)
	}
}

// writePiece writes one contiguous piece of incoming data to a local store,
// modeling how the data actually reached the disk. With write buffering the
// piece lands in at most three aligned flushes (unaligned head, full pages,
// unaligned tail). Without it, every modeled network receive chunk is
// written immediately, so pages straddling chunk boundaries are first
// touched by partial writes and pay the forced read of Section 5.2.
func (s *Server) writePiece(f storage.File, off int64, p []byte) {
	if len(p) == 0 {
		return
	}
	if s.opts.WriteBuffering {
		ps := int64(s.opts.PageSize)
		end := off + int64(len(p))
		headEnd := off
		if r := off % ps; r != 0 {
			headEnd = off - r + ps
			if headEnd > end {
				headEnd = end
			}
		}
		bodyEnd := end - end%ps
		if bodyEnd < headEnd {
			bodyEnd = headEnd
		}
		if headEnd > off {
			f.WriteAt(p[:headEnd-off], off) //nolint:errcheck // offsets validated
		}
		if bodyEnd > headEnd {
			f.WriteAt(p[headEnd-off:bodyEnd-off], headEnd) //nolint:errcheck
		}
		if end > bodyEnd {
			f.WriteAt(p[bodyEnd-off:], bodyEnd) //nolint:errcheck
		}
		return
	}
	for i := 0; i < len(p); i += s.opts.RecvChunk {
		e := i + s.opts.RecvChunk
		if e > len(p) {
			e = len(p)
		}
		f.WriteAt(p[i:e], off+int64(i)) //nolint:errcheck
	}
}

// handleRead returns the concatenated bytes of the pieces of each span that
// this server stores, in span order then offset order — the same iteration
// the client uses to reassemble. Unless Raw is set, overflow-region contents
// override the data file.
func (s *Server) handleRead(m *wire.Read) (wire.Msg, error) {
	sf, err := s.file(m.File)
	if err != nil {
		return nil, err
	}
	data := sf.store(s.disk, StoreData)
	var total int64
	for _, sp := range m.Spans {
		sf.geom.ToLocal(s.idx, sp.Off, sp.Len, func(_, _, n int64) { total += n })
	}
	// One exact-size pooled response buffer, read into in place.
	resp := wire.NewReadResp(int(total))
	cur := int64(0)
	for _, sp := range m.Spans {
		sf.geom.ToLocal(s.idx, sp.Off, sp.Len, func(logical, local, n int64) {
			buf := resp.Data[cur : cur+n]
			cur += n
			readFill(data, buf, local)
			if !m.Raw {
				s.patchOverflow(sf, logical, buf)
			}
		})
	}
	return resp, nil
}

// readFill reads len(p) bytes of a local store into p. The stores zero-fill
// holes and reads past EOF themselves; whatever a failed read leaves unfilled
// is zeroed here, because p is a recycled buffer and must not leak its
// previous contents.
func readFill(f storage.File, p []byte, off int64) {
	n, _ := f.ReadAt(p, off) //nolint:errcheck // a failed read serves zeros, like a hole
	clear(p[n:])
}

// patchOverflow overlays overflow-region bytes onto buf, which holds the
// logical range [logical, logical+len(buf)).
func (s *Server) patchOverflow(sf *serverFile, logical int64, buf []byte) {
	sf.mu.Lock()
	hits := make([]extent.Extent, 0, 4)
	sf.ovTable.Lookup(logical, int64(len(buf)), func(l, src, n int64) {
		hits = append(hits, extent.Extent{Off: l, Len: n, Src: src})
	}, nil)
	sf.mu.Unlock()
	if len(hits) == 0 {
		return
	}
	ov := sf.store(s.disk, StoreOverflow)
	for _, h := range hits {
		ov.ReadAt(buf[h.Off-logical:h.Off-logical+h.Len], h.Src) //nolint:errcheck
	}
}

func (s *Server) handleWriteData(m *wire.WriteData) (wire.Msg, error) {
	sf, err := s.file(m.File)
	if err != nil {
		return nil, err
	}
	data := sf.store(s.disk, StoreData)
	cur := int64(0)
	for _, sp := range m.Spans {
		sf.geom.ToLocal(s.idx, sp.Off, sp.Len, func(logical, local, n int64) {
			if cur+n > int64(len(m.Data)) {
				err = fmt.Errorf("server: write payload short: need %d, have %d", cur+n, len(m.Data))
				return
			}
			s.writePiece(data, local, m.Data[cur:cur+n])
			cur += n
		})
	}
	if err != nil {
		return nil, err
	}
	if m.File.Scheme == wire.Hybrid && !m.Raw {
		// A Hybrid client writes data in place only for full-stripe
		// portions, which supersede any overflow contents of the same
		// range: "when a client issues a full-stripe write any data in the
		// overflow region for that stripe is invalidated" (Section 4).
		// The written span covers whole stripes — every server's units —
		// so this server can also invalidate its overflow-mirror entries
		// (which mirror the previous server's units) without any extra
		// message. Raw writes (scrub repairs, rebuilds) restore the
		// in-place bytes only and must leave the overflow tables alone —
		// the overflow still holds the newest data for those ranges.
		sf.mu.Lock()
		for _, sp := range m.Spans {
			sf.ovTable.Invalidate(sp.Off, sp.Len)
			sf.ovmTable.Invalidate(sp.Off, sp.Len)
		}
		sf.mu.Unlock()
	}
	return &wire.OK{}, nil
}

func (s *Server) handleWriteMirror(m *wire.WriteMirror) (wire.Msg, error) {
	sf, err := s.file(m.File)
	if err != nil {
		return nil, err
	}
	mir := sf.store(s.disk, StoreMirror)
	cur := int64(0)
	for _, sp := range m.Spans {
		sf.geom.ToMirrorLocal(s.idx, sp.Off, sp.Len, func(logical, local, n int64) {
			if cur+n > int64(len(m.Data)) {
				err = fmt.Errorf("server: mirror payload short: need %d, have %d", cur+n, len(m.Data))
				return
			}
			s.writePiece(mir, local, m.Data[cur:cur+n])
			cur += n
		})
	}
	if err != nil {
		return nil, err
	}
	return &wire.OK{}, nil
}

func (s *Server) handleReadMirror(m *wire.ReadMirror) (wire.Msg, error) {
	sf, err := s.file(m.File)
	if err != nil {
		return nil, err
	}
	mir := sf.store(s.disk, StoreMirror)
	var total int64
	for _, sp := range m.Spans {
		sf.geom.ToMirrorLocal(s.idx, sp.Off, sp.Len, func(_, _, n int64) { total += n })
	}
	resp := wire.NewReadResp(int(total))
	cur := int64(0)
	for _, sp := range m.Spans {
		sf.geom.ToMirrorLocal(s.idx, sp.Off, sp.Len, func(_, local, n int64) {
			readFill(mir, resp.Data[cur:cur+n], local)
			cur += n
		})
	}
	return resp, nil
}

func (s *Server) handleReadParity(m *wire.ReadParity) (wire.Msg, error) {
	sf, err := s.file(m.File)
	if err != nil {
		return nil, err
	}
	if m.Lock && m.Owner == 0 {
		// Every release path — the unlocking write, UnlockParity, the lease
		// — names the acquisition by its token; one without could only ever
		// be released by accident.
		return nil, fmt.Errorf("server: locked parity read carries no owner token")
	}
	par := sf.store(s.disk, StoreParity)
	su := sf.geom.StripeUnit
	// Locks acquired by this request so far: a failure on a later stripe
	// must release them, or they would be held forever (the client sees one
	// error for the whole request and never sends the unlocking writes).
	var acquired []int64
	rollback := func() {
		for _, stripe := range acquired {
			sf.unlockStripeOwned(stripe, m.Owner)
		}
	}
	for _, stripe := range m.Stripes {
		if _, ok := sf.geom.ParityUnitOn(s.idx, stripe); !ok {
			rollback()
			return nil, fmt.Errorf("server %d does not hold parity of stripe %d", s.idx, stripe)
		}
		if m.Lock {
			if err := sf.lockStripe(stripe, m.Owner); err != nil {
				rollback()
				return nil, err
			}
			acquired = append(acquired, stripe)
		}
	}
	// Every stripe checked and, if asked, locked: only now take the response
	// buffer, so no error path above has one to give back.
	resp := wire.NewReadResp(len(m.Stripes) * int(su))
	for i, stripe := range m.Stripes {
		readFill(par, resp.Data[int64(i)*su:int64(i+1)*su], sf.geom.ParityLocalOffsetOn(s.idx, stripe))
	}
	if m.Lock {
		// All stripes locked: open their durable write intents before the
		// grant leaves the server, so from here to the unlocking parity
		// write every possibly-torn state is journal-covered.
		s.openIntents(sf, m.Stripes, m.Owner, m.LeaseMS)
	}
	return resp, nil
}

func (s *Server) handleWriteParity(m *wire.WriteParity) (wire.Msg, error) {
	sf, err := s.file(m.File)
	if err != nil {
		return nil, err
	}
	par := sf.store(s.disk, StoreParity)
	su := sf.geom.StripeUnit
	if int64(len(m.Data)) != int64(len(m.Stripes))*su {
		return nil, fmt.Errorf("server: parity payload %d bytes for %d stripes of %d",
			len(m.Data), len(m.Stripes), su)
	}
	for _, stripe := range m.Stripes {
		if _, ok := sf.geom.ParityUnitOn(s.idx, stripe); !ok {
			return nil, fmt.Errorf("server %d does not hold parity of stripe %d", s.idx, stripe)
		}
		// An unlocking write is an RMW completion and is only valid
		// while its lock acquisition still holds: if the token no longer owns
		// the lock, the acquisition was canceled (the client timed out and
		// compensated with UnlockParity), making this frame a late ghost —
		// refuse it before writing anything, or its bytes would clobber
		// parity now serialized under another client's lock. Checked for all
		// stripes up front so a multi-stripe ghost writes nothing.
		if m.Unlock {
			// An abandoned intent under this token fences the write even if
			// the lock bookkeeping has not caught up: the lease was revoked
			// (or the client canceled with unknown outcome) and the stripe
			// awaits replay, so the late completion must not land
			// (wire.ErrLeaseExpired tells the writer it lost its lease, not
			// merely the lock).
			sf.mu.Lock()
			rec := sf.intents[stripe]
			expired := rec != nil && rec.owner == m.Owner && rec.abandoned
			sf.mu.Unlock()
			if expired {
				return nil, fmt.Errorf("server: parity write of stripe %d: %w", stripe, wire.ErrLeaseExpired)
			}
			if !sf.ownsLock(stripe, m.Owner) {
				return nil, fmt.Errorf("server: parity lock of stripe %d not held under this token", stripe)
			}
		}
	}
	if !m.Unlock {
		// A fresh full-stripe parity write installs parity correct by
		// construction, superseding any tear an abandoned intent recorded.
		// Retired before the bytes land (see handleResolveIntent for the
		// ordering argument against a racing replay).
		s.resolveAbandonedByWrite(sf, m.Stripes)
	}
	for i, stripe := range m.Stripes {
		s.writePiece(par, sf.geom.ParityLocalOffsetOn(s.idx, stripe), m.Data[int64(i)*su:int64(i+1)*su])
		if m.Unlock {
			// Commit: the read-modify-write completed, the stripe is
			// consistent again. The intent retires before the lock hands
			// off, so the next holder's open cannot collide.
			sf.retireIntent(s, stripe, m.Owner)
			sf.unlockStripeOwned(stripe, m.Owner)
		}
	}
	if m.File.Scheme == wire.Hybrid && !m.Unlock {
		// A fresh (non-RMW) parity write means a full-stripe write is
		// superseding these stripes. This server holds no data of the
		// stripes it stores parity for, so it receives no WriteData for a
		// single-stripe body — but its overflow-mirror table may still
		// cover the previous server's units inside them. Invalidate here
		// so the migration back to RAID5 is complete on every server.
		sf.mu.Lock()
		for _, stripe := range m.Stripes {
			off := sf.geom.StripeStart(stripe)
			sf.ovTable.Invalidate(off, sf.geom.StripeSize())
			sf.ovmTable.Invalidate(off, sf.geom.StripeSize())
		}
		sf.mu.Unlock()
	}
	return &wire.OK{}, nil
}

func (s *Server) handleWriteOverflow(m *wire.WriteOverflow) (wire.Msg, error) {
	sf, err := s.file(m.File)
	if err != nil {
		return nil, err
	}
	k, tbl, next, slots := StoreOverflow, &sf.ovTable, &sf.ovNext, sf.ovSlots
	if m.Mirror {
		k, tbl, next, slots = StoreOverflowMirror, &sf.ovmTable, &sf.ovmNext, sf.ovmSlots
	}
	ov := sf.store(s.disk, k)
	var total int64
	for _, e := range m.Extents {
		total += e.Len
		if e.Len <= 0 {
			return nil, fmt.Errorf("server: overflow extent with non-positive length %d", e.Len)
		}
		if sf.geom.UnitOf(e.Off) != sf.geom.UnitOf(e.Off+e.Len-1) {
			return nil, fmt.Errorf("server: overflow extent [%d,%d) crosses a stripe unit", e.Off, e.Off+e.Len)
		}
	}
	if total != int64(len(m.Data)) {
		return nil, fmt.Errorf("server: overflow payload %d bytes for extents totaling %d",
			len(m.Data), total)
	}

	// Allocation is stripe-unit granular: each updated unit gets a whole
	// unit-sized slot, with the bytes placed at their within-unit offset.
	// This matches the paper's design — "the updated blocks are written to
	// an overflow region" — and reproduces the fragmentation Table 2
	// reports for workloads whose writes are small compared to the stripe
	// unit ("a smaller stripe unit results in less fragmentation in the
	// overflow regions"). A unit keeps one slot for the file's lifetime:
	// later overflow writes to the same unit update it in place, which is
	// what keeps Hartree-Fock's sequential 16 KB stream at RAID1-like 2x
	// storage in Table 2 rather than one slot per request. Slots are only
	// reclaimed by Compact.
	su := sf.geom.StripeUnit
	type placement struct {
		src  int64
		data []byte
	}
	var places []placement
	sf.mu.Lock()
	cur := int64(0)
	for _, e := range m.Extents {
		unit := sf.geom.UnitOf(e.Off)
		within := e.Off - sf.geom.UnitStart(unit)
		slot, ok := slots[unit]
		if ok {
			places = append(places, placement{src: slot + within, data: m.Data[cur : cur+e.Len]})
		} else {
			slot = *next
			*next += su
			slots[unit] = slot
			// Fresh slot: the whole block is written (zero-padded around
			// the new bytes), materializing it on disk as the paper's
			// block-granular overflow does.
			padded := make([]byte, su)
			copy(padded[within:], m.Data[cur:cur+e.Len])
			places = append(places, placement{src: slot, data: padded})
		}
		tbl.Insert(e.Off, e.Len, slot+within)
		cur += e.Len
	}
	sf.mu.Unlock()

	for _, pl := range places {
		s.writePiece(ov, pl.src, pl.data)
	}
	return &wire.OK{}, nil
}

func (s *Server) handleInvalidateOverflow(m *wire.InvalidateOverflow) (wire.Msg, error) {
	sf, err := s.file(m.File)
	if err != nil {
		return nil, err
	}
	tbl := &sf.ovTable
	if m.Mirror {
		tbl = &sf.ovmTable
	}
	sf.mu.Lock()
	for _, sp := range m.Spans {
		tbl.Invalidate(sp.Off, sp.Len)
	}
	sf.mu.Unlock()
	return &wire.OK{}, nil
}

func (s *Server) handleOverflowDump(m *wire.OverflowDump) (wire.Msg, error) {
	sf, err := s.file(m.File)
	if err != nil {
		return nil, err
	}
	k, tbl := StoreOverflow, &sf.ovTable
	if m.Mirror {
		k, tbl = StoreOverflowMirror, &sf.ovmTable
	}
	sf.mu.Lock()
	exts := tbl.Extents()
	sf.mu.Unlock()
	ov := sf.store(s.disk, k)
	resp := &wire.OverflowDumpResp{}
	for _, e := range exts {
		buf := make([]byte, e.Len)
		ov.ReadAt(buf, e.Src) //nolint:errcheck
		resp.Extents = append(resp.Extents, wire.Span{Off: e.Off, Len: e.Len})
		resp.Data = append(resp.Data, buf...)
	}
	return resp, nil
}

func (s *Server) handleSync(m *wire.Sync) (wire.Msg, error) {
	sf, err := s.file(m.File)
	if err != nil {
		return nil, err
	}
	sf.mu.Lock()
	stores := sf.stores
	sf.mu.Unlock()
	for _, f := range stores {
		if f != nil {
			f.Sync()
		}
	}
	return &wire.OK{}, nil
}

// handleStorageStat reports materialized (du-style) bytes: the Hybrid
// scheme's data files are sparse wherever the newest data lives only in
// the overflow region, and the paper's Table 2 sums what the servers'
// disks actually hold.
func (s *Server) handleStorageStat(m *wire.StorageStat) (wire.Msg, error) {
	resp := &wire.StorageStatResp{}
	if m.FileID == 0 {
		resp.Total = s.disk.AllocatedBytes()
		return resp, nil
	}
	s.mu.Lock()
	sf := s.files[m.FileID]
	s.mu.Unlock()
	if sf == nil {
		return resp, nil
	}
	sf.mu.Lock()
	stores := sf.stores
	sf.mu.Unlock()
	for k, f := range stores {
		if f != nil {
			resp.ByStore[k] = f.Allocated()
			resp.Total += f.Allocated()
		}
	}
	return resp, nil
}

func (s *Server) handleRemoveFile(m *wire.RemoveFile) (wire.Msg, error) {
	s.mu.Lock()
	sf := s.files[m.File.ID]
	delete(s.files, m.File.ID)
	s.mu.Unlock()
	if sf != nil {
		s.dropFileIntents(sf)
		for k := Store(0); k < numStores; k++ {
			s.disk.Remove(fmt.Sprintf("f%06d.%s", m.File.ID, storeSuffix[k]))
		}
	}
	s.dropFileDirty(m.File.ID)
	return &wire.OK{}, nil
}

// handleCompactOverflow rewrites the overflow store keeping only the live
// extents, reclaiming superseded and invalidated slots — the background
// storage-recovery process the paper sketches in Section 6.7 ("the storage
// used for overflow regions could be recovered").
func (s *Server) handleCompactOverflow(m *wire.CompactOverflow) (wire.Msg, error) {
	sf, err := s.file(m.File)
	if err != nil {
		return nil, err
	}
	k, tbl, next, slots := StoreOverflow, &sf.ovTable, &sf.ovNext, sf.ovSlots
	if m.Mirror {
		k, tbl, next, slots = StoreOverflowMirror, &sf.ovmTable, &sf.ovmNext, sf.ovmSlots
	}
	ov := sf.store(s.disk, k)

	sf.mu.Lock()
	live := tbl.Extents()
	sf.mu.Unlock()

	// Read the live contents before rewriting the store.
	type kept struct {
		off, length int64
		data        []byte
	}
	keeps := make([]kept, 0, len(live))
	for _, e := range live {
		buf := make([]byte, e.Len)
		ov.ReadAt(buf, e.Src) //nolint:errcheck // zero-fill semantics
		keeps = append(keeps, kept{e.Off, e.Len, buf})
	}

	su := sf.geom.StripeUnit
	sf.mu.Lock()
	tbl.Clear()
	*next = 0
	for u := range slots {
		delete(slots, u)
	}
	ov.Truncate(0)
	// Reinsert with fresh, dense slot allocation.
	type placement struct {
		src  int64
		data []byte
	}
	var places []placement
	for _, kp := range keeps {
		unit := sf.geom.UnitOf(kp.off)
		within := kp.off - sf.geom.UnitStart(unit)
		slot, ok := slots[unit]
		if !ok {
			slot = *next
			*next += su
			slots[unit] = slot
			padded := make([]byte, su)
			copy(padded[within:], kp.data)
			places = append(places, placement{slot, padded})
		} else {
			places = append(places, placement{slot + within, kp.data})
		}
		tbl.Insert(kp.off, kp.length, slot+within)
	}
	sf.mu.Unlock()
	for _, pl := range places {
		s.writePiece(ov, pl.src, pl.data)
	}
	return &wire.OK{}, nil
}

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// handleChecksumRange computes CRC32C checksums over part of one local
// store, so the scrubber can cross-check redundant copies without shipping
// the data over the network. For the flat stores (data, mirror, parity) the
// range is chunked and one checksum per chunk returned; for the overflow
// stores a single aggregate checksum covers every live extent intersecting
// the logical range — offset, length (little-endian uint64s) and contents,
// in table order — so equal sums mean table and bytes both agree.
func (s *Server) handleChecksumRange(m *wire.ChecksumRange) (wire.Msg, error) {
	sf, err := s.file(m.File)
	if err != nil {
		return nil, err
	}
	if m.Store >= wire.NumStores {
		return nil, fmt.Errorf("server: unknown store %d", m.Store)
	}
	if m.Off < 0 || m.Len < 0 {
		return nil, fmt.Errorf("server: negative checksum range [%d,+%d)", m.Off, m.Len)
	}

	if m.Store == wire.StoreOverflow || m.Store == wire.StoreOverflowMirror {
		k, tbl := StoreOverflow, &sf.ovTable
		if m.Store == wire.StoreOverflowMirror {
			k, tbl = StoreOverflowMirror, &sf.ovmTable
		}
		sf.mu.Lock()
		hits := make([]extent.Extent, 0, 8)
		tbl.Lookup(m.Off, m.Len, func(l, src, n int64) {
			hits = append(hits, extent.Extent{Off: l, Len: n, Src: src})
		}, nil)
		sf.mu.Unlock()
		ov := sf.store(s.disk, k)
		var sum uint32
		var total int64
		hdr := make([]byte, 16)
		for _, h := range hits {
			putU64LE(hdr[0:8], uint64(h.Off))
			putU64LE(hdr[8:16], uint64(h.Len))
			sum = crc32.Update(sum, castagnoli, hdr)
			buf := make([]byte, h.Len)
			readDirect(ov, buf, h.Src)
			sum = crc32.Update(sum, castagnoli, buf)
			total += h.Len
		}
		return &wire.ChecksumRangeResp{Sums: []uint32{sum}, Bytes: total}, nil
	}

	f := sf.store(s.disk, Store(m.Store))
	chunk := m.Chunk
	if chunk <= 0 {
		chunk = m.Len
	}
	var sums []uint32
	for cur := m.Off; cur < m.Off+m.Len; cur += chunk {
		n := min(chunk, m.Off+m.Len-cur)
		buf := make([]byte, n)
		readDirect(f, buf, cur)
		sums = append(sums, crc32.Checksum(buf, castagnoli))
	}
	return &wire.ChecksumRangeResp{Sums: sums, Bytes: m.Len}, nil
}

// readDirect reads through the store's cache-bypassing path when the
// backend offers one (the modeled disk does), so a scrub's checksum sweep
// behaves like O_DIRECT: it neither evicts the foreground working set nor
// absorbs its dirty-page write-backs.
func readDirect(f storage.File, p []byte, off int64) {
	type directReader interface {
		ReadAtDirect(p []byte, off int64) (int, error)
	}
	if dr, ok := f.(directReader); ok {
		dr.ReadAtDirect(p, off) //nolint:errcheck // zero-fill semantics
		return
	}
	f.ReadAt(p, off) //nolint:errcheck // zero-fill semantics
}

func putU64LE(b []byte, v uint64) {
	for i := 0; i < 8; i++ {
		b[i] = byte(v >> (8 * i))
	}
}

// lockStripe acquires the FIFO parity lock of one stripe, blocking while
// another client's partial-stripe update is in flight (Section 5.1). owner
// is the acquisition's token, which every release names it by. It
// fails if the acquisition was canceled — either while queued, or before
// it arrived: a token already canceled by UnlockParity is refused
// outright, so a late-delivered locked read cannot re-acquire a lock its
// client gave up on and will never release. A stripe with an abandoned
// write intent fail-stops (wire.ErrStripeTorn): its parity may be stale,
// so no new read-modify-write may base itself on it until replay.
func (sf *serverFile) lockStripe(stripe int64, owner uint64) error {
	sf.mu.Lock()
	if _, ok := sf.canceled[owner]; ok {
		sf.mu.Unlock()
		return fmt.Errorf("server: parity lock of stripe %d canceled", stripe)
	}
	if rec := sf.intents[stripe]; rec != nil && rec.abandoned {
		sf.mu.Unlock()
		return fmt.Errorf("server: stripe %d: %w", stripe, wire.ErrStripeTorn)
	}
	l := sf.locks[stripe]
	if l == nil {
		l = &parityLock{}
		sf.locks[stripe] = l
	}
	if !l.held {
		l.held = true
		l.owner = owner
		sf.mu.Unlock()
		return nil
	}
	ch := make(chan bool, 1)
	l.queue = append(l.queue, lockWaiter{ch: ch, owner: owner})
	sf.mu.Unlock()
	if !<-ch { // woken holding the lock, or canceled
		return fmt.Errorf("server: parity lock of stripe %d canceled", stripe)
	}
	return nil
}

// ownsLock reports whether stripe's parity lock is currently held under
// owner's token.
func (sf *serverFile) ownsLock(stripe int64, owner uint64) bool {
	sf.mu.Lock()
	defer sf.mu.Unlock()
	l := sf.locks[stripe]
	return l != nil && l.held && l.owner == owner
}

// unlockStripeOwned releases the parity lock if it is held under owner's
// token, handing it to the first queued waiter if any. A mismatch is a no-op: an unlock
// whose acquisition was already canceled must never release a lock since
// granted to a different client.
func (sf *serverFile) unlockStripeOwned(stripe int64, owner uint64) {
	sf.mu.Lock()
	l := sf.locks[stripe]
	if l == nil || !l.held || l.owner != owner {
		sf.mu.Unlock()
		return
	}
	if len(l.queue) > 0 {
		w := l.queue[0]
		l.queue = l.queue[1:]
		l.owner = w.owner
		sf.mu.Unlock()
		w.ch <- true
		return
	}
	l.held = false
	l.owner = 0
	sf.mu.Unlock()
}

// rememberCanceled records a canceled acquisition token so late frames
// carrying it are refused, evicting the oldest entry past the bound. Caller
// holds sf.mu.
func (sf *serverFile) rememberCanceled(owner uint64) {
	if _, ok := sf.canceled[owner]; ok {
		return
	}
	sf.canceled[owner] = struct{}{}
	sf.canceledFIFO = append(sf.canceledFIFO, owner)
	if len(sf.canceledFIFO) > canceledTokensMax {
		delete(sf.canceled, sf.canceledFIFO[0])
		sf.canceledFIFO = sf.canceledFIFO[1:]
	}
}

// cancelLock releases stripe's parity lock if held under owner's token, and
// removes any queued acquisitions carrying it (waking them canceled). The
// token is remembered even when nothing matches — that is the case where the
// cancellation overtook its locked read in the dispatch, and the read must
// find the tombstone when it lands.
func (sf *serverFile) cancelLock(stripe int64, owner uint64) {
	sf.mu.Lock()
	sf.rememberCanceled(owner)
	l := sf.locks[stripe]
	if l == nil {
		sf.mu.Unlock()
		return
	}
	var canceled []lockWaiter
	kept := l.queue[:0]
	for _, w := range l.queue {
		if w.owner == owner {
			canceled = append(canceled, w)
		} else {
			kept = append(kept, w)
		}
	}
	l.queue = kept
	var grant *lockWaiter
	if l.held && l.owner == owner {
		if len(l.queue) > 0 {
			w := l.queue[0]
			l.queue = l.queue[1:]
			l.owner = w.owner
			grant = &w
		} else {
			l.held = false
			l.owner = 0
		}
	}
	sf.mu.Unlock()
	for _, w := range canceled {
		w.ch <- false
	}
	if grant != nil {
		grant.ch <- true
	}
}

func (s *Server) handleUnlockParity(m *wire.UnlockParity) (wire.Msg, error) {
	sf, err := s.file(m.File)
	if err != nil {
		return nil, err
	}
	for _, stripe := range m.Stripes {
		if _, ok := sf.geom.ParityUnitOn(s.idx, stripe); !ok {
			return nil, fmt.Errorf("server %d does not hold parity of stripe %d", s.idx, stripe)
		}
		if m.Dirty {
			// Data writes were already in flight when the client gave up,
			// so the stripe may be torn: fail-stop it — abandon the intent
			// and revoke the lock without handing it to queued waiters, who
			// would otherwise read possibly-stale parity. Replay recomputes
			// the parity; recomputing an untouched stripe is merely
			// redundant, never wrong.
			sf.mu.Lock()
			abandoned, woken := sf.failStopLocked(s, stripe, m.Owner)
			sf.mu.Unlock()
			for _, w := range woken {
				w.ch <- false
			}
			if abandoned {
				s.intAbandoned.Add(1)
				continue
			}
			// No open intent (the acquisition never got that far): fall
			// through to the plain cancellation.
		} else {
			// Nothing was written: the stripe is untouched and consistent,
			// so the acquisition's intent — if the grant raced the client's
			// timeout — simply retires.
			sf.retireIntent(s, stripe, m.Owner)
		}
		sf.cancelLock(stripe, m.Owner)
	}
	return &wire.OK{}, nil
}
