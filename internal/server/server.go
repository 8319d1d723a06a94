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
	"math"
	"sync"
	"sync/atomic"
	"time"

	"csar/internal/extent"
	"csar/internal/journal"
	"csar/internal/obs"
	"csar/internal/raid"
	"csar/internal/simtime"
	"csar/internal/storage"
	"csar/internal/wire"
)

// storeSuffix names each per-file local store's file, indexed by wire store.
var storeSuffix = [wire.NumStores]string{"data", "mirror", "parity", "overflow", "ovmirror"}

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

	// Stripe intents and client sessions (see intent.go). imu guards every
	// file's intents, the sessions and the journal; it nests inside sf.mu.
	imu      sync.Mutex
	sessions map[uint64]*session
	expired  fifoSet[uint64] // sessions expired with live intents: their late frames are refused
	jlog     *journal.Pair
	jLive    map[intentKey]uint8 // live intents across all files -> the op that keeps each
	// pendingIntents holds journal-loaded intents by file ID, not yet
	// adopted by a serverFile record. Guarded by mu.
	pendingIntents map[uint64][]intentKey

	// Dirty-region logs of outages this server witnessed as a survivor
	// (see dirty.go). Self-locking; independent of mu and imu.
	dirty dirtyState

	// obs holds the per-RPC-kind latency histograms and the store-level
	// counters/gauges served by the Stats RPC and the /metrics endpoint
	// (stats.go), and publishes the intent/lease counter set (intent.go) and
	// the parity-byte counter set.
	obs     *obs.Registry
	intents *IntentStats
	parity  *ParityStats
	// What every request records into, looked up once, not by name each time.
	rpcHists          *obs.KindHists[wire.Kind]
	bytesIn, bytesOut obs.Counter
}

// ParityStats counts the parity-store bytes requests move — the
// read-modify-write's ReadParity and WriteParity, and the parity store's
// member Read and WriteData — published in the server's registry under the
// tags. A read-modify-write moves only the ranges its update touches.
type ParityStats struct {
	BytesRead    int64 `obs:"parity_bytes_read"`
	BytesWritten int64 `obs:"parity_bytes_written"`
}

// ParityStats returns the current parity-byte counters.
func (s *Server) ParityStats() ParityStats { return obs.LoadCounters(s.parity) }

// Requests returns the number of requests handled since startup.
func (s *Server) Requests() int64 { return s.requests.Load() }

type serverFile struct {
	ref   wire.FileRef
	geom  raid.Geometry
	shape raid.Shape

	mu     sync.Mutex
	stores [wire.NumStores]storage.File
	ov     [2]overflowRegion // the overflow store's, then the overflow mirror's
	locks  map[int64]*parityLock
	// intents holds the file's write intents by stripe, one per
	// acquisition, under s.imu: open and pending ones belong to a
	// read-modify-write whose writes may still be landing, abandoned ones
	// mark possibly torn stripes that refuse new parity locks until
	// replayed (intent.go).
	intents map[int64][]*intentRec
	// canceled remembers acquisitions UnlockParity canceled or a dirty
	// release fail-stopped, so a late-arriving locked ReadParity (its frame
	// delivered after the client's compensating UnlockParity was processed)
	// is refused instead of re-acquiring a lock nobody will ever release.
	canceled fifoSet[acq]
}

// canceledTokensMax bounds the canceled-acquisition memory per file.
// Acquisitions are single-use, so an evicted entry only matters if its
// locked read is still in flight after 4096 later cancellations on the same
// file — far beyond any plausible frame reordering window.
const canceledTokensMax = 4096

// parityLock is one stripe's FIFO parity lock. owner is the holding
// acquisition, zero when the lock is free (a locked read must carry a
// session); each queued waiter remembers its own so UnlockParity can
// surgically cancel a dead peer's acquisition — held or still queued —
// without disturbing anyone else's.
type parityLock struct {
	owner acq
	queue []lockWaiter
}

// handOff passes the lock on to the first queued waiter, returned to be
// woken granted once sf.mu is released, or frees it. Caller holds sf.mu.
func (l *parityLock) handOff() *lockWaiter {
	if len(l.queue) == 0 {
		l.owner = acq{}
		return nil
	}
	w := l.queue[0]
	l.queue = l.queue[1:]
	l.owner = w.owner
	return &w
}

type lockWaiter struct {
	ch    chan bool // true: granted; false: canceled by UnlockParity
	owner acq
}

// New creates a server with the given index (its position in every file's
// stripe layout) backed by disk. It panics, naming the file, on an intent or
// dirty journal it must not misread: one from before the journal format.
func New(idx int, disk storage.Backend, opts Options) *Server {
	if opts.RecvChunk <= 0 {
		opts.RecvChunk = 8 << 10
	}
	if opts.PageSize <= 0 {
		opts.PageSize = 4096
	}
	reg := obs.NewRegistry()
	s := &Server{
		idx:      idx,
		disk:     disk,
		opts:     opts,
		cpu:      simtime.NewLimiter(opts.Clock, 1), // durations only
		files:    make(map[uint64]*serverFile),
		sessions: make(map[uint64]*session),
		obs:      reg,
		intents:  obs.NewCounters[IntentStats](reg),
		parity:   obs.NewCounters[ParityStats](reg),

		rpcHists: obs.NewKindHists[wire.Kind](reg, "rpc_"),
		bytesIn:  reg.Counter("bytes_in"),
		bytesOut: reg.Counter("bytes_out"),
	}
	s.registerGauges()
	s.loadIntents()
	s.loadDirty()
	return s
}

// openPair opens the named server-wide journal on the local backend, the
// logs name and name.1, replaying its records through each.
func (s *Server) openPair(name string, each func([]byte) error) *journal.Pair {
	f0, f1 := s.disk.Open(name), s.disk.Open(name+".1")
	p, err := journal.OpenPair([2]journal.File{journalFile{f0}, journalFile{f1}}, [2]int64{f0.Size(), f1.Size()}, each)
	if err != nil {
		panic(fmt.Errorf("server %d: %s: %w", s.idx, name, err))
	}
	return p
}

// journalFile adapts a local-store file to journal.File; the store reports
// no error from Truncate or Sync.
type journalFile struct{ storage.File }

func (f journalFile) Truncate(size int64) error { f.File.Truncate(size); return nil }
func (f journalFile) Sync() error               { f.File.Sync(); return nil }

// Index returns the server's position in the stripe layout.
func (s *Server) Index() int { return s.idx }

// Disk exposes the underlying storage (tests and the harness inspect its
// storage totals).
func (s *Server) Disk() storage.Backend { return s.disk }

// file returns the state of the file ref names, creating it on first use.
// Every request resolves its ref here, so a server refuses exactly the
// layouts the manager and the client refuse.
func (s *Server) file(ref wire.FileRef) (*serverFile, error) {
	l, err := raid.Resolve(ref)
	if err != nil {
		return nil, fmt.Errorf("server: %w", err)
	}
	if s.idx >= l.Servers {
		return nil, fmt.Errorf("server %d not part of %d-server layout", s.idx, l.Servers)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	sf := s.files[ref.ID]
	if sf == nil {
		sf = &serverFile{
			ref:     ref,
			geom:    l.Geometry,
			shape:   l.Shape,
			ov:      [2]overflowRegion{{slots: make(map[int64]int64)}, {slots: make(map[int64]int64)}},
			locks:   make(map[int64]*parityLock),
			intents: make(map[int64][]*intentRec),
		}
		s.adoptIntents(sf)
		s.files[ref.ID] = sf
	}
	return sf, nil
}

func (sf *serverFile) store(d storage.Backend, k uint8) storage.File {
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
	case *wire.ReadParity:
		return s.handleReadParity(m)
	case *wire.WriteParity:
		return s.handleWriteParity(m)
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
// modeling how the data actually reached the disk, and returns the first
// error the store reports. With write buffering the piece lands in at most
// three aligned flushes (unaligned head, full pages, unaligned tail). Without
// it, every modeled network receive chunk is written immediately, so pages
// straddling chunk boundaries are first touched by partial writes and pay the
// forced read of Section 5.2.
func (s *Server) writePiece(f storage.File, off int64, p []byte) error {
	end := off + int64(len(p))
	for cur := off; cur < end; {
		e := min(cur+int64(s.opts.RecvChunk), end)
		if ps := int64(s.opts.PageSize); s.opts.WriteBuffering {
			switch {
			case cur%ps != 0: // the unaligned head
				e = min(cur-cur%ps+ps, end)
			case end-end%ps > cur: // the full pages
				e = end - end%ps
			default: // the unaligned tail
				e = end
			}
		}
		if _, err := f.WriteAt(p[cur-off:e-off], cur); err != nil {
			return fmt.Errorf("server: store write at %d: %w", cur, err)
		}
		cur = e
	}
	return nil
}

// size checks spans as addresses in one of this server's stores (see
// wire.Read) and returns how many of their bytes the store keeps here. Every
// span must be non-empty, start at or past zero and end where an int64 can.
// A parity span is the bytes of one unit of a stripe whose parity this
// server holds, the whole unit if install is set, and an overflow span lies
// inside one stripe unit whose copy of that store this server holds. It costs
// constant time per span and refuses a total past the frame bound, so a span
// of any length is refused before walk visits a unit of it.
func (sf *serverFile) size(srv int, store uint8, spans []wire.Span, install bool) (int64, error) {
	g := sf.geom
	if store >= wire.NumStores {
		return 0, fmt.Errorf("server: unknown store %d", store)
	}
	owner := srv // whose data units the store keeps
	if store == wire.StoreMirror || store == wire.StoreOverflowMirror {
		owner = (srv + g.Servers - 1) % g.Servers
	}
	var total int64
	for _, sp := range spans {
		if sp.Off < 0 || sp.Len <= 0 || sp.Off > math.MaxInt64-sp.Len {
			return 0, fmt.Errorf("server: span [%d,+%d) is empty, negative or out of range", sp.Off, sp.Len)
		}
		u := g.UnitOf(sp.Off)
		if store >= wire.StoreParity && sp.Off-g.UnitStart(u)+sp.Len > g.StripeUnit {
			return 0, fmt.Errorf("server: %s span [%d,+%d) crosses a stripe unit", storeSuffix[store], sp.Off, sp.Len)
		}
		switch store {
		case wire.StoreData, wire.StoreMirror:
			total += g.LocalBefore(owner, sp.Off+sp.Len) - g.LocalBefore(owner, sp.Off)
		case wire.StoreParity:
			if _, ok := g.ParityUnitOn(srv, u); !ok {
				return 0, fmt.Errorf("server %d does not hold parity of stripe %d", srv, u)
			}
			if install && sp.Len != g.StripeUnit {
				return 0, fmt.Errorf("server: parity install [%d,+%d) is not a whole unit", sp.Off, sp.Len)
			}
			total += sp.Len
		default:
			if g.ServerOf(u) != owner {
				return 0, fmt.Errorf("server %d does not hold the %s of unit %d", srv, storeSuffix[store], u)
			}
			total += sp.Len
		}
		if total > wire.MaxFrame {
			return 0, fmt.Errorf("server: spans of %d bytes or more here exceed the frame bound", total)
		}
	}
	return total, nil
}

// walk visits each contiguous piece of spans, checked by size, that the
// store keeps here, in span then offset order: its logical start, its offset
// in the store and its length. An overflow piece's offset is its logical
// one, which place turns into a slot.
func (sf *serverFile) walk(srv int, store uint8, spans []wire.Span, fn func(logical, local, n int64)) {
	g := sf.geom
	for _, sp := range spans {
		switch store {
		case wire.StoreData:
			g.ToLocal(srv, sp.Off, sp.Len, fn)
		case wire.StoreMirror:
			g.ToMirrorLocal(srv, sp.Off, sp.Len, fn)
		case wire.StoreParity:
			u := g.UnitOf(sp.Off)
			fn(sp.Off, g.ParityLocalOffsetOn(srv, u)+sp.Off-g.UnitStart(u), sp.Len)
		default:
			fn(sp.Off, sp.Off, sp.Len)
		}
	}
}

// handleRead returns the concatenated bytes of the pieces of each span that
// the named store keeps here, in span then offset order — the same iteration
// the client uses to reassemble. Unless Raw is set, overflow-region contents
// override the data store's bytes.
func (s *Server) handleRead(m *wire.Read) (wire.Msg, error) {
	sf, err := s.file(m.File)
	if err != nil {
		return nil, err
	}
	if m.Store == wire.StoreOverflow || m.Store == wire.StoreOverflowMirror {
		return nil, fmt.Errorf("server: the %s store is not read by Read", storeSuffix[m.Store])
	}
	total, err := sf.size(s.idx, m.Store, m.Spans, false)
	if err != nil {
		return nil, err
	}
	if total > wire.MaxFrame-wire.ReadRespHead {
		return nil, fmt.Errorf("server: a read of %d bytes exceeds the frame bound", total)
	}
	f := sf.store(s.disk, m.Store)
	// One exact-size pooled response buffer, read into in place.
	resp := wire.NewReadResp(int(total))
	cur := int64(0)
	sf.walk(s.idx, m.Store, m.Spans, func(logical, local, n int64) {
		buf := resp.Data[cur : cur+n]
		cur += n
		readFill(f, buf, local)
		if m.Store == wire.StoreData && !m.Raw {
			s.patchOverflow(sf, logical, buf)
		}
	})
	if m.Store == wire.StoreParity {
		atomic.AddInt64(&s.parity.BytesRead, total)
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
	sf.ov[0].table.Lookup(logical, int64(len(buf)), func(l, src, n int64) {
		hits = append(hits, extent.Extent{Off: l, Len: n, Src: src})
	}, nil)
	sf.mu.Unlock()
	if len(hits) == 0 {
		return
	}
	ov := sf.store(s.disk, wire.StoreOverflow)
	for _, h := range hits {
		ov.ReadAt(buf[h.Off-logical:h.Off-logical+h.Len], h.Src) //nolint:errcheck
	}
}

// handleWriteData writes a member write's parts into their stores, every
// part's spans checked and the payload's length matched against all of them
// before any byte lands. A write without Raw supersedes (see wire.WriteData).
func (s *Server) handleWriteData(m *wire.WriteData) (wire.Msg, error) {
	sf, err := s.file(m.File)
	if err != nil {
		return nil, err
	}
	var total int64
	for i := 0; i <= len(m.More); i++ {
		store, spans := part(m, i)
		n, err := sf.size(s.idx, store, spans, !m.Raw)
		if err != nil {
			return nil, err
		}
		total += n
	}
	if total != int64(len(m.Data)) {
		return nil, fmt.Errorf("server: write payload %d bytes for the %d its spans hold here", len(m.Data), total)
	}
	data := m.Data
	for i := 0; i <= len(m.More); i++ {
		store, spans := part(m, i)
		if data, err = s.writePart(sf, store, spans, m.Raw, data); err != nil {
			return nil, err
		}
	}
	return &wire.OK{}, nil
}

// part returns part i of m, its store and spans: (Store, Spans), then More.
func part(m *wire.WriteData, i int) (uint8, []wire.Span) {
	if i == 0 {
		return m.Store, m.Spans
	}
	return m.More[i-1].Store, m.More[i-1].Spans
}

// writePart lands one checked part from the front of data, returning the rest.
func (s *Server) writePart(sf *serverFile, store uint8, spans []wire.Span, raw bool, data []byte) ([]byte, error) {
	g := sf.geom
	install := store == wire.StoreParity && !raw
	if install {
		// Installed parity is correct by construction, in whole units only,
		// and supersedes any tear an abandoned intent recorded. Retired
		// before the bytes land (see handleResolveIntent for the ordering
		// argument against a racing replay).
		stripes := make([]int64, len(spans))
		for i, sp := range spans {
			stripes[i] = g.UnitOf(sp.Off)
		}
		s.resolveAbandonedByWrite(sf, stripes)
	}
	f := sf.store(s.disk, store)
	r := sf.overflow(store)
	cur := int64(0)
	var err error
	sf.walk(s.idx, store, spans, func(logical, local, n int64) {
		p := data[cur : cur+n]
		cur += n
		if err != nil {
			return
		}
		if r != nil {
			sf.mu.Lock()
			pl := r.place(g, logical, p)
			sf.mu.Unlock()
			local, p = pl.src, pl.data
		}
		err = s.writePiece(f, local, p)
	})
	if err != nil {
		return nil, err
	}
	if store == wire.StoreParity {
		atomic.AddInt64(&s.parity.BytesWritten, cur)
	}
	if sf.shape.Overflow && (install || store == wire.StoreData && !raw) {
		// A full-stripe write of an overflow shape (Hybrid) supersedes the
		// overflow contents of its stripes: "when a client issues a
		// full-stripe write any data in the overflow region for that stripe
		// is invalidated" (Section 4). The write covers whole stripes, so
		// each server also drops the overflow-mirror entries (which mirror
		// the previous server's units) inside them without any extra
		// message, and a parity server — which holds no data of the stripes
		// it keeps parity for, so receives no data write for a single-stripe
		// body — drops them for the stripes it installs.
		sf.mu.Lock()
		for _, sp := range spans {
			if install {
				sp = wire.Span{Off: g.StripeStart(g.UnitOf(sp.Off)), Len: g.StripeSize()}
			}
			sf.ov[0].table.Invalidate(sp.Off, sp.Len)
			sf.ov[1].table.Invalidate(sp.Off, sp.Len)
		}
		sf.mu.Unlock()
	}
	return data[cur:], nil
}

// unitRanges validates a parity message's in-unit Ranges against the unit
// size su — sorted, disjoint, each non-empty and inside the unit — and
// returns the ranges to move per stripe with the bytes they cover. No ranges
// means the whole unit.
func unitRanges(ranges []wire.Span, su int64) ([]wire.Span, int64, error) {
	if len(ranges) == 0 {
		return []wire.Span{{Len: su}}, su, nil
	}
	var end, n int64
	for _, r := range ranges {
		if r.Len <= 0 || r.Off < end || r.Off > su-r.Len {
			return nil, 0, fmt.Errorf("server: parity range [%d,+%d) is empty, unsorted, overlapping or outside the %d-byte unit",
				r.Off, r.Len, su)
		}
		end = r.Off + r.Len
		n += r.Len
	}
	return ranges, n, nil
}

func (s *Server) handleReadParity(m *wire.ReadParity) (wire.Msg, error) {
	sf, err := s.file(m.File)
	if err != nil {
		return nil, err
	}
	a := acq{m.Session, m.Seq}
	if m.Lock && a.session == 0 {
		// Every release path — the unlocking write, UnlockParity, the
		// session's expiry — names the acquisition by its session; one
		// without could only ever be released by accident.
		return nil, fmt.Errorf("server: locked parity read carries no session")
	}
	su := sf.geom.StripeUnit
	ranges, per, err := unitRanges(m.Ranges, su)
	if err != nil {
		return nil, err
	}
	if m.Lock {
		// Section 5.1's lock order, enforced. A stripe listed twice would
		// also queue its second acquisition behind its own first, forever:
		// a session's expiry revokes only the locks its intents hold, and
		// none is opened until every lock is taken.
		for i := 1; i < len(m.Stripes); i++ {
			if m.Stripes[i] <= m.Stripes[i-1] {
				return nil, fmt.Errorf("server: locked parity read of stripes %v: not strictly ascending", m.Stripes)
			}
		}
	}
	if a.session != 0 {
		// The watermark applies, and the lease renews, before any lock
		// wait: a session with a lease exists from here on, so its
		// heartbeat finds it while this read is queued.
		s.imu.Lock()
		_, err := s.touchLocked(a.session, m.LeaseMS, m.Watermark, m.LeaseMS > 0)
		s.imu.Unlock()
		if err != nil {
			return nil, err
		}
	}
	par := sf.store(s.disk, wire.StoreParity)
	// Locks acquired by this request so far: a failure on a later stripe
	// must release them, or they would be held forever (the client sees one
	// error for the whole request and never sends the unlocking writes).
	var acquired []int64
	rollback := func() {
		for _, stripe := range acquired {
			sf.unlockStripeOwned(stripe, a)
		}
	}
	for _, stripe := range m.Stripes {
		if _, ok := sf.geom.ParityUnitOn(s.idx, stripe); !ok {
			rollback()
			return nil, fmt.Errorf("server %d does not hold parity of stripe %d", s.idx, stripe)
		}
		if m.Lock {
			if err := s.lockStripe(sf, stripe, a); err != nil {
				rollback()
				return nil, err
			}
			acquired = append(acquired, stripe)
		}
	}
	if m.Lock {
		// All stripes locked: open their durable write intents before the
		// grant leaves the server, so from here to the unlocking parity
		// write every possibly-torn state is journal-covered.
		if err := s.openIntents(sf, m.Stripes, a, m.LeaseMS); err != nil {
			rollback()
			return nil, err
		}
	}
	// Every stripe checked and, if asked, locked: only now take the response
	// buffer, so no error path above has one to give back.
	resp := wire.NewReadResp(len(m.Stripes) * int(per))
	at := int64(0)
	for _, stripe := range m.Stripes {
		base := sf.geom.ParityLocalOffsetOn(s.idx, stripe)
		for _, r := range ranges {
			readFill(par, resp.Data[at:at+r.Len], base+r.Off)
			at += r.Len
		}
	}
	atomic.AddInt64(&s.parity.BytesRead, at)
	return resp, nil
}

func (s *Server) handleWriteParity(m *wire.WriteParity) (wire.Msg, error) {
	sf, err := s.file(m.File)
	if err != nil {
		return nil, err
	}
	par := sf.store(s.disk, wire.StoreParity)
	su := sf.geom.StripeUnit
	ranges, per, err := unitRanges(m.Ranges, su)
	if err != nil {
		return nil, err
	}
	if int64(len(m.Data)) != int64(len(m.Stripes))*per {
		return nil, fmt.Errorf("server: parity payload %d bytes for %d stripes of %d",
			len(m.Data), len(m.Stripes), per)
	}
	a := acq{m.Session, m.Seq}
	for _, stripe := range m.Stripes {
		if _, ok := sf.geom.ParityUnitOn(s.idx, stripe); !ok {
			return nil, fmt.Errorf("server %d does not hold parity of stripe %d", s.idx, stripe)
		}
		// An unlocking write is an RMW completion and is only valid
		// while its lock acquisition still holds: if it no longer owns the
		// lock, the acquisition was canceled (the client timed out and
		// compensated with UnlockParity), making this frame a late ghost —
		// refuse it before writing anything, or its bytes would clobber
		// parity now serialized under another client's lock. Checked for all
		// stripes up front so a multi-stripe ghost writes nothing.
		if m.Unlock {
			// An abandoned intent of this acquisition fences the write even
			// if the lock bookkeeping has not caught up: the session expired
			// (or the client canceled with unknown outcome) and the stripe
			// awaits replay, so the late completion must not land
			// (wire.ErrLeaseExpired tells the writer it lost its lease, not
			// merely the lock).
			s.imu.Lock()
			rec := sf.intentOf(stripe, a)
			expired := rec != nil && rec.abandoned
			s.imu.Unlock()
			if expired {
				return nil, fmt.Errorf("server: parity write of stripe %d: %w", stripe, wire.ErrLeaseExpired)
			}
			if !sf.ownsLock(stripe, a) {
				return nil, fmt.Errorf("server: parity lock of stripe %d not held by this acquisition", stripe)
			}
		}
	}
	// A read-modify-write's parity folds a delta into the bytes already
	// there, so it supersedes nothing. A failed store write stops before the
	// stripe's unlock: the client's dirty release or its session's expiry
	// then handles the stripe, as for a lost request.
	at := int64(0)
	for _, stripe := range m.Stripes {
		base := sf.geom.ParityLocalOffsetOn(s.idx, stripe)
		for _, r := range ranges {
			if err := s.writePiece(par, base+r.Off, m.Data[at:at+r.Len]); err != nil {
				return nil, err
			}
			at += r.Len
		}
		if m.Unlock {
			// The parity half of the read-modify-write landed; its data
			// writes, sent beside this one, may not have. The intent stays,
			// pending, until the session's watermark passes it, and the
			// lock hands off now: the next holder reads parity that already
			// carries this update.
			s.pendIntent(sf, stripe, a)
			sf.unlockStripeOwned(stripe, a)
		}
	}
	atomic.AddInt64(&s.parity.BytesWritten, at)
	return &wire.OK{}, nil
}

// overflowRegion indexes one overflow store: which of its slots holds each
// logical range.
//
// Allocation is stripe-unit granular: each updated unit gets a whole
// unit-sized slot, with the bytes placed at their within-unit offset. This
// matches the paper's design — "the updated blocks are written to an
// overflow region" — and reproduces the fragmentation Table 2 reports for
// workloads whose writes are small compared to the stripe unit ("a smaller
// stripe unit results in less fragmentation in the overflow regions"). A
// unit keeps one slot for the file's lifetime: later overflow writes to the
// same unit update it in place, which is what keeps Hartree-Fock's
// sequential 16 KB stream at RAID1-like 2x storage in Table 2 rather than
// one slot per request. Slots are only reclaimed by Compact.
type overflowRegion struct {
	table extent.Map      // logical range -> offset in the store
	next  int64           // allocation cursor
	slots map[int64]int64 // stripe unit -> its slot base
}

// overflow returns the index of an overflow store, nil for any other store.
func (sf *serverFile) overflow(store uint8) *overflowRegion {
	if store < wire.StoreOverflow || store >= wire.NumStores {
		return nil
	}
	return &sf.ov[store-wire.StoreOverflow]
}

// placement is bytes bound for an overflow store at offset src.
type placement struct {
	src  int64
	data []byte
}

// place indexes data, the bytes of [off, off+len(data)) within one stripe
// unit, at the unit's slot and returns where to write them. A unit's first
// bytes allocate its slot, which is written whole — zero-padded around the
// bytes — materializing the block on disk as the paper's block-granular
// overflow does. Caller holds sf.mu.
func (r *overflowRegion) place(g raid.Geometry, off int64, data []byte) placement {
	unit := g.UnitOf(off)
	within := off - g.UnitStart(unit)
	slot, ok := r.slots[unit]
	if !ok {
		slot = r.next
		r.next += g.StripeUnit
		r.slots[unit] = slot
	}
	r.table.Insert(off, int64(len(data)), slot+within)
	if ok {
		return placement{slot + within, data}
	}
	padded := make([]byte, g.StripeUnit)
	copy(padded[within:], data)
	return placement{slot, padded}
}

func (s *Server) handleInvalidateOverflow(m *wire.InvalidateOverflow) (wire.Msg, error) {
	sf, err := s.file(m.File)
	if err != nil {
		return nil, err
	}
	r := sf.overflow(wire.OverflowStore(m.Mirror))
	sf.mu.Lock()
	for _, sp := range m.Spans {
		r.table.Invalidate(sp.Off, sp.Len)
	}
	sf.mu.Unlock()
	return &wire.OK{}, nil
}

func (s *Server) handleOverflowDump(m *wire.OverflowDump) (wire.Msg, error) {
	sf, err := s.file(m.File)
	if err != nil {
		return nil, err
	}
	k := wire.OverflowStore(m.Mirror)
	r := sf.overflow(k)
	sf.mu.Lock()
	exts := r.table.Extents()
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

// handleRemoveFile deletes the file's stores, intents and dirty logs. It
// materializes the file first, adopting the intents a restart parked.
func (s *Server) handleRemoveFile(m *wire.RemoveFile) (wire.Msg, error) {
	sf, err := s.file(m.File)
	if err != nil {
		return nil, err
	}
	s.mu.Lock()
	delete(s.files, m.File.ID)
	s.mu.Unlock()
	s.dropFileIntents(sf)
	for k := range storeSuffix {
		s.disk.Remove(fmt.Sprintf("f%06d.%s", m.File.ID, storeSuffix[k]))
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
	k := wire.OverflowStore(m.Mirror)
	r := sf.overflow(k)
	ov := sf.store(s.disk, k)

	sf.mu.Lock()
	live := r.table.Extents()
	sf.mu.Unlock()

	// Read the live contents before rewriting the store.
	kept := make([][]byte, len(live))
	for i, e := range live {
		kept[i] = make([]byte, e.Len)
		ov.ReadAt(kept[i], e.Src) //nolint:errcheck // zero-fill semantics
	}

	sf.mu.Lock()
	r.table.Clear()
	r.next = 0
	clear(r.slots)
	ov.Truncate(0)
	// Reinsert with fresh, dense slot allocation.
	places := make([]placement, len(live))
	for i, e := range live {
		places[i] = r.place(sf.geom, e.Off, kept[i])
	}
	sf.mu.Unlock()
	for _, pl := range places {
		if err := s.writePiece(ov, pl.src, pl.data); err != nil {
			return nil, err
		}
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
		r := sf.overflow(m.Store)
		sf.mu.Lock()
		hits := make([]extent.Extent, 0, 8)
		r.table.Lookup(m.Off, m.Len, func(l, src, n int64) {
			hits = append(hits, extent.Extent{Off: l, Len: n, Src: src})
		}, nil)
		sf.mu.Unlock()
		ov := sf.store(s.disk, m.Store)
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

	f := sf.store(s.disk, m.Store)
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
// another client's partial-stripe update is in flight (Section 5.1). a is
// the acquisition, which every release names it by. It fails if the
// acquisition was canceled — either while queued, or before it arrived: an
// acquisition already canceled by UnlockParity is refused outright, so a
// late-delivered locked read cannot re-acquire a lock its client gave up on
// and will never release. A stripe with an abandoned write intent
// fail-stops (wire.ErrStripeTorn): its parity may be stale, so no new
// read-modify-write may base itself on it until replay.
func (s *Server) lockStripe(sf *serverFile, stripe int64, a acq) error {
	sf.mu.Lock()
	if _, ok := sf.canceled.has[a]; ok {
		sf.mu.Unlock()
		return fmt.Errorf("server: parity lock of stripe %d canceled", stripe)
	}
	s.imu.Lock()
	torn := sf.anyIntent(stripe, true)
	s.imu.Unlock()
	if torn {
		sf.mu.Unlock()
		return fmt.Errorf("server: stripe %d: %w", stripe, wire.ErrStripeTorn)
	}
	l := sf.locks[stripe]
	if l == nil {
		l = &parityLock{}
		sf.locks[stripe] = l
	}
	if l.owner == (acq{}) {
		l.owner = a
		sf.mu.Unlock()
		return nil
	}
	ch := make(chan bool, 1)
	l.queue = append(l.queue, lockWaiter{ch: ch, owner: a})
	sf.mu.Unlock()
	if !<-ch { // woken holding the lock, or canceled
		return fmt.Errorf("server: parity lock of stripe %d canceled", stripe)
	}
	return nil
}

// ownsLock reports whether stripe's parity lock is currently held by a.
func (sf *serverFile) ownsLock(stripe int64, a acq) bool {
	sf.mu.Lock()
	defer sf.mu.Unlock()
	l := sf.locks[stripe]
	return l != nil && l.owner == a
}

// unlockStripeOwned releases the parity lock if a holds it, handing it to
// the first queued waiter if any. A mismatch is a no-op: an unlock whose
// acquisition was already canceled must never release a lock since granted
// to a different client.
func (sf *serverFile) unlockStripeOwned(stripe int64, a acq) {
	sf.mu.Lock()
	var grant *lockWaiter
	if l := sf.locks[stripe]; l != nil && l.owner == a {
		grant = l.handOff()
	}
	sf.mu.Unlock()
	if grant != nil {
		grant.ch <- true
	}
}

// cancelLock releases stripe's parity lock if a holds it, and removes any
// queued acquisitions by a (waking them canceled). The acquisition is
// remembered even when nothing matches — that is the case where the
// cancellation overtook its locked read in the dispatch, and the read must
// find the tombstone when it lands.
func (sf *serverFile) cancelLock(stripe int64, a acq) {
	sf.mu.Lock()
	sf.canceled.add(a, canceledTokensMax)
	l := sf.locks[stripe]
	if l == nil {
		sf.mu.Unlock()
		return
	}
	var canceled []lockWaiter
	kept := l.queue[:0]
	for _, w := range l.queue {
		if w.owner == a {
			canceled = append(canceled, w)
		} else {
			kept = append(kept, w)
		}
	}
	l.queue = kept
	var grant *lockWaiter
	if l.owner == a {
		grant = l.handOff()
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
	a := acq{m.Session, m.Seq}
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
			abandoned, woken := s.failStopLocked(sf, stripe, a)
			sf.mu.Unlock()
			for _, w := range woken {
				w.ch <- false
			}
			if abandoned {
				continue
			}
			// No open intent (the acquisition never got that far): fall
			// through to the plain cancellation.
		} else {
			// Nothing was written: the stripe is untouched and consistent,
			// so the acquisition's intent — if the grant raced the client's
			// timeout — simply retires.
			s.retireIntent(sf, stripe, a)
		}
		sf.cancelLock(stripe, a)
	}
	return &wire.OK{}, nil
}
