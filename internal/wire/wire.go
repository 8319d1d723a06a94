// Package wire defines the CSAR on-the-wire protocol: the redundancy scheme
// identifiers, the file reference carried by every I/O request, and the
// binary encoding of all client↔manager and client↔I/O-server messages.
//
// The protocol mirrors the PVFS architecture the paper extends: clients
// obtain a file's layout from the manager once, then talk to the I/O
// servers directly. Servers are stateless with respect to clients — every
// request carries the compact file reference (ID, stripe geometry, scheme),
// so a server can be restarted or a client can fail without any session
// cleanup.
package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
	"strings"
)

// Scheme identifies a redundancy scheme. The first four are the schemes the
// paper evaluates; the last two are the instrumented variants used in its
// microbenchmarks (Figure 3's R5 NO LOCK and Figure 4a's RAID5-npc).
type Scheme uint8

const (
	// Raid0 is plain PVFS striping with no redundancy.
	Raid0 Scheme = iota
	// Raid1 mirrors every stripe unit onto the next server's redundancy file.
	Raid1
	// Raid5 keeps one rotating parity unit per stripe of N-1 data units.
	Raid5
	// Hybrid writes full stripes as RAID5 and partial stripes as mirrored
	// overflow-region writes — the paper's contribution.
	Hybrid
	// Raid5NoLock is RAID5 with the parity-consistency locking disabled.
	// It transfers the same bytes but may corrupt parity under concurrency;
	// it exists only to measure the locking overhead (Figure 3).
	Raid5NoLock
	// Raid5NPC is RAID5 with the client's parity computation elided (the
	// parity buffer is written without being XOR-computed). It isolates the
	// CPU cost of parity generation (Figure 4a).
	Raid5NPC
	// ReedSolomon keeps m rotating Reed-Solomon parity units per stripe of
	// k = N-m data units (GF(256) systematic code), tolerating any m
	// simultaneous server failures. The per-file parity count rides in
	// FileRef.Parity.
	ReedSolomon
)

var schemeNames = map[Scheme]string{
	Raid0:       "raid0",
	Raid1:       "raid1",
	Raid5:       "raid5",
	Hybrid:      "hybrid",
	Raid5NoLock: "raid5-nolock",
	Raid5NPC:    "raid5-npc",
	ReedSolomon: "rs",
}

func (s Scheme) String() string {
	if n, ok := schemeNames[s]; ok {
		return n
	}
	return fmt.Sprintf("scheme(%d)", uint8(s))
}

// SchemeNames returns every scheme name ParseScheme accepts, in scheme-value
// order. CLI usage text and error messages enumerate schemes through it so
// the list cannot drift from the protocol as schemes are added.
func SchemeNames() []string {
	out := make([]string, 0, len(schemeNames))
	for s := Scheme(0); int(s) < len(schemeNames); s++ {
		out = append(out, schemeNames[s])
	}
	return out
}

// ParseScheme converts a scheme name as printed by String back to a Scheme.
func ParseScheme(name string) (Scheme, error) {
	for s, n := range schemeNames {
		if n == name {
			return s, nil
		}
	}
	return 0, fmt.Errorf("wire: unknown scheme %q (want one of: %s)",
		name, strings.Join(SchemeNames(), ", "))
}

// UsesParity reports whether the scheme maintains rotating parity units
// (XOR for the RAID5 family, GF(256) rows for Reed-Solomon).
func (s Scheme) UsesParity() bool {
	switch s {
	case Raid5, Hybrid, Raid5NoLock, Raid5NPC, ReedSolomon:
		return true
	}
	return false
}

// UsesMirror reports whether the scheme maintains RAID1-style whole-unit
// mirrors of in-place data.
func (s Scheme) UsesMirror() bool { return s == Raid1 }

// UsesLocking reports whether partial-stripe parity updates take the
// distributed parity lock.
func (s Scheme) UsesLocking() bool {
	switch s {
	case Raid5, Hybrid, Raid5NPC, ReedSolomon:
		return true
	}
	return false
}

// FileRef is the compact file description carried in every I/O request.
type FileRef struct {
	ID         uint64
	Servers    uint16
	StripeUnit uint32
	Scheme     Scheme
	// Parity is the number of parity units per stripe for ReedSolomon
	// files; the single-parity schemes leave it zero (meaning one).
	Parity uint8
}

// ParityUnits returns the effective parity-unit count of the file's
// geometry: Parity for ReedSolomon, defaulted to one for the XOR schemes.
func (r FileRef) ParityUnits() int {
	if r.Parity < 1 {
		return 1
	}
	return int(r.Parity)
}

// Span is a byte range [Off, Off+Len) of the logical file.
type Span struct {
	Off int64
	Len int64
}

// Kind identifies a message type.
type Kind uint8

// Message kinds. Requests and responses share one space.
const (
	KError Kind = iota + 1
	KOK
	KPing

	// I/O server requests.
	KRead
	KReadResp
	KWriteData
	KWriteMirror
	KReadMirror
	KReadParity
	KWriteParity
	KWriteOverflow
	KInvalidateOverflow
	KOverflowDump
	KOverflowDumpResp
	KSync
	KDropCaches
	KStorageStat
	KStorageStatResp
	KRemoveFile
	KCompactOverflow

	// Manager requests.
	KCreate
	KCreateResp
	KOpen
	KOpenResp
	KSetSize
	KRemove
	KList
	KListResp
	KServerList
	KServerListResp

	// Integrity scrubbing (appended so earlier kinds keep their values).
	KChecksumRange
	KChecksumRangeResp

	// Resilience layer (appended so earlier kinds keep their values).
	KHealth
	KHealthResp
	KUnlockParity

	// Crash consistency: leased parity locks and the stripe intent journal
	// (appended so earlier kinds keep their values).
	KRenewLease
	KRenewLeaseResp
	KListIntents
	KListIntentsResp
	KResolveIntent

	// Online incremental resync: the dirty-region log of an outage
	// (appended so earlier kinds keep their values).
	KMarkDirty
	KDirtyDump
	KDirtyDumpResp
	KClearDirty

	// Observability: the server-side stats dump
	// (appended so earlier kinds keep their values).
	KStats
	KStatsResp

	// Metadata high availability: primary→standby operation replication and
	// the manager role/epoch probe (appended so earlier kinds keep their
	// values).
	KMetaReplicate
	KMetaReplicateResp
	KMetaStatus
	KMetaStatusResp

	// Online scheme migration (appended so earlier kinds keep their
	// values): pinning, committing and aborting a file's layout change at
	// the manager.
	KSetScheme
	KSetSchemeResp
	KCommitScheme
	KAbortScheme
)

// KindTraceFlag is the high bit of the kind byte in a marshaled frame. Kinds
// themselves stay below it (the iota above must never reach 0x80, which
// TestKindsBelowTraceFlag enforces); a set flag means an 8-byte little-endian
// trace ID follows the kind byte before the message body. Decoders that
// predate the flag reject such frames as unknown kinds rather than
// misparsing them.
const KindTraceFlag uint8 = 0x80

var kindNames = map[Kind]string{
	KError:              "error",
	KOK:                 "ok",
	KPing:               "ping",
	KRead:               "read",
	KReadResp:           "read_resp",
	KWriteData:          "write_data",
	KWriteMirror:        "write_mirror",
	KReadMirror:         "read_mirror",
	KReadParity:         "read_parity",
	KWriteParity:        "write_parity",
	KWriteOverflow:      "write_overflow",
	KInvalidateOverflow: "invalidate_overflow",
	KOverflowDump:       "overflow_dump",
	KOverflowDumpResp:   "overflow_dump_resp",
	KSync:               "sync",
	KDropCaches:         "drop_caches",
	KStorageStat:        "storage_stat",
	KStorageStatResp:    "storage_stat_resp",
	KRemoveFile:         "remove_file",
	KCompactOverflow:    "compact_overflow",
	KCreate:             "create",
	KCreateResp:         "create_resp",
	KOpen:               "open",
	KOpenResp:           "open_resp",
	KSetSize:            "set_size",
	KRemove:             "remove",
	KList:               "list",
	KListResp:           "list_resp",
	KServerList:         "server_list",
	KServerListResp:     "server_list_resp",
	KChecksumRange:      "checksum_range",
	KChecksumRangeResp:  "checksum_range_resp",
	KHealth:             "health",
	KHealthResp:         "health_resp",
	KUnlockParity:       "unlock_parity",
	KRenewLease:         "renew_lease",
	KRenewLeaseResp:     "renew_lease_resp",
	KListIntents:        "list_intents",
	KListIntentsResp:    "list_intents_resp",
	KResolveIntent:      "resolve_intent",
	KMarkDirty:          "mark_dirty",
	KDirtyDump:          "dirty_dump",
	KDirtyDumpResp:      "dirty_dump_resp",
	KClearDirty:         "clear_dirty",
	KStats:              "stats",
	KStatsResp:          "stats_resp",
	KMetaReplicate:      "meta_replicate",
	KMetaReplicateResp:  "meta_replicate_resp",
	KMetaStatus:         "meta_status",
	KMetaStatusResp:     "meta_status_resp",
	KSetScheme:          "set_scheme",
	KSetSchemeResp:      "set_scheme_resp",
	KCommitScheme:       "commit_scheme",
	KAbortScheme:        "abort_scheme",
}

// String names a kind for logs and metric labels (e.g. the per-RPC-kind
// latency histograms are named "rpc_" + Kind.String()).
func (k Kind) String() string {
	if n, ok := kindNames[k]; ok {
		return n
	}
	return fmt.Sprintf("kind(%d)", uint8(k))
}

// Store kinds addressable by ChecksumRange, in the order of
// StorageStatResp.ByStore and the server's local store layout.
const (
	StoreData uint8 = iota
	StoreMirror
	StoreParity
	StoreOverflow
	StoreOverflowMirror
	NumStores
)

// Msg is one protocol message.
type Msg interface {
	Kind() Kind
	encode(e *Encoder)
	decode(d *Decoder)
}

// Error codes classify failure responses so a client can tell an
// application-level refusal (bad arguments, unknown file — retrying cannot
// help) from server unavailability (the retry/failover layer's business).
const (
	// CodeGeneric marks an application error: the server is alive and
	// answered; the request itself was rejected.
	CodeGeneric uint8 = iota
	// CodeUnavailable marks a server that cannot serve requests at all
	// (stopped, partitioned behind a proxy, shutting down). Errors with
	// this code unwrap to ErrUnavailable.
	CodeUnavailable
	// CodeLeaseExpired marks a request refused because the parity-lock
	// lease it rode on was revoked: the server expired the lease, woke the
	// lock queue and abandoned the stripe's intent, so the caller's update
	// must not land. Errors with this code unwrap to ErrLeaseExpired.
	CodeLeaseExpired
	// CodeStripeTorn marks a stripe that is fail-stopped awaiting intent
	// replay: a crashed or expired update may have left its parity stale,
	// so new parity-lock acquisitions are refused until ReplayIntents (or a
	// fresh full-stripe write) reconciles it. Errors with this code unwrap
	// to ErrStripeTorn.
	CodeStripeTorn
	// CodeNotPrimary marks a metadata mutation refused by a standby
	// manager: the server is healthy but not the namespace's primary, so
	// the client should fail over to the next manager in its list. Errors
	// with this code unwrap to ErrNotPrimary.
	CodeNotPrimary
	// CodeStaleEpoch marks a request fenced for carrying a primary epoch
	// older than the receiver's: the sender was deposed and must not be
	// allowed to mutate state it no longer owns — the metadata analogue of
	// CodeLeaseExpired fencing stale parity writes. Errors with this code
	// unwrap to ErrStaleEpoch.
	CodeStaleEpoch
)

// ErrUnavailable is the sentinel behind CodeUnavailable errors: matching it
// with errors.Is classifies a failure as server unavailability regardless
// of which transport delivered it.
var ErrUnavailable = errors.New("server unavailable")

// ErrLeaseExpired is the sentinel behind CodeLeaseExpired errors: the
// caller's parity-lock lease was revoked before its unlocking parity write
// arrived.
var ErrLeaseExpired = errors.New("parity lock lease expired")

// ErrStripeTorn is the sentinel behind CodeStripeTorn errors: the stripe
// has an abandoned write intent and is refusing new parity-lock
// acquisitions until its parity is replayed.
var ErrStripeTorn = errors.New("stripe awaiting intent replay")

// ErrNotPrimary is the sentinel behind CodeNotPrimary errors: the manager
// answering is a standby; metadata mutations belong on the primary.
var ErrNotPrimary = errors.New("manager is not primary")

// ErrStaleEpoch is the sentinel behind CodeStaleEpoch errors: the request
// carried a primary epoch older than the receiver's, so its sender has been
// deposed and its operation was fenced off.
var ErrStaleEpoch = errors.New("stale manager epoch")

// ErrorCodeOf maps a handler error to the wire code its Error response
// should carry.
func ErrorCodeOf(err error) uint8 {
	switch {
	case errors.Is(err, ErrUnavailable):
		return CodeUnavailable
	case errors.Is(err, ErrLeaseExpired):
		return CodeLeaseExpired
	case errors.Is(err, ErrStripeTorn):
		return CodeStripeTorn
	case errors.Is(err, ErrNotPrimary):
		return CodeNotPrimary
	case errors.Is(err, ErrStaleEpoch):
		return CodeStaleEpoch
	}
	return CodeGeneric
}

// Error is the generic failure response; the RPC layer converts it to a Go
// error on the caller's side. Code classifies the failure (see CodeGeneric,
// CodeUnavailable).
type Error struct {
	Text string
	Code uint8
}

// Unwrap lets errors.Is see through a decoded failure response to the
// sentinel its code stands for (ErrUnavailable, ErrLeaseExpired,
// ErrStripeTorn).
func (m *Error) Unwrap() error {
	switch m.Code {
	case CodeUnavailable:
		return ErrUnavailable
	case CodeLeaseExpired:
		return ErrLeaseExpired
	case CodeStripeTorn:
		return ErrStripeTorn
	case CodeNotPrimary:
		return ErrNotPrimary
	case CodeStaleEpoch:
		return ErrStaleEpoch
	}
	return nil
}

// OK is the empty success response.
type OK struct{}

// Ping checks liveness.
type Ping struct{}

// Read asks an I/O server for the given logical spans of a file. The server
// returns the newest data, patching in overflow-region contents, unless Raw
// is set (recovery wants the in-place data file contents only).
type Read struct {
	File  FileRef
	Spans []Span
	Raw   bool
}

// ReadResp carries the concatenated bytes of the requested spans or stripes.
//
// Data may live in a pooled buffer: a server fills one obtained from
// NewReadResp, and a response decoded by the transport views the frame it
// arrived in (HoldBuf). Whoever consumes the response calls Release when it
// is done with Data. Forgetting to is a missed optimisation, never a bug —
// the buffer is simply garbage-collected.
type ReadResp struct {
	Data []byte
	buf  *[]byte // pooled buffer Data lives in; nil for an ordinary slice
}

// NewReadResp returns a response whose Data is n bytes of a pooled buffer,
// contents unspecified: the producer must fill all of it.
func NewReadResp(n int) *ReadResp {
	bp := GetBuf(n)
	return &ReadResp{Data: *bp, buf: bp}
}

// HoldBuf hands m the pooled buffer its Data views — the frame it was
// decoded from — for Release to recycle.
func (m *ReadResp) HoldBuf(bp *[]byte) { m.buf = bp }

// Release recycles the pooled buffer behind Data, which must not be used
// afterward (it is cleared). It is safe on a nil response, on one that never
// sat on a pooled buffer, and when repeated.
func (m *ReadResp) Release() {
	if m == nil || m.buf == nil {
		return
	}
	bp := m.buf
	m.Data, m.buf = nil, nil
	PutBuf(bp)
}

// ownedPayload is embedded in the write requests whose bulk Data a client
// gathers into a pooled buffer (GetBuf) made for that one message. HoldBuf
// hands the message the buffer; MarshalFrame moves it on into the Frame,
// whose Free recycles it when the write has finished with the bytes — so the
// sender never copies the payload again and need not outlive the send. A
// message that is never marshaled (an in-process transport, a call refused
// before it was sent) leaves its buffer to the garbage collector.
type ownedPayload struct{ buf *[]byte }

// HoldBuf hands m the pooled buffer its Data lives in. The buffer is m's
// alone from here on: the caller keeps no other use of it.
func (o *ownedPayload) HoldBuf(bp *[]byte) { o.buf = bp }

// takePayload moves the held buffer out of the message (nil if none): a
// second marshal of the same message finds nothing to recycle.
func (o *ownedPayload) takePayload() *[]byte {
	bp := o.buf
	o.buf = nil
	return bp
}

// WriteData writes the given logical spans in place into the data file. Raw
// marks a repair or rebuild write: the bytes are restored in place exactly,
// without the overflow invalidation a Hybrid foreground full-stripe write
// implies (a repair must not discard newer overflow contents of the range).
type WriteData struct {
	File  FileRef
	Spans []Span
	Data  []byte
	Raw   bool
	ownedPayload
}

// WriteMirror writes the RAID1 mirror copies of the given logical spans into
// the redundancy file. The receiving server is the mirror server of the
// spans' stripe units.
type WriteMirror struct {
	File  FileRef
	Spans []Span
	Data  []byte
	ownedPayload
}

// ReadMirror reads mirror copies (for degraded reads and verification).
type ReadMirror struct {
	File  FileRef
	Spans []Span
}

// ReadParity reads whole parity units of the listed stripes. With Lock set,
// the server acquires the stripe's parity lock before answering (the
// Section 5.1 protocol: a parity read announces a partial-stripe update).
// Owner is the caller's lock token for that acquisition: a later
// UnlockParity carrying the same token releases exactly this acquisition
// and no other, so a client whose locked read timed out can free a
// possibly-granted lock without ever stealing one granted to someone else.
//
// A locked read also opens a durable write intent per stripe (the stripe
// may be torn until the closing WriteParity commits it). LeaseMS, when
// non-zero, bounds how long the acquisition may stay open without a
// RenewLease heartbeat: past the deadline the server revokes the lock,
// wakes the FIFO queue and marks the intent abandoned, so a dead client
// cannot wedge the stripe.
type ReadParity struct {
	File    FileRef
	Stripes []int64
	Lock    bool
	Owner   uint64
	LeaseMS uint32
}

// UnlockParity force-releases the parity locks of the listed stripes if —
// and only if — they are held (or queued) under the given Owner token. It
// is the escape hatch for a dead or timed-out peer: the lock protocol of
// Section 5.1 releases locks with WriteParity{Unlock}, but a client that
// never saw its locked-read response cannot know whether it holds the lock,
// and sends this instead. A token that matches nothing is a no-op.
//
// Dirty tells the server how far the canceling client got. False — the
// usual case — means no data write was ever issued: the stripe is
// untouched, so the server retires the acquisition's intent and hands the
// lock to the next waiter. True means data writes were already in flight
// when the update was given up on, so the stripe may be torn: the server
// abandons the intent and fail-stops the stripe (lock revoked, queue
// canceled, new acquisitions refused) until recovery replays it.
type UnlockParity struct {
	File    FileRef
	Stripes []int64
	Owner   uint64
	Dirty   bool
}

// RenewLease extends the lease on parity locks held under Owner for the
// listed stripes of a file — the client heartbeat that keeps a long
// read-modify-write alive. Each matching, still-held, non-abandoned
// acquisition has its deadline pushed LeaseMS past now.
type RenewLease struct {
	File    FileRef
	Stripes []int64
	Owner   uint64
	LeaseMS uint32
}

// RenewLeaseResp reports how many of the requested stripes were actually
// renewed. Renewed < len(Stripes) means some lease already expired (the
// lock was revoked and the intent abandoned); the writer must treat its
// update as fenced off.
type RenewLeaseResp struct {
	Renewed uint32
}

// Intent is one stripe write intent in a ListIntentsResp. Abandoned
// intents (lease expired, crash-restart load, explicit UnlockParity)
// mark possibly-torn stripes awaiting replay; open intents belong to an
// in-flight read-modify-write and must be left alone.
type Intent struct {
	Stripe    int64
	Owner     uint64
	Abandoned bool
}

// ListIntents asks a server for the write intents it holds for a file —
// exactly the set of stripes whose parity may not match their data.
// Recovery replays the abandoned ones; the scrubber skips all of them so
// it never "repairs" a stripe mid-update.
type ListIntents struct{ File FileRef }

// ListIntentsResp is the reply to ListIntents.
type ListIntentsResp struct{ Intents []Intent }

// ResolveIntent retires an abandoned intent by installing parity
// recomputed from the stripe's data units. Data must be one full parity
// unit. Owner zero resolves regardless of which token abandoned the
// intent; a non-zero Owner resolves only its own. The server refuses to
// touch an intent that is still open (the update is live), and treats a
// missing intent as already resolved.
type ResolveIntent struct {
	File   FileRef
	Stripe int64
	Owner  uint64
	Data   []byte
}

// MarkDirty records, on a surviving server, which regions a degraded write
// could not deliver to the dead server — the dirty-region log that lets
// recovery resynchronize only what the outage actually touched instead of
// rebuilding every store. Clients send it to the dead server's two
// neighbours (its mirror partners) before issuing the degraded write
// itself, so by the time any data lands the damage is already durably
// logged.
//
// Units are stripe units owned by Dead whose in-place bytes it missed;
// Mirrors are units whose RAID1 mirror copy on Dead is stale; Stripes are
// parity stripes owned by Dead whose parity it missed; Overflow marks that
// Dead's overflow or overflow-mirror store diverged (extents appended or
// invalidated while it was away) and must be reconciled wholesale.
//
// Epoch identifies the outage: each client mints a random non-zero epoch at
// its first degraded write per (file, dead server) and stamps every record
// with it. A replica that lost its log (blank replacement disk) comes back
// with a different epoch set than its peer, which resync detects and
// answers with a full rebuild instead of a silent under-resync. An Epoch of
// zero is the poison value: the sending client could not replicate some
// earlier record, so the log must be considered incomplete.
type MarkDirty struct {
	File     FileRef
	Dead     uint16
	Epoch    uint64
	Units    []int64
	Mirrors  []int64
	Stripes  []int64
	Overflow bool
}

// DirtyDump asks a surviving server for its dirty-region log of (File,
// Dead). Resync snapshots both replicas' logs, replays the union, and
// clears exactly what it read.
type DirtyDump struct {
	File FileRef
	Dead uint16
}

// DirtyItem is one logged dirty region (a unit or stripe index) together
// with the generation at which it was last re-dirtied. Generations make the
// dump→replay→clear cycle race-free under concurrent foreground writes: a
// ClearDirty removes an item only if its generation still matches the dump,
// so a region re-dirtied after the snapshot survives the clear and is
// replayed in the next round.
type DirtyItem struct {
	Val int64
	Gen uint64
}

// DirtyDumpResp is a surviving server's dirty-region log for one (file,
// dead server) pair. An empty Epochs means the server holds no log at all.
type DirtyDumpResp struct {
	Epochs      []uint64
	Units       []DirtyItem
	Mirrors     []DirtyItem
	Stripes     []DirtyItem
	Overflow    bool
	OverflowGen uint64
}

// ClearDirty retires replayed entries from a dirty-region log. With All
// set the whole (File, Dead) log is dropped regardless of generations —
// the full-rebuild fallback's unconditional clear. Otherwise each listed
// item is removed only if its generation still matches, and the Overflow
// flag only if OverflowGen matches; entries re-dirtied since the dump stay
// logged. A log whose last entry is cleared disappears, epochs included.
type ClearDirty struct {
	File        FileRef
	Dead        uint16
	All         bool
	Units       []DirtyItem
	Mirrors     []DirtyItem
	Stripes     []DirtyItem
	Overflow    bool
	OverflowGen uint64
}

// Health asks a server for a liveness/health report; the client's circuit
// breaker probes with it before re-admitting a server.
type Health struct{}

// HealthResp is the reply to Health.
type HealthResp struct {
	Index    uint16 // the server's position in the stripe layout
	Requests int64  // requests handled since startup
}

// WriteParity writes whole parity units of the listed stripes. With Unlock
// set it releases the parity locks taken by a prior locked ReadParity and
// Owner must carry that acquisition's token: the server only releases a lock
// held under the same token, and refuses the write outright when a non-zero
// token no longer holds it — the acquisition was canceled by UnlockParity
// after a client-side timeout, so this frame is a late ghost whose bytes
// could clobber parity now owned by another client's update. A zero Owner is
// the legacy tokenless protocol: the unlock applies only if the holder is
// also tokenless, and is otherwise a no-op.
type WriteParity struct {
	File    FileRef
	Stripes []int64
	Data    []byte
	Unlock  bool
	Owner   uint64
	ownedPayload
}

// WriteOverflow appends new data for the given logical extents into the
// overflow region (Mirror selects the overflow-mirror store) and records
// them in the overflow table.
type WriteOverflow struct {
	File    FileRef
	Extents []Span
	Data    []byte
	Mirror  bool
	ownedPayload
}

// InvalidateOverflow removes overflow-table coverage of the given spans;
// sent when a full-stripe write migrates data back to RAID5.
type InvalidateOverflow struct {
	File   FileRef
	Spans  []Span
	Mirror bool
}

// OverflowDump returns a server's entire overflow table and contents for a
// file; used by recovery and by storage accounting tests.
type OverflowDump struct {
	File   FileRef
	Mirror bool
}

// OverflowDumpResp carries the overflow extents, with Data holding the
// concatenation of each extent's bytes in order.
type OverflowDumpResp struct {
	Extents []Span
	Data    []byte
}

// Sync flushes a file's server-side stores to the modeled disk.
type Sync struct{ File FileRef }

// DropCaches empties the server's page cache (between experiment phases).
type DropCaches struct{}

// StorageStat reports the bytes stored for one file (or the whole disk when
// FileID is zero), broken down by store.
type StorageStat struct{ FileID uint64 }

// StorageStatResp is the reply to StorageStat. ByStore is indexed by the
// server store kinds: data, mirror, parity, overflow, overflow-mirror.
type StorageStatResp struct {
	Total   int64
	ByStore [5]int64
}

// RemoveFile deletes every local store of the file.
type RemoveFile struct{ File FileRef }

// CompactOverflow rewrites a file's overflow store (or its mirror) keeping
// only live extents, reclaiming the space of superseded and invalidated
// slots. It implements the storage-recovery process the paper sketches in
// Section 6.7.
type CompactOverflow struct {
	File   FileRef
	Mirror bool
}

// ChecksumRange asks an I/O server to compute CRC32C checksums over part of
// one of its local stores, so the integrity scrubber can cross-check
// redundant copies without shipping the data itself over the network.
//
// For the flat stores (data, mirror, parity) Off and Len address the local
// store file directly and one checksum per Chunk-sized piece is returned
// (the final piece may be short; Chunk <= 0 means one checksum for the whole
// range). For the overflow stores Off and Len select a logical file range
// and a single aggregate checksum is returned, computed over every live
// overflow extent intersecting the range — offset, length and contents, in
// table order — so equal sums mean both the table and the bytes agree.
type ChecksumRange struct {
	File  FileRef
	Store uint8 // store kind, StoreData..StoreOverflowMirror
	Off   int64
	Len   int64
	Chunk int64
}

// ChecksumRangeResp carries the checksums of one ChecksumRange request.
// Bytes is how many store bytes the server read to compute them, which the
// scrubber charges against its rate limit.
type ChecksumRangeResp struct {
	Sums  []uint32
	Bytes int64
}

// Create asks the manager to create a file with the given layout.
type Create struct {
	Name       string
	Servers    uint16
	StripeUnit uint32
	Scheme     Scheme
	// Parity is the per-stripe parity-unit count for ReedSolomon files
	// (zero for the other schemes).
	Parity uint8
}

// CreateResp returns the new file's reference.
type CreateResp struct{ Ref FileRef }

// Open looks a file up by name.
type Open struct{ Name string }

// OpenResp returns a file's reference and current logical size. While an
// online scheme migration is pinned, Mig carries the migration target's
// reference (the shadow layout being populated); Mig.ID == 0 means no
// migration is in progress. The field is appended to the message body, so
// it rides existing frames without a protocol version bump.
type OpenResp struct {
	Ref  FileRef
	Size int64
	Mig  FileRef
}

// SetSize raises the manager's recorded logical file size after a write.
// The manager keeps the maximum of all reported sizes.
type SetSize struct {
	ID   uint64
	Size int64
}

// Remove deletes a file's metadata at the manager.
type Remove struct{ Name string }

// SetScheme asks the manager to pin an online scheme migration for file ID:
// allocate a shadow file ID laid out with the new scheme/parity over the
// same servers and stripe unit, WAL-log the pin, and replicate it. Both
// layouts stay pinned until CommitScheme or AbortScheme, so a manager
// failover mid-migration resumes with the same pair rather than a torn
// state. Re-issuing SetScheme with the same target while a matching pin is
// live is idempotent and returns the existing shadow reference — the resume
// path after a client crash or an aborted copy pass.
type SetScheme struct {
	ID     uint64
	Scheme Scheme
	// Parity is the per-stripe parity-unit count for a ReedSolomon target
	// (zero applies the manager's default); other targets reject non-zero.
	Parity uint8
}

// SetSchemeResp returns the migration pair: the file's current (old)
// layout, the pinned shadow (new) layout, and the logical size at pin time.
type SetSchemeResp struct {
	Old  FileRef
	New  FileRef
	Size int64
}

// CommitScheme atomically cuts file ID over to its pinned migration target.
// NewID fences the commit to the pin it belongs to: a commit carrying a
// stale shadow ID (the pin was aborted and re-created in between) is
// refused rather than cutting over to a half-copied layout. After commit
// the name resolves to the new layout and the old ID's stores are dead.
type CommitScheme struct {
	ID    uint64
	NewID uint64
}

// AbortScheme drops file ID's pinned migration target (fenced by NewID,
// like CommitScheme). The shadow layout's stores are dead after the abort;
// the file keeps its original layout.
type AbortScheme struct {
	ID    uint64
	NewID uint64
}

// List enumerates file names.
type List struct{}

// ListResp is the reply to List.
type ListResp struct{ Names []string }

// ServerList asks the manager for the I/O server addresses.
type ServerList struct{}

// ServerListResp is the reply to ServerList.
type ServerListResp struct{ Addrs []string }

// Stats asks a server (an I/O daemon or the manager) for its observability
// snapshot: per-RPC-kind latency histograms and store-level counters.
type Stats struct{}

// StatKV is one named counter or gauge value in a StatsResp.
type StatKV struct {
	Name  string
	Value int64
}

// HistDump is one latency histogram in a StatsResp: power-of-two buckets
// (Buckets[i] counts observations of bit length i nanoseconds), with Sum and
// Max in nanoseconds. Zero-count trailing buckets may be elided; decoders
// must accept any length up to the current bucket count.
type HistDump struct {
	Name    string
	Count   int64
	Sum     int64
	Max     int64
	Buckets []int64
}

// StatsResp is a server's observability snapshot. Index is the server's
// stripe position (or 0xFFFF for the manager); Requests is its lifetime
// request count.
type StatsResp struct {
	Index    uint16
	Requests int64
	Counters []StatKV
	Gauges   []StatKV
	Hists    []HistDump
}

// MetaReplicate ships one committed metadata operation (or a full snapshot)
// from the primary manager to a standby. Epoch is the sender's primary
// epoch: a standby whose epoch is newer refuses the record with
// CodeStaleEpoch — the fence that stops a deposed primary's stragglers —
// and a standby whose epoch is older adopts the sender's.
//
// For an operation record, Seq is the record's log sequence number and Rec
// its WAL payload; the standby applies it only if Seq is exactly one past
// its own (a duplicate is acknowledged idempotently, a gap is refused so
// the primary falls back to a snapshot). With Snap set, Rec instead carries
// a full metadata snapshot through Seq, which the standby installs
// wholesale — the catch-up path for a freshly (re)started standby.
type MetaReplicate struct {
	Epoch uint64
	Seq   uint64
	Snap  bool
	Rec   []byte
}

// MetaReplicateResp acknowledges a MetaReplicate: the standby's epoch and
// the log sequence number it has durably applied through. The primary uses
// Seq to track per-standby replication lag.
type MetaReplicateResp struct {
	Epoch uint64
	Seq   uint64
}

// MetaStatus asks a manager for its replication role and progress. Unlike
// the mutation RPCs it is answered by primaries and standbys alike — it is
// the probe promotion logic and `csar stats` use to map the manager group.
type MetaStatus struct{}

// MetaStatusResp reports a manager's view of itself: its configured index
// in the manager group, the primary epoch it is at, whether it currently
// holds the primary role, the log sequence number it has applied through,
// the number of files in its namespace, and its WAL size in bytes.
type MetaStatusResp struct {
	Index    uint16
	Epoch    uint64
	Seq      uint64
	Primary  bool
	Files    int64
	WALBytes int64
}

// --- encoding ---

// Encoder appends fixed-width little-endian values to a buffer.
//
// When split is set (frame marshaling), the first large Bytes payload is
// not copied into Buf: its length prefix is appended and the slice itself
// is parked in Payload for the transport to scatter-gather onto the wire.
type Encoder struct {
	Buf []byte

	split   bool
	splitAt int    // len(Buf) right after the split point
	Payload []byte // payload passed by reference instead of appended
}

func (e *Encoder) U8(v uint8) { e.Buf = append(e.Buf, v) }

func (e *Encoder) Bool(v bool) {
	if v {
		e.U8(1)
	} else {
		e.U8(0)
	}
}

func (e *Encoder) U16(v uint16) { e.Buf = binary.LittleEndian.AppendUint16(e.Buf, v) }
func (e *Encoder) U32(v uint32) { e.Buf = binary.LittleEndian.AppendUint32(e.Buf, v) }
func (e *Encoder) U64(v uint64) { e.Buf = binary.LittleEndian.AppendUint64(e.Buf, v) }
func (e *Encoder) I64(v int64)  { e.U64(uint64(v)) }

func (e *Encoder) Str(s string) {
	e.U32(uint32(len(s)))
	e.Buf = append(e.Buf, s...)
}

func (e *Encoder) Bytes(b []byte) {
	e.U32(uint32(len(b)))
	if e.split && e.Payload == nil && len(b) >= payloadSplitMin {
		e.Payload = b
		e.splitAt = len(e.Buf)
		return
	}
	e.Buf = append(e.Buf, b...)
}

func (e *Encoder) Spans(s []Span) {
	e.U32(uint32(len(s)))
	for _, sp := range s {
		e.I64(sp.Off)
		e.I64(sp.Len)
	}
}

func (e *Encoder) U32s(v []uint32) {
	e.U32(uint32(len(v)))
	for _, x := range v {
		e.U32(x)
	}
}

func (e *Encoder) I64s(v []int64) {
	e.U32(uint32(len(v)))
	for _, x := range v {
		e.I64(x)
	}
}

func (e *Encoder) U64s(v []uint64) {
	e.U32(uint32(len(v)))
	for _, x := range v {
		e.U64(x)
	}
}

func (e *Encoder) DirtyItems(v []DirtyItem) {
	e.U32(uint32(len(v)))
	for _, it := range v {
		e.I64(it.Val)
		e.U64(it.Gen)
	}
}

func (e *Encoder) Strs(v []string) {
	e.U32(uint32(len(v)))
	for _, s := range v {
		e.Str(s)
	}
}

func (e *Encoder) FileRef(r FileRef) {
	e.U64(r.ID)
	e.U16(r.Servers)
	e.U32(r.StripeUnit)
	e.U8(uint8(r.Scheme))
	e.U8(r.Parity)
}

// Decoder reads fixed-width little-endian values from a buffer, latching
// the first error.
type Decoder struct {
	Buf []byte
	off int
	err error
}

// Err returns the first decoding error encountered, if any.
func (d *Decoder) Err() error { return d.err }

func (d *Decoder) fail() {
	if d.err == nil {
		d.err = fmt.Errorf("wire: truncated message (offset %d of %d)", d.off, len(d.Buf))
	}
}

func (d *Decoder) take(n int) []byte {
	if d.err != nil || n < 0 || d.off+n > len(d.Buf) {
		d.fail()
		return nil
	}
	b := d.Buf[d.off : d.off+n]
	d.off += n
	return b
}

func (d *Decoder) U8() uint8 {
	b := d.take(1)
	if b == nil {
		return 0
	}
	return b[0]
}

func (d *Decoder) Bool() bool { return d.U8() != 0 }

func (d *Decoder) U16() uint16 {
	b := d.take(2)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint16(b)
}

func (d *Decoder) U32() uint32 {
	b := d.take(4)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint32(b)
}

func (d *Decoder) U64() uint64 {
	b := d.take(8)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint64(b)
}

func (d *Decoder) I64() int64 { return int64(d.U64()) }

func (d *Decoder) Str() string {
	n := int(d.U32())
	b := d.take(n)
	return string(b)
}

// Bytes returns a length-prefixed byte field as a view of the decoder's
// buffer (capacity clipped to the field), not a copy: it stays valid only as
// long as the caller of Unmarshal leaves that buffer alone. The bulk Data
// fields of the hot messages decode this way.
func (d *Decoder) Bytes() []byte {
	n := int(d.U32())
	b := d.take(n)
	if len(b) == 0 {
		return nil
	}
	return b[:n:n]
}

// BytesCopy is Bytes with a private copy, for fields the message's consumer
// retains.
func (d *Decoder) BytesCopy() []byte {
	return append([]byte(nil), d.Bytes()...)
}

func (d *Decoder) Spans() []Span {
	n := int(d.U32())
	if d.err != nil || n < 0 || n > len(d.Buf) {
		d.fail()
		return nil
	}
	s := make([]Span, n)
	for i := range s {
		s[i].Off = d.I64()
		s[i].Len = d.I64()
	}
	return s
}

func (d *Decoder) U32sDec() []uint32 {
	n := int(d.U32())
	if d.err != nil || n < 0 || n > len(d.Buf) {
		d.fail()
		return nil
	}
	v := make([]uint32, n)
	for i := range v {
		v[i] = d.U32()
	}
	return v
}

func (d *Decoder) U64sDec() []uint64 {
	n := int(d.U32())
	if d.err != nil || n < 0 || n > len(d.Buf) {
		d.fail()
		return nil
	}
	v := make([]uint64, n)
	for i := range v {
		v[i] = d.U64()
	}
	return v
}

func (d *Decoder) DirtyItemsDec() []DirtyItem {
	n := int(d.U32())
	if d.err != nil || n < 0 || n > len(d.Buf) {
		d.fail()
		return nil
	}
	v := make([]DirtyItem, n)
	for i := range v {
		v[i].Val = d.I64()
		v[i].Gen = d.U64()
	}
	return v
}

func (d *Decoder) I64sDec() []int64 {
	n := int(d.U32())
	if d.err != nil || n < 0 || n > len(d.Buf) {
		d.fail()
		return nil
	}
	v := make([]int64, n)
	for i := range v {
		v[i] = d.I64()
	}
	return v
}

func (d *Decoder) Strs() []string {
	n := int(d.U32())
	if d.err != nil || n < 0 || n > len(d.Buf) {
		d.fail()
		return nil
	}
	v := make([]string, n)
	for i := range v {
		v[i] = d.Str()
	}
	return v
}

func (d *Decoder) FileRef() FileRef {
	var r FileRef
	r.ID = d.U64()
	r.Servers = d.U16()
	r.StripeUnit = d.U32()
	r.Scheme = Scheme(d.U8())
	r.Parity = d.U8()
	return r
}
