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

// MaxFrame bounds a marshaled message, so a corrupt or hostile length prefix
// cannot make a receiver allocate without bound, and a server refuses a read
// whose response would not fit.
const MaxFrame = 1 << 30

// Scheme identifies a redundancy scheme: the name users pick, the manager
// records and every request carries. What a scheme means for the layout is
// decided in one place, raid.Resolve, and the code below it reads only that
// shape.
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
	// ReedSolomon keeps m rotating Reed-Solomon parity units per stripe of
	// k = N-m data units (GF(256) systematic code), tolerating any m
	// simultaneous server failures. The per-file parity count rides in
	// FileRef.Parity. Values 4 and 5 are retired: they named the paper's two
	// RAID5 ablations, which are now a switch of the test harness, and
	// raid.Resolve refuses them.
	ReedSolomon Scheme = 6
)

// schemeNames is indexed by scheme value; a retired value has no name.
var schemeNames = [...]string{
	Raid0:       "raid0",
	Raid1:       "raid1",
	Raid5:       "raid5",
	Hybrid:      "hybrid",
	ReedSolomon: "rs",
}

func (s Scheme) String() string {
	if int(s) < len(schemeNames) && schemeNames[s] != "" {
		return schemeNames[s]
	}
	return fmt.Sprintf("scheme(%d)", uint8(s))
}

// SchemeNames returns every scheme name ParseScheme accepts, in scheme-value
// order. CLI usage text and error messages enumerate schemes through it so
// the list cannot drift from the protocol as schemes are added.
func SchemeNames() []string {
	out := make([]string, 0, len(schemeNames))
	for _, n := range schemeNames {
		if n != "" {
			out = append(out, n)
		}
	}
	return out
}

// ParseScheme converts a scheme name as printed by String back to a Scheme.
func ParseScheme(name string) (Scheme, error) {
	for s, n := range schemeNames {
		if n != "" && n == name {
			return Scheme(s), nil
		}
	}
	return 0, fmt.Errorf("wire: unknown scheme %q (want one of: %s)",
		name, strings.Join(SchemeNames(), ", "))
}

// FileRef is the compact file description carried in every I/O request.
type FileRef struct {
	ID         uint64
	Servers    uint16
	StripeUnit uint32
	Scheme     Scheme
	// Parity is the number of parity units per stripe for ReedSolomon
	// files; the other schemes leave it zero.
	Parity uint8
}

// Span is a byte range [Off, Off+Len): of the logical file, or, as a parity
// message's Ranges, of one unit.
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
	_ // retired: the mirror write, now WriteData{Store: StoreMirror}
	_ // retired: the mirror read, now Read{Store: StoreMirror}
	KReadParity
	KWriteParity
	_ // retired: the overflow write, now WriteData{Store: StoreOverflow...}
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

	_ // retired: the batched intent retire, now a session's watermark
)

// KindTraceFlag is the high bit of the kind byte in a marshaled frame. Kinds
// themselves stay below it (the iota above must never reach 0x80, which
// TestKindsBelowTraceFlag enforces); a set flag means an 8-byte little-endian
// trace ID follows the kind byte before the message body. Decoders that
// predate the flag reject such frames as unknown kinds rather than
// misparsing them.
const KindTraceFlag uint8 = 0x80

// String names a kind for logs and metric labels (e.g. the per-RPC-kind
// latency histograms are named "rpc_" + Kind.String()).
func (k Kind) String() string {
	if int(k) < len(kinds) && kinds[k].name != "" {
		return kinds[k].name
	}
	return fmt.Sprintf("kind(%d)", uint8(k))
}

// Store kinds addressable by Read, WriteData and ChecksumRange, in the order
// of StorageStatResp.ByStore and the server's local store layout.
const (
	StoreData uint8 = iota
	StoreMirror
	StoreParity
	StoreOverflow
	StoreOverflowMirror
	NumStores
)

// OverflowStore returns the overflow store a Mirror flag names: the overflow
// mirror when set, the overflow region otherwise.
func OverflowStore(mirror bool) uint8 {
	if mirror {
		return StoreOverflowMirror
	}
	return StoreOverflow
}

// Msg is one protocol message.
type Msg interface {
	Kind() Kind
	// codec reads or writes the message body, one Codec call per field in
	// wire order (see Codec).
	codec(c *Codec)
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
	// CodeStripeBusy marks an intent replay refused because another
	// update's intent on the stripe is still open or pending: its data may
	// still be landing, so parity re-encoded now could miss it. Retrying
	// after that update retires succeeds. Errors with this code unwrap to
	// ErrStripeBusy.
	CodeStripeBusy
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

// ErrStripeBusy is the sentinel behind CodeStripeBusy errors: another
// update on the stripe has not retired its intent yet.
var ErrStripeBusy = errors.New("stripe has an update in flight")

// codeErrs is the one map between error codes and their sentinels, indexed
// by code; CodeGeneric has none.
var codeErrs = [...]error{
	CodeUnavailable:  ErrUnavailable,
	CodeLeaseExpired: ErrLeaseExpired,
	CodeStripeTorn:   ErrStripeTorn,
	CodeNotPrimary:   ErrNotPrimary,
	CodeStaleEpoch:   ErrStaleEpoch,
	CodeStripeBusy:   ErrStripeBusy,
}

// ErrorCodeOf maps a handler error to the wire code its Error response
// should carry.
func ErrorCodeOf(err error) uint8 {
	for code, sentinel := range codeErrs {
		if sentinel != nil && errors.Is(err, sentinel) {
			return uint8(code)
		}
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
// sentinel its code stands for (ErrUnavailable, ErrLeaseExpired, ...).
func (m *Error) Unwrap() error {
	if int(m.Code) < len(codeErrs) {
		return codeErrs[m.Code]
	}
	return nil
}

// OK is the empty success response.
type OK struct{}

// Ping checks liveness.
type Ping struct{}

// Read asks an I/O server for the bytes it holds of the given spans in one
// of its stores: data, mirror or parity (the overflow stores are not read
// this way). Data and mirror spans are logical file ranges, and the server
// returns the pieces of them that store keeps, in span then offset order.
// Parity spans are in stripe space: this server's parity member of stripe s
// is the bytes [s·StripeUnit, (s+1)·StripeUnit), and a span may not cross a
// unit or name a stripe whose parity the server does not hold. A data read
// returns the newest bytes, patching in overflow-region contents, unless Raw
// is set (recovery wants the in-place data file contents only).
//
// Into is transport-only and never encoded: the slices the response's bytes
// belong in, in order. rpc.Client reads a ReadResp of exactly their total
// length straight from the socket into them and delivers a landed response
// (see ReadResp); a response it does not land leaves them alone.
type Read struct {
	File  FileRef
	Store uint8
	Spans []Span
	Raw   bool
	Into  [][]byte
}

// ReadResp carries the concatenated bytes of the requested spans or stripes.
//
// Data may live in a pooled buffer: a server fills one obtained from
// NewReadResp, and a response decoded by the transport views the frame it
// arrived in (HoldBuf). Whoever consumes the response calls Release when it
// is done with Data. Forgetting to is a missed optimisation, never a bug —
// the buffer is simply garbage-collected.
//
// A landed response (Landed) has no Data: the transport read its bytes
// straight into its request's Read.Into, which is where they are. It
// marshals back to the frame it arrived in, its pieces carried by reference.
type ReadResp struct {
	Data []byte
	buf  *[]byte  // pooled buffer Data lives in; nil for an ordinary slice
	into [][]byte // landed: the pieces holding the bytes; nil otherwise
}

// ReadRespHead is the length of an untraced ReadResp's encoding before its
// bytes: the kind byte and the u32 byte count.
const ReadRespHead = 5

// ReadRespLen reports whether head, at least ReadRespHead bytes, opens an
// untraced ReadResp, and the byte count that follows it.
func ReadRespLen(head []byte) (int, bool) {
	if len(head) < ReadRespHead || head[0] != uint8(KReadResp) {
		return 0, false
	}
	return int(binary.LittleEndian.Uint32(head[1:ReadRespHead])), true
}

// LandedReadResp returns the response whose bytes the transport has read
// into pieces, in order.
func LandedReadResp(pieces [][]byte) *ReadResp { return &ReadResp{into: pieces} }

// Landed reports whether m's bytes were read straight into its request's
// Read.Into rather than carried in Data.
func (m *ReadResp) Landed() bool { return m.into != nil }

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

// WriteData writes the given spans into one of the server's stores,
// addressed as in Read; len(Data) must equal the bytes of the spans that
// store keeps here. The overflow stores (StoreOverflow, StoreOverflowMirror)
// take logical spans too, each inside one stripe unit of which this server
// holds that copy: the bytes are appended to the overflow region and
// recorded in its table.
//
// (Store, Spans) is the first part; each of More is a further store's
// spans, whose bytes follow the earlier parts' in Data (or From). Every part
// is checked before any lands, and Raw applies to all.
//
// A write without Raw supersedes: on the data store of an overflow shape it
// invalidates the spans' overflow contents (a Hybrid full-stripe write), and
// on the parity store, which it must fill in whole units, it retires the
// stripes' abandoned intents and, under an overflow shape, their overflow
// contents. Raw marks a repair or rebuild write: the bytes are restored in
// place exactly (a repair must not discard newer overflow contents).
//
// From is sender-only, the write-side twin of Read.Into: when set, it is
// the payload as pieces — slices of the sender's own buffer, in order — and
// Data is ignored. It encodes exactly as Data holding their concatenation
// would (MarshalFrame carries the pieces by reference in Frame.Vec), and a
// decoded message has Data, never From.
type WriteData struct {
	File  FileRef
	Store uint8
	Spans []Span
	More  []Part
	Data  []byte
	Raw   bool
	From  [][]byte
}

// Part is one further store's spans in a WriteData.
type Part struct {
	Store uint8
	Spans []Span
}

// ReadParity is the read half of a read-modify-write: it reads parity units
// of the listed stripes, whole or only the bytes Ranges names. With Lock set,
// the server acquires the stripe's parity lock before answering (the Section
// 5.1 protocol: a parity read announces a partial-stripe update); Lock=false
// is the no-lock ablation's read. Any other parity read is a Read of the
// parity store.
//
// A locked read names its acquisition (Session, Seq): Session is the
// client's session on this server (never zero) and Seq a number the client
// never reuses. A later UnlockParity naming the same pair releases exactly
// this acquisition and no other, so a client whose locked read timed out can
// free a possibly-granted lock without ever stealing one granted to someone
// else. The read also opens a durable write intent per stripe under that
// pair: the stripe may be torn until the session's watermark passes Seq.
//
// Watermark is the session's retire watermark W, applied before the lock is
// taken: every acquisition of the session with a seq at or below W had both
// of its writes acknowledged, or its release was, so the server retires
// each of the session's pending intents at or below W. LeaseMS, when
// non-zero, opens or renews the session's lease: past it with no RenewLease
// heartbeat the server expires the session, revoking the locks it holds,
// waking their queues and abandoning its open and pending intents, so a
// dead client cannot wedge a stripe. A locked read of an expired session is
// refused with ErrLeaseExpired. A locked read must list its stripes in
// strictly ascending order — the Section 5.1 lock order — or it is refused
// before any lock is taken.
//
// Ranges, when non-empty, lists byte ranges within a parity unit: sorted,
// disjoint, each non-empty and inside the unit. They apply to every listed
// stripe, and the response packs them stripe by stripe, range by range. A
// partial-stripe update reads only "the corresponding parity region" (Section
// 4) this way. No ranges means whole units.
type ReadParity struct {
	File      FileRef
	Stripes   []int64
	Lock      bool
	Session   uint64
	Seq       uint64
	LeaseMS   uint32
	Watermark uint64
	Ranges    []Span
}

// UnlockParity force-releases the parity locks of the listed stripes if —
// and only if — they are held (or queued) under the acquisition (Session,
// Seq). It is the escape hatch for a dead or timed-out peer: the lock
// protocol of Section 5.1 releases locks with WriteParity{Unlock}, but a
// client that never saw its locked-read response cannot know whether it
// holds the lock, and sends this instead. An acquisition that matches
// nothing is a no-op, and its later locked read is refused.
//
// Dirty tells the server how far the canceling client got. False — the
// usual case — means no data write was ever issued: the stripe is
// untouched, so the server retires the acquisition's intent and hands the
// lock to the next waiter. True means data writes were already in flight
// when the update was given up on, so the stripe may be torn: the server
// abandons the intent — open, or pending after an unlocking write landed —
// and fail-stops the stripe (the lock revoked if the acquisition still
// holds it, queue canceled, new acquisitions refused) until recovery
// replays it.
type UnlockParity struct {
	File    FileRef
	Stripes []int64
	Session uint64
	Seq     uint64
	Dirty   bool
}

// RenewLease is a client session's heartbeat on one server: it renews the
// session's lease LeaseMS past now (zero renews nothing) and applies
// Watermark as a locked ReadParity does, retiring the session's pending
// intents at or below it.
type RenewLease struct {
	Session   uint64
	LeaseMS   uint32
	Watermark uint64
}

// RenewLeaseResp reports whether the session is live on the server. Not
// live means the server holds nothing of it: it expired the session (its
// locks revoked and its intents abandoned), restarted since, let an idle
// session's lease run out, or has not seen the session yet. A client that
// knew the session live there takes that as an expiry: its updates under
// it are fenced off, and it starts a new session.
type RenewLeaseResp struct {
	Live bool
}

// Intent is one stripe write intent in a ListIntentsResp, named by the
// acquisition that opened it. Abandoned intents (session expired,
// crash-restart load, explicit UnlockParity) mark possibly-torn stripes
// awaiting replay; live ones belong to an update whose writes may still be
// landing and must be left alone.
type Intent struct {
	Stripe    int64
	Session   uint64
	Seq       uint64
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
// unit. Session and Seq must name the intent as ListIntents reports it: the
// server refuses to touch an intent that is still live (the update may be
// landing), refuses while another intent on the stripe is live
// (ErrStripeBusy), and treats a missing intent as already resolved.
type ResolveIntent struct {
	File    FileRef
	Stripe  int64
	Session uint64
	Seq     uint64
	Data    []byte
}

// MarkDirty records, on a surviving server, which regions a degraded write
// could not deliver to the dead server — the dirty-region log that lets
// recovery resynchronize only what the outage actually touched instead of
// rebuilding every store. Clients send it to the dead server's two
// neighbours (its mirror partners) before issuing the degraded write
// itself, so by the time any data lands the damage is already durably
// logged.
//
// Groups are the code groups (raid.Layout numbering: a stripe for a parity
// layout, a unit for a mirrored one) in which Dead's member went stale — a
// data unit the write covered, a parity unit, or a mirror copy. Dead holds
// at most one member of any group, so the group number alone names it.
// Overflow marks that Dead's overflow or overflow-mirror store diverged
// (extents appended or invalidated while it was away) and must be
// reconciled wholesale.
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
	Groups   []int64
	Overflow bool
}

// DirtyDump asks a surviving server for its dirty-region log of (File,
// Dead). Resync snapshots both replicas' logs, replays the union, and
// clears exactly what it read.
type DirtyDump struct {
	File FileRef
	Dead uint16
}

// DirtyItem is one logged damaged code group together with the generation
// at which it was last re-dirtied. Generations make the dump→replay→clear
// cycle race-free under concurrent foreground writes: a ClearDirty removes
// an item only if its generation still matches the dump, so a group
// re-dirtied after the snapshot survives the clear and is replayed in the
// next round.
type DirtyItem struct {
	Group int64
	Gen   uint64
}

// DirtyDumpResp is a surviving server's dirty-region log for one (file,
// dead server) pair. An empty Epochs means the server holds no log at all.
type DirtyDumpResp struct {
	Epochs      []uint64
	Groups      []DirtyItem
	Overflow    bool
	OverflowGen uint64
}

// ClearDirty retires replayed entries from a dirty-region log. With All
// set the whole (File, Dead) log is dropped regardless of generations —
// the full-rebuild fallback's unconditional clear. Otherwise each listed
// group is removed only if its generation still matches, and the Overflow
// flag only if OverflowGen matches; entries re-dirtied since the dump stay
// logged. A log whose last entry is cleared disappears, epochs included.
type ClearDirty struct {
	File        FileRef
	Dead        uint16
	All         bool
	Groups      []DirtyItem
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

// WriteParity is the write half of a read-modify-write: it writes parity
// units of the listed stripes, whole or only the bytes Ranges names, packed as
// ReadParity returns them. With Unlock set it releases the parity locks taken
// by a prior locked ReadParity, and Session and Seq must name that
// acquisition: the server refuses the write outright unless it still holds
// every listed stripe's lock — the acquisition was canceled by UnlockParity
// after a client-side timeout, so this frame is a late ghost whose bytes
// could clobber parity now owned by another client's update — and refuses
// it with ErrLeaseExpired if the acquisition's intent was abandoned. Locks
// are never granted without a session (a locked ReadParity with a zero
// Session is refused), so an unlocking write with a zero Session is always
// refused. An unlocking write leaves the acquisition's intent pending until
// the session's watermark passes its Seq. A write without Unlock is the
// no-lock ablation's. Neither supersedes anything: parity that is
// installed, not updated, is a WriteData of the parity store.
type WriteParity struct {
	File    FileRef
	Stripes []int64
	Ranges  []Span
	Data    []byte
	Unlock  bool
	Session uint64
	Seq     uint64
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

// --- the codec ---

// Codec reads or writes a message body, one call per field: each message
// states its field order once, in its codec method, and that one method both
// encodes and decodes it. Values are fixed-width little-endian; strings,
// byte fields and slices carry a u32 length prefix.
//
// Decoding latches the first error (a truncated field, an impossible count):
// every later call is a no-op, so a codec method checks nothing and the
// caller reads Err once at the end. Decoded Bytes fields are views of the
// input (see Bytes); every other field is copied out. Encoding never writes
// to the value it is handed.
//
// An encoding Codec in split mode (MarshalFrame) does not copy the first
// Bytes field of at least payloadSplitMin bytes: it appends only the length
// prefix and keeps the field in payload, which the transport sends by
// reference right after the head — so that field must be the message's last.
type Codec struct {
	Buf     []byte   // encoding: the output so far; decoding: the input
	payload *[]byte  // split encoding: the field carried by reference
	vec     [][]byte // split encoding: the field carried by reference as pieces
	err     error
	off     int // decoding: read position in Buf
	dec     bool
	split   bool
}

// Encoding returns a Codec that appends to buf.
func Encoding(buf []byte) Codec { return Codec{Buf: buf} }

// Decoding returns a Codec that reads b from its start.
func Decoding(b []byte) Codec { return Codec{Buf: b, dec: true} }

// Err returns the first error the codec latched, if any.
func (c *Codec) Err() error { return c.err }

// Fail latches err unless an earlier error is latched: a codec method that
// rejects a value it decoded stops the decode the way a truncation does.
func (c *Codec) Fail(err error) {
	if c.err == nil {
		c.err = err
	}
}

// errTruncated is the error a decode latches when a field runs past the end
// of its input. It carries no offset, so that take and the fixed-width
// primitives stay small enough to inline into every codec method; Unmarshal
// reports where it happened.
var errTruncated = errors.New("wire: truncated message")

// take returns the next n input bytes, or nil once an error is latched.
func (c *Codec) take(n int) []byte {
	if c.err != nil || n < 0 || n > len(c.Buf)-c.off {
		c.Fail(errTruncated)
		return nil
	}
	c.off += n
	return c.Buf[c.off-n : c.off]
}

func (c *Codec) U8(v *uint8) {
	if !c.dec {
		c.Buf = append(c.Buf, *v)
	} else if b := c.take(1); b != nil {
		*v = b[0]
	}
}

func (c *Codec) U16(v *uint16) {
	if !c.dec {
		c.Buf = binary.LittleEndian.AppendUint16(c.Buf, *v)
	} else if b := c.take(2); b != nil {
		*v = binary.LittleEndian.Uint16(b)
	}
}

func (c *Codec) U32(v *uint32) {
	if !c.dec {
		c.Buf = binary.LittleEndian.AppendUint32(c.Buf, *v)
	} else if b := c.take(4); b != nil {
		*v = binary.LittleEndian.Uint32(b)
	}
}

func (c *Codec) U64(v *uint64) {
	if !c.dec {
		c.Buf = binary.LittleEndian.AppendUint64(c.Buf, *v)
	} else if b := c.take(8); b != nil {
		*v = binary.LittleEndian.Uint64(b)
	}
}

func (c *Codec) I64(v *int64) {
	if !c.dec {
		c.Buf = binary.LittleEndian.AppendUint64(c.Buf, uint64(*v))
	} else if b := c.take(8); b != nil {
		*v = int64(binary.LittleEndian.Uint64(b))
	}
}

// Bool is one byte, 1 for true; any non-zero byte decodes as true.
func (c *Codec) Bool(v *bool) {
	var b uint8
	if *v {
		b = 1
	}
	if c.U8(&b); c.dec {
		*v = b != 0
	}
}

func (c *Codec) Str(s *string) {
	n := uint32(len(*s))
	c.U32(&n)
	if !c.dec {
		c.Buf = append(c.Buf, *s...)
	} else if b := c.take(int(n)); b != nil {
		*s = string(b)
	}
}

// Bytes is a length-prefixed byte field. Decoded, it is a view of the input
// with its capacity clipped to the field, not a copy: it stays valid only as
// long as the caller of Unmarshal leaves the input alone. The bulk Data
// fields of the hot messages decode this way.
func (c *Codec) Bytes(v *[]byte) {
	n := uint32(len(*v))
	c.U32(&n)
	switch {
	case c.dec:
		if b := c.take(int(n)); len(b) > 0 {
			*v = b[:n:n]
		}
	case c.split && c.payload == nil && n >= payloadSplitMin:
		c.payload = v
	default:
		c.Buf = append(c.Buf, *v...)
	}
}

// bytesFrom is a bulk byte field its sender may hold as pieces — a write
// request's From, a landed ReadResp's — encoded exactly as Bytes encodes
// their concatenation. In split mode the pieces ride by reference
// (Frame.Vec), whatever their size: they are somebody's buffer already.
// Pieces are only ever encoded (a decode starts from a new message, which
// has none); without them the field is Bytes on v.
func (c *Codec) bytesFrom(v *[]byte, pieces [][]byte) {
	if pieces == nil {
		c.Bytes(v)
		return
	}
	var n uint32
	for _, p := range pieces {
		n += uint32(len(p))
	}
	c.U32(&n)
	if c.split && c.payload == nil {
		c.vec = pieces
		return
	}
	for _, p := range pieces {
		c.Buf = append(c.Buf, p...)
	}
}

// BytesCopy is Bytes with a private copy on decode, for fields the message's
// consumer retains.
func (c *Codec) BytesCopy(v *[]byte) {
	if c.Bytes(v); c.dec {
		*v = append([]byte(nil), *v...)
	}
}

func (c *Codec) FileRef(r *FileRef) {
	c.U64(&r.ID)
	c.U16(&r.Servers)
	c.U32(&r.StripeUnit)
	c.U8((*uint8)(&r.Scheme))
	c.U8(&r.Parity)
}

// elem describes the element type of a length-prefixed slice: how one
// element is coded, and the fewest bytes one element encodes to (the
// encoding of its zero value), which bounds the count a decode may believe.
type elem[T any] struct {
	size  int
	codec func(*Codec, *T)
}

var (
	elemU32  = elem[uint32]{4, (*Codec).U32}
	elemU64  = elem[uint64]{8, (*Codec).U64}
	elemI64  = elem[int64]{8, (*Codec).I64}
	elemStr  = elem[string]{4, (*Codec).Str}
	elemSpan = elem[Span]{16, func(c *Codec, s *Span) {
		c.I64(&s.Off)
		c.I64(&s.Len)
	}}
	elemPart = elem[Part]{5, func(c *Codec, p *Part) {
		c.U8(&p.Store)
		slice(c, &p.Spans, elemSpan)
	}}
	elemDirtyItem = elem[DirtyItem]{16, func(c *Codec, it *DirtyItem) {
		c.I64(&it.Group)
		c.U64(&it.Gen)
	}}
	elemIntent = elem[Intent]{25, func(c *Codec, in *Intent) {
		c.I64(&in.Stripe)
		c.U64(&in.Session)
		c.U64(&in.Seq)
		c.Bool(&in.Abandoned)
	}}
	elemStatKV = elem[StatKV]{12, func(c *Codec, kv *StatKV) {
		c.Str(&kv.Name)
		c.I64(&kv.Value)
	}}
	elemHistDump = elem[HistDump]{32, func(c *Codec, h *HistDump) {
		c.Str(&h.Name)
		c.I64(&h.Count)
		c.I64(&h.Sum)
		c.I64(&h.Max)
		slice(c, &h.Buckets, elemI64)
	}}
)

// slice codes a u32 element count followed by the elements. A decoded count
// the remaining input cannot hold at e.size bytes apiece is refused before
// anything is allocated, so a hostile length prefix costs no more memory
// than the elements it could really carry.
func slice[T any](c *Codec, s *[]T, e elem[T]) {
	n := uint32(len(*s))
	c.U32(&n)
	if c.dec {
		if c.err != nil {
			return
		}
		// Compared in unsigned space: on 32-bit platforms int(n) of a count
		// of 2^31 or more is negative and would pass.
		if left := len(c.Buf) - c.off; uint64(n) > uint64(left/e.size) {
			c.err = fmt.Errorf("wire: %d elements cannot fit in the %d bytes left (offset %d)", n, left, c.off)
			return
		}
		if n == 0 {
			// An empty list decodes as nil, which is how an unset field
			// encodes: a message round-trips to one equal to it.
			*s = nil
			return
		}
		*s = make([]T, n)
	}
	for i := range *s {
		e.codec(c, &(*s)[i])
	}
}
