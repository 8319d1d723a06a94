package wire

import (
	"encoding/binary"
	"fmt"
)

// encodeHead writes what precedes a message's body: the kind byte, which for
// a non-zero trace carries KindTraceFlag and is followed by the 8-byte
// little-endian trace ID.
func encodeHead(e *Encoder, m Msg, trace uint64) {
	if trace == 0 {
		e.U8(uint8(m.Kind()))
		return
	}
	e.U8(uint8(m.Kind()) | KindTraceFlag)
	e.U64(trace)
}

// Marshal serializes a message as a kind byte followed by its body.
func Marshal(m Msg) []byte { return MarshalTraced(m, 0) }

// MarshalTraced serializes a message with an operation trace ID ahead of its
// body. A zero trace produces the plain Marshal encoding, so untraced callers
// pay nothing and old decoders never see the flag.
func MarshalTraced(m Msg, trace uint64) []byte {
	e := Encoder{Buf: make([]byte, 0, 72)}
	encodeHead(&e, m, trace)
	m.encode(&e)
	return e.Buf
}

// Unmarshal parses a message produced by Marshal or MarshalTraced,
// discarding any trace ID. The aliasing rule of UnmarshalTraced applies.
func Unmarshal(b []byte) (Msg, error) {
	m, _, err := UnmarshalTraced(b)
	return m, err
}

// UnmarshalTraced parses a message produced by Marshal or MarshalTraced and
// returns the trace ID it carried (zero for untraced frames).
//
// The bulk Data field of WriteData, WriteMirror, WriteParity, WriteOverflow,
// ResolveIntent and ReadResp is a view of b, not a copy: the caller of
// Unmarshal owns the input for as long as the message's Data is in use, and
// must neither modify nor recycle it before then. Every other field is
// copied out.
func UnmarshalTraced(b []byte) (Msg, uint64, error) {
	if len(b) == 0 {
		return nil, 0, fmt.Errorf("wire: empty message")
	}
	kind := b[0]
	body := b[1:]
	var trace uint64
	if kind&KindTraceFlag != 0 {
		if len(body) < 8 {
			return nil, 0, fmt.Errorf("wire: truncated trace header")
		}
		trace = binary.LittleEndian.Uint64(body)
		body = body[8:]
		kind &^= KindTraceFlag
	}
	mk, ok := registry[Kind(kind)]
	if !ok {
		return nil, 0, fmt.Errorf("wire: unknown message kind %d", kind)
	}
	m := mk()
	d := Decoder{Buf: body}
	m.decode(&d)
	if err := d.Err(); err != nil {
		return nil, 0, fmt.Errorf("wire: decoding %T: %w", m, err)
	}
	return m, trace, nil
}

var registry = map[Kind]func() Msg{
	KError:              func() Msg { return &Error{} },
	KOK:                 func() Msg { return &OK{} },
	KPing:               func() Msg { return &Ping{} },
	KRead:               func() Msg { return &Read{} },
	KReadResp:           func() Msg { return &ReadResp{} },
	KWriteData:          func() Msg { return &WriteData{} },
	KWriteMirror:        func() Msg { return &WriteMirror{} },
	KReadMirror:         func() Msg { return &ReadMirror{} },
	KReadParity:         func() Msg { return &ReadParity{} },
	KWriteParity:        func() Msg { return &WriteParity{} },
	KWriteOverflow:      func() Msg { return &WriteOverflow{} },
	KInvalidateOverflow: func() Msg { return &InvalidateOverflow{} },
	KOverflowDump:       func() Msg { return &OverflowDump{} },
	KOverflowDumpResp:   func() Msg { return &OverflowDumpResp{} },
	KSync:               func() Msg { return &Sync{} },
	KDropCaches:         func() Msg { return &DropCaches{} },
	KStorageStat:        func() Msg { return &StorageStat{} },
	KStorageStatResp:    func() Msg { return &StorageStatResp{} },
	KRemoveFile:         func() Msg { return &RemoveFile{} },
	KCompactOverflow:    func() Msg { return &CompactOverflow{} },
	KCreate:             func() Msg { return &Create{} },
	KCreateResp:         func() Msg { return &CreateResp{} },
	KOpen:               func() Msg { return &Open{} },
	KOpenResp:           func() Msg { return &OpenResp{} },
	KSetSize:            func() Msg { return &SetSize{} },
	KRemove:             func() Msg { return &Remove{} },
	KList:               func() Msg { return &List{} },
	KListResp:           func() Msg { return &ListResp{} },
	KServerList:         func() Msg { return &ServerList{} },
	KServerListResp:     func() Msg { return &ServerListResp{} },
	KChecksumRange:      func() Msg { return &ChecksumRange{} },
	KChecksumRangeResp:  func() Msg { return &ChecksumRangeResp{} },
	KHealth:             func() Msg { return &Health{} },
	KHealthResp:         func() Msg { return &HealthResp{} },
	KUnlockParity:       func() Msg { return &UnlockParity{} },
	KRenewLease:         func() Msg { return &RenewLease{} },
	KRenewLeaseResp:     func() Msg { return &RenewLeaseResp{} },
	KListIntents:        func() Msg { return &ListIntents{} },
	KListIntentsResp:    func() Msg { return &ListIntentsResp{} },
	KResolveIntent:      func() Msg { return &ResolveIntent{} },
	KMarkDirty:          func() Msg { return &MarkDirty{} },
	KDirtyDump:          func() Msg { return &DirtyDump{} },
	KDirtyDumpResp:      func() Msg { return &DirtyDumpResp{} },
	KClearDirty:         func() Msg { return &ClearDirty{} },
	KStats:              func() Msg { return &Stats{} },
	KStatsResp:          func() Msg { return &StatsResp{} },
	KMetaReplicate:      func() Msg { return &MetaReplicate{} },
	KMetaReplicateResp:  func() Msg { return &MetaReplicateResp{} },
	KMetaStatus:         func() Msg { return &MetaStatus{} },
	KMetaStatusResp:     func() Msg { return &MetaStatusResp{} },
	KSetScheme:          func() Msg { return &SetScheme{} },
	KSetSchemeResp:      func() Msg { return &SetSchemeResp{} },
	KCommitScheme:       func() Msg { return &CommitScheme{} },
	KAbortScheme:        func() Msg { return &AbortScheme{} },
}

func (m *Error) Kind() Kind { return KError }
func (m *Error) encode(e *Encoder) {
	e.Str(m.Text)
	e.U8(m.Code)
}
func (m *Error) decode(d *Decoder) {
	m.Text = d.Str()
	m.Code = d.U8()
}
func (m *Error) Error() string { return m.Text }

func (m *OK) Kind() Kind      { return KOK }
func (m *OK) encode(*Encoder) {}
func (m *OK) decode(*Decoder) {}

func (m *Ping) Kind() Kind      { return KPing }
func (m *Ping) encode(*Encoder) {}
func (m *Ping) decode(*Decoder) {}

func (m *Read) Kind() Kind { return KRead }
func (m *Read) encode(e *Encoder) {
	e.FileRef(m.File)
	e.Spans(m.Spans)
	e.Bool(m.Raw)
}
func (m *Read) decode(d *Decoder) {
	m.File = d.FileRef()
	m.Spans = d.Spans()
	m.Raw = d.Bool()
}

func (m *ReadResp) Kind() Kind        { return KReadResp }
func (m *ReadResp) encode(e *Encoder) { e.Bytes(m.Data) }
func (m *ReadResp) decode(d *Decoder) { m.Data = d.Bytes() }

// WriteData (like WriteParity and WriteOverflow below) encodes its bulk
// Data field last so MarshalFrame can carry it by reference instead of
// copying it into the head buffer.
func (m *WriteData) Kind() Kind { return KWriteData }
func (m *WriteData) encode(e *Encoder) {
	e.FileRef(m.File)
	e.Spans(m.Spans)
	e.Bool(m.Raw)
	e.Bytes(m.Data)
}
func (m *WriteData) decode(d *Decoder) {
	m.File = d.FileRef()
	m.Spans = d.Spans()
	m.Raw = d.Bool()
	m.Data = d.Bytes()
}

func (m *WriteMirror) Kind() Kind { return KWriteMirror }
func (m *WriteMirror) encode(e *Encoder) {
	e.FileRef(m.File)
	e.Spans(m.Spans)
	e.Bytes(m.Data)
}
func (m *WriteMirror) decode(d *Decoder) {
	m.File = d.FileRef()
	m.Spans = d.Spans()
	m.Data = d.Bytes()
}

func (m *ReadMirror) Kind() Kind { return KReadMirror }
func (m *ReadMirror) encode(e *Encoder) {
	e.FileRef(m.File)
	e.Spans(m.Spans)
}
func (m *ReadMirror) decode(d *Decoder) {
	m.File = d.FileRef()
	m.Spans = d.Spans()
}

func (m *ReadParity) Kind() Kind { return KReadParity }
func (m *ReadParity) encode(e *Encoder) {
	e.FileRef(m.File)
	e.I64s(m.Stripes)
	e.Bool(m.Lock)
	e.U64(m.Owner)
	e.U32(m.LeaseMS)
}
func (m *ReadParity) decode(d *Decoder) {
	m.File = d.FileRef()
	m.Stripes = d.I64sDec()
	m.Lock = d.Bool()
	m.Owner = d.U64()
	m.LeaseMS = d.U32()
}

func (m *RenewLease) Kind() Kind { return KRenewLease }
func (m *RenewLease) encode(e *Encoder) {
	e.FileRef(m.File)
	e.I64s(m.Stripes)
	e.U64(m.Owner)
	e.U32(m.LeaseMS)
}
func (m *RenewLease) decode(d *Decoder) {
	m.File = d.FileRef()
	m.Stripes = d.I64sDec()
	m.Owner = d.U64()
	m.LeaseMS = d.U32()
}

func (m *RenewLeaseResp) Kind() Kind        { return KRenewLeaseResp }
func (m *RenewLeaseResp) encode(e *Encoder) { e.U32(m.Renewed) }
func (m *RenewLeaseResp) decode(d *Decoder) { m.Renewed = d.U32() }

func (m *ListIntents) Kind() Kind        { return KListIntents }
func (m *ListIntents) encode(e *Encoder) { e.FileRef(m.File) }
func (m *ListIntents) decode(d *Decoder) { m.File = d.FileRef() }

func (m *ListIntentsResp) Kind() Kind { return KListIntentsResp }
func (m *ListIntentsResp) encode(e *Encoder) {
	e.U32(uint32(len(m.Intents)))
	for _, in := range m.Intents {
		e.I64(in.Stripe)
		e.U64(in.Owner)
		e.Bool(in.Abandoned)
	}
}
func (m *ListIntentsResp) decode(d *Decoder) {
	n := int(d.U32())
	if d.err != nil || n < 0 || n > len(d.Buf) {
		d.fail()
		return
	}
	m.Intents = make([]Intent, n)
	for i := range m.Intents {
		m.Intents[i].Stripe = d.I64()
		m.Intents[i].Owner = d.U64()
		m.Intents[i].Abandoned = d.Bool()
	}
}

func (m *ResolveIntent) Kind() Kind { return KResolveIntent }
func (m *ResolveIntent) encode(e *Encoder) {
	e.FileRef(m.File)
	e.I64(m.Stripe)
	e.U64(m.Owner)
	e.Bytes(m.Data)
}
func (m *ResolveIntent) decode(d *Decoder) {
	m.File = d.FileRef()
	m.Stripe = d.I64()
	m.Owner = d.U64()
	m.Data = d.Bytes()
}

func (m *MarkDirty) Kind() Kind { return KMarkDirty }
func (m *MarkDirty) encode(e *Encoder) {
	e.FileRef(m.File)
	e.U16(m.Dead)
	e.U64(m.Epoch)
	e.I64s(m.Units)
	e.I64s(m.Mirrors)
	e.I64s(m.Stripes)
	e.Bool(m.Overflow)
}
func (m *MarkDirty) decode(d *Decoder) {
	m.File = d.FileRef()
	m.Dead = d.U16()
	m.Epoch = d.U64()
	m.Units = d.I64sDec()
	m.Mirrors = d.I64sDec()
	m.Stripes = d.I64sDec()
	m.Overflow = d.Bool()
}

func (m *DirtyDump) Kind() Kind { return KDirtyDump }
func (m *DirtyDump) encode(e *Encoder) {
	e.FileRef(m.File)
	e.U16(m.Dead)
}
func (m *DirtyDump) decode(d *Decoder) {
	m.File = d.FileRef()
	m.Dead = d.U16()
}

func (m *DirtyDumpResp) Kind() Kind { return KDirtyDumpResp }
func (m *DirtyDumpResp) encode(e *Encoder) {
	e.U64s(m.Epochs)
	e.DirtyItems(m.Units)
	e.DirtyItems(m.Mirrors)
	e.DirtyItems(m.Stripes)
	e.Bool(m.Overflow)
	e.U64(m.OverflowGen)
}
func (m *DirtyDumpResp) decode(d *Decoder) {
	m.Epochs = d.U64sDec()
	m.Units = d.DirtyItemsDec()
	m.Mirrors = d.DirtyItemsDec()
	m.Stripes = d.DirtyItemsDec()
	m.Overflow = d.Bool()
	m.OverflowGen = d.U64()
}

func (m *ClearDirty) Kind() Kind { return KClearDirty }
func (m *ClearDirty) encode(e *Encoder) {
	e.FileRef(m.File)
	e.U16(m.Dead)
	e.Bool(m.All)
	e.DirtyItems(m.Units)
	e.DirtyItems(m.Mirrors)
	e.DirtyItems(m.Stripes)
	e.Bool(m.Overflow)
	e.U64(m.OverflowGen)
}
func (m *ClearDirty) decode(d *Decoder) {
	m.File = d.FileRef()
	m.Dead = d.U16()
	m.All = d.Bool()
	m.Units = d.DirtyItemsDec()
	m.Mirrors = d.DirtyItemsDec()
	m.Stripes = d.DirtyItemsDec()
	m.Overflow = d.Bool()
	m.OverflowGen = d.U64()
}

func (m *UnlockParity) Kind() Kind { return KUnlockParity }
func (m *UnlockParity) encode(e *Encoder) {
	e.FileRef(m.File)
	e.I64s(m.Stripes)
	e.U64(m.Owner)
	e.Bool(m.Dirty)
}
func (m *UnlockParity) decode(d *Decoder) {
	m.File = d.FileRef()
	m.Stripes = d.I64sDec()
	m.Owner = d.U64()
	m.Dirty = d.Bool()
}

func (m *Health) Kind() Kind      { return KHealth }
func (m *Health) encode(*Encoder) {}
func (m *Health) decode(*Decoder) {}

func (m *HealthResp) Kind() Kind { return KHealthResp }
func (m *HealthResp) encode(e *Encoder) {
	e.U16(m.Index)
	e.I64(m.Requests)
}
func (m *HealthResp) decode(d *Decoder) {
	m.Index = d.U16()
	m.Requests = d.I64()
}

func (m *WriteParity) Kind() Kind { return KWriteParity }
func (m *WriteParity) encode(e *Encoder) {
	e.FileRef(m.File)
	e.I64s(m.Stripes)
	e.Bool(m.Unlock)
	e.U64(m.Owner)
	e.Bytes(m.Data)
}
func (m *WriteParity) decode(d *Decoder) {
	m.File = d.FileRef()
	m.Stripes = d.I64sDec()
	m.Unlock = d.Bool()
	m.Owner = d.U64()
	m.Data = d.Bytes()
}

func (m *WriteOverflow) Kind() Kind { return KWriteOverflow }
func (m *WriteOverflow) encode(e *Encoder) {
	e.FileRef(m.File)
	e.Spans(m.Extents)
	e.Bool(m.Mirror)
	e.Bytes(m.Data)
}
func (m *WriteOverflow) decode(d *Decoder) {
	m.File = d.FileRef()
	m.Extents = d.Spans()
	m.Mirror = d.Bool()
	m.Data = d.Bytes()
}

func (m *InvalidateOverflow) Kind() Kind { return KInvalidateOverflow }
func (m *InvalidateOverflow) encode(e *Encoder) {
	e.FileRef(m.File)
	e.Spans(m.Spans)
	e.Bool(m.Mirror)
}
func (m *InvalidateOverflow) decode(d *Decoder) {
	m.File = d.FileRef()
	m.Spans = d.Spans()
	m.Mirror = d.Bool()
}

func (m *OverflowDump) Kind() Kind { return KOverflowDump }
func (m *OverflowDump) encode(e *Encoder) {
	e.FileRef(m.File)
	e.Bool(m.Mirror)
}
func (m *OverflowDump) decode(d *Decoder) {
	m.File = d.FileRef()
	m.Mirror = d.Bool()
}

func (m *OverflowDumpResp) Kind() Kind { return KOverflowDumpResp }
func (m *OverflowDumpResp) encode(e *Encoder) {
	e.Spans(m.Extents)
	e.Bytes(m.Data)
}
func (m *OverflowDumpResp) decode(d *Decoder) {
	m.Extents = d.Spans()
	m.Data = d.BytesCopy()
}

func (m *Sync) Kind() Kind        { return KSync }
func (m *Sync) encode(e *Encoder) { e.FileRef(m.File) }
func (m *Sync) decode(d *Decoder) { m.File = d.FileRef() }

func (m *DropCaches) Kind() Kind      { return KDropCaches }
func (m *DropCaches) encode(*Encoder) {}
func (m *DropCaches) decode(*Decoder) {}

func (m *StorageStat) Kind() Kind        { return KStorageStat }
func (m *StorageStat) encode(e *Encoder) { e.U64(m.FileID) }
func (m *StorageStat) decode(d *Decoder) { m.FileID = d.U64() }

func (m *StorageStatResp) Kind() Kind { return KStorageStatResp }
func (m *StorageStatResp) encode(e *Encoder) {
	e.I64(m.Total)
	for _, v := range m.ByStore {
		e.I64(v)
	}
}
func (m *StorageStatResp) decode(d *Decoder) {
	m.Total = d.I64()
	for i := range m.ByStore {
		m.ByStore[i] = d.I64()
	}
}

func (m *RemoveFile) Kind() Kind        { return KRemoveFile }
func (m *RemoveFile) encode(e *Encoder) { e.FileRef(m.File) }
func (m *RemoveFile) decode(d *Decoder) { m.File = d.FileRef() }

func (m *CompactOverflow) Kind() Kind { return KCompactOverflow }
func (m *CompactOverflow) encode(e *Encoder) {
	e.FileRef(m.File)
	e.Bool(m.Mirror)
}
func (m *CompactOverflow) decode(d *Decoder) {
	m.File = d.FileRef()
	m.Mirror = d.Bool()
}

func (m *Create) Kind() Kind { return KCreate }
func (m *Create) encode(e *Encoder) {
	e.Str(m.Name)
	e.U16(m.Servers)
	e.U32(m.StripeUnit)
	e.U8(uint8(m.Scheme))
	e.U8(m.Parity)
}
func (m *Create) decode(d *Decoder) {
	m.Name = d.Str()
	m.Servers = d.U16()
	m.StripeUnit = d.U32()
	m.Scheme = Scheme(d.U8())
	m.Parity = d.U8()
}

func (m *CreateResp) Kind() Kind        { return KCreateResp }
func (m *CreateResp) encode(e *Encoder) { e.FileRef(m.Ref) }
func (m *CreateResp) decode(d *Decoder) { m.Ref = d.FileRef() }

func (m *Open) Kind() Kind        { return KOpen }
func (m *Open) encode(e *Encoder) { e.Str(m.Name) }
func (m *Open) decode(d *Decoder) { m.Name = d.Str() }

func (m *OpenResp) Kind() Kind { return KOpenResp }
func (m *OpenResp) encode(e *Encoder) {
	e.FileRef(m.Ref)
	e.I64(m.Size)
	e.FileRef(m.Mig)
}
func (m *OpenResp) decode(d *Decoder) {
	m.Ref = d.FileRef()
	m.Size = d.I64()
	m.Mig = d.FileRef()
}

func (m *SetSize) Kind() Kind { return KSetSize }
func (m *SetSize) encode(e *Encoder) {
	e.U64(m.ID)
	e.I64(m.Size)
}
func (m *SetSize) decode(d *Decoder) {
	m.ID = d.U64()
	m.Size = d.I64()
}

func (m *Remove) Kind() Kind        { return KRemove }
func (m *Remove) encode(e *Encoder) { e.Str(m.Name) }
func (m *Remove) decode(d *Decoder) { m.Name = d.Str() }

func (m *List) Kind() Kind      { return KList }
func (m *List) encode(*Encoder) {}
func (m *List) decode(*Decoder) {}

func (m *ListResp) Kind() Kind        { return KListResp }
func (m *ListResp) encode(e *Encoder) { e.Strs(m.Names) }
func (m *ListResp) decode(d *Decoder) { m.Names = d.Strs() }

func (m *ServerList) Kind() Kind      { return KServerList }
func (m *ServerList) encode(*Encoder) {}
func (m *ServerList) decode(*Decoder) {}

func (m *ServerListResp) Kind() Kind        { return KServerListResp }
func (m *ServerListResp) encode(e *Encoder) { e.Strs(m.Addrs) }
func (m *ServerListResp) decode(d *Decoder) { m.Addrs = d.Strs() }

func (m *ChecksumRange) Kind() Kind { return KChecksumRange }
func (m *ChecksumRange) encode(e *Encoder) {
	e.FileRef(m.File)
	e.U8(m.Store)
	e.I64(m.Off)
	e.I64(m.Len)
	e.I64(m.Chunk)
}
func (m *ChecksumRange) decode(d *Decoder) {
	m.File = d.FileRef()
	m.Store = d.U8()
	m.Off = d.I64()
	m.Len = d.I64()
	m.Chunk = d.I64()
}

func (m *Stats) Kind() Kind      { return KStats }
func (m *Stats) encode(*Encoder) {}
func (m *Stats) decode(*Decoder) {}

func (m *StatsResp) Kind() Kind { return KStatsResp }
func (m *StatsResp) encode(e *Encoder) {
	e.U16(m.Index)
	e.I64(m.Requests)
	e.U32(uint32(len(m.Counters)))
	for _, kv := range m.Counters {
		e.Str(kv.Name)
		e.I64(kv.Value)
	}
	e.U32(uint32(len(m.Gauges)))
	for _, kv := range m.Gauges {
		e.Str(kv.Name)
		e.I64(kv.Value)
	}
	e.U32(uint32(len(m.Hists)))
	for _, h := range m.Hists {
		e.Str(h.Name)
		e.I64(h.Count)
		e.I64(h.Sum)
		e.I64(h.Max)
		e.I64s(h.Buckets)
	}
}
func (m *StatsResp) decode(d *Decoder) {
	m.Index = d.U16()
	m.Requests = d.I64()
	m.Counters = d.statKVs()
	m.Gauges = d.statKVs()
	n := int(d.U32())
	if d.err != nil || n < 0 || n > len(d.Buf) {
		d.fail()
		return
	}
	m.Hists = make([]HistDump, n)
	for i := range m.Hists {
		m.Hists[i].Name = d.Str()
		m.Hists[i].Count = d.I64()
		m.Hists[i].Sum = d.I64()
		m.Hists[i].Max = d.I64()
		m.Hists[i].Buckets = d.I64sDec()
	}
}

// MetaReplicate encodes its bulk Rec field last so MarshalFrame can carry a
// snapshot payload by reference instead of copying it into the head buffer.
func (m *MetaReplicate) Kind() Kind { return KMetaReplicate }
func (m *MetaReplicate) encode(e *Encoder) {
	e.U64(m.Epoch)
	e.U64(m.Seq)
	e.Bool(m.Snap)
	e.Bytes(m.Rec)
}
func (m *MetaReplicate) decode(d *Decoder) {
	m.Epoch = d.U64()
	m.Seq = d.U64()
	m.Snap = d.Bool()
	m.Rec = d.BytesCopy()
}

func (m *MetaReplicateResp) Kind() Kind { return KMetaReplicateResp }
func (m *MetaReplicateResp) encode(e *Encoder) {
	e.U64(m.Epoch)
	e.U64(m.Seq)
}
func (m *MetaReplicateResp) decode(d *Decoder) {
	m.Epoch = d.U64()
	m.Seq = d.U64()
}

func (m *SetScheme) Kind() Kind { return KSetScheme }
func (m *SetScheme) encode(e *Encoder) {
	e.U64(m.ID)
	e.U8(uint8(m.Scheme))
	e.U8(m.Parity)
}
func (m *SetScheme) decode(d *Decoder) {
	m.ID = d.U64()
	m.Scheme = Scheme(d.U8())
	m.Parity = d.U8()
}

func (m *SetSchemeResp) Kind() Kind { return KSetSchemeResp }
func (m *SetSchemeResp) encode(e *Encoder) {
	e.FileRef(m.Old)
	e.FileRef(m.New)
	e.I64(m.Size)
}
func (m *SetSchemeResp) decode(d *Decoder) {
	m.Old = d.FileRef()
	m.New = d.FileRef()
	m.Size = d.I64()
}

func (m *CommitScheme) Kind() Kind { return KCommitScheme }
func (m *CommitScheme) encode(e *Encoder) {
	e.U64(m.ID)
	e.U64(m.NewID)
}
func (m *CommitScheme) decode(d *Decoder) {
	m.ID = d.U64()
	m.NewID = d.U64()
}

func (m *AbortScheme) Kind() Kind { return KAbortScheme }
func (m *AbortScheme) encode(e *Encoder) {
	e.U64(m.ID)
	e.U64(m.NewID)
}
func (m *AbortScheme) decode(d *Decoder) {
	m.ID = d.U64()
	m.NewID = d.U64()
}

func (m *MetaStatus) Kind() Kind      { return KMetaStatus }
func (m *MetaStatus) encode(*Encoder) {}
func (m *MetaStatus) decode(*Decoder) {}

func (m *MetaStatusResp) Kind() Kind { return KMetaStatusResp }
func (m *MetaStatusResp) encode(e *Encoder) {
	e.U16(m.Index)
	e.U64(m.Epoch)
	e.U64(m.Seq)
	e.Bool(m.Primary)
	e.I64(m.Files)
	e.I64(m.WALBytes)
}
func (m *MetaStatusResp) decode(d *Decoder) {
	m.Index = d.U16()
	m.Epoch = d.U64()
	m.Seq = d.U64()
	m.Primary = d.Bool()
	m.Files = d.I64()
	m.WALBytes = d.I64()
}

func (d *Decoder) statKVs() []StatKV {
	n := int(d.U32())
	if d.err != nil || n < 0 || n > len(d.Buf) {
		d.fail()
		return nil
	}
	v := make([]StatKV, n)
	for i := range v {
		v[i].Name = d.Str()
		v[i].Value = d.I64()
	}
	return v
}

func (m *ChecksumRangeResp) Kind() Kind { return KChecksumRangeResp }
func (m *ChecksumRangeResp) encode(e *Encoder) {
	e.U32s(m.Sums)
	e.I64(m.Bytes)
}
func (m *ChecksumRangeResp) decode(d *Decoder) {
	m.Sums = d.U32sDec()
	m.Bytes = d.I64()
}
