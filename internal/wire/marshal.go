package wire

import "fmt"

// encode appends m to c.Buf: the kind byte — for a non-zero trace with
// KindTraceFlag set and the 8-byte little-endian trace ID after it — then
// the body. It is the one encoder behind Marshal and MarshalFrame, which
// differ only in c.split (see Codec).
func encode(c *Codec, m Msg, trace uint64) {
	kind := uint8(m.Kind())
	if trace != 0 {
		kind |= KindTraceFlag
	}
	c.U8(&kind)
	if trace != 0 {
		c.U64(&trace)
	}
	m.codec(c)
}

// Marshal serializes a message as a kind byte followed by its body.
func Marshal(m Msg) []byte {
	c := &Codec{Buf: make([]byte, 0, 72)}
	encode(c, m, 0)
	return c.Buf
}

// Unmarshal parses a message produced by Marshal or MarshalFrame, discarding
// any trace ID. The aliasing rule of UnmarshalTraced applies.
func Unmarshal(b []byte) (Msg, error) {
	m, _, err := UnmarshalTraced(b)
	return m, err
}

// UnmarshalTraced parses a message produced by Marshal or MarshalFrame and
// returns the trace ID it carried (zero for untraced frames).
//
// The bulk Data field of WriteData, WriteMirror, WriteParity, WriteOverflow,
// ResolveIntent and ReadResp is a view of b, not a copy: the caller of
// Unmarshal owns the input for as long as the message's Data is in use, and
// must neither modify nor recycle it before then. Every other field is
// copied out.
func UnmarshalTraced(b []byte) (Msg, uint64, error) {
	c := Decoding(b)
	var kind uint8
	var trace uint64
	if c.U8(&kind); kind&KindTraceFlag != 0 {
		c.U64(&trace)
		kind &^= KindTraceFlag
	}
	if c.err != nil {
		return nil, 0, fmt.Errorf("wire: truncated header in a %d-byte message", len(b))
	}
	if int(kind) >= len(kinds) || kinds[kind].new == nil {
		return nil, 0, fmt.Errorf("wire: unknown message kind %d", kind)
	}
	m := kinds[kind].new()
	m.codec(&c)
	if c.err != nil {
		return nil, 0, fmt.Errorf("wire: decoding %T (offset %d of %d): %w", m, c.off, len(b), c.err)
	}
	return m, trace, nil
}

// kinds is the one kind table, indexed by Kind: each message kind's name,
// for logs and metric labels, and its constructor, for Unmarshal.
var kinds = [...]struct {
	name string
	new  func() Msg
}{
	KError:              {"error", func() Msg { return new(Error) }},
	KOK:                 {"ok", func() Msg { return new(OK) }},
	KPing:               {"ping", func() Msg { return new(Ping) }},
	KRead:               {"read", func() Msg { return new(Read) }},
	KReadResp:           {"read_resp", func() Msg { return new(ReadResp) }},
	KWriteData:          {"write_data", func() Msg { return new(WriteData) }},
	KWriteMirror:        {"write_mirror", func() Msg { return new(WriteMirror) }},
	KReadMirror:         {"read_mirror", func() Msg { return new(ReadMirror) }},
	KReadParity:         {"read_parity", func() Msg { return new(ReadParity) }},
	KWriteParity:        {"write_parity", func() Msg { return new(WriteParity) }},
	KWriteOverflow:      {"write_overflow", func() Msg { return new(WriteOverflow) }},
	KInvalidateOverflow: {"invalidate_overflow", func() Msg { return new(InvalidateOverflow) }},
	KOverflowDump:       {"overflow_dump", func() Msg { return new(OverflowDump) }},
	KOverflowDumpResp:   {"overflow_dump_resp", func() Msg { return new(OverflowDumpResp) }},
	KSync:               {"sync", func() Msg { return new(Sync) }},
	KDropCaches:         {"drop_caches", func() Msg { return new(DropCaches) }},
	KStorageStat:        {"storage_stat", func() Msg { return new(StorageStat) }},
	KStorageStatResp:    {"storage_stat_resp", func() Msg { return new(StorageStatResp) }},
	KRemoveFile:         {"remove_file", func() Msg { return new(RemoveFile) }},
	KCompactOverflow:    {"compact_overflow", func() Msg { return new(CompactOverflow) }},
	KCreate:             {"create", func() Msg { return new(Create) }},
	KCreateResp:         {"create_resp", func() Msg { return new(CreateResp) }},
	KOpen:               {"open", func() Msg { return new(Open) }},
	KOpenResp:           {"open_resp", func() Msg { return new(OpenResp) }},
	KSetSize:            {"set_size", func() Msg { return new(SetSize) }},
	KRemove:             {"remove", func() Msg { return new(Remove) }},
	KList:               {"list", func() Msg { return new(List) }},
	KListResp:           {"list_resp", func() Msg { return new(ListResp) }},
	KServerList:         {"server_list", func() Msg { return new(ServerList) }},
	KServerListResp:     {"server_list_resp", func() Msg { return new(ServerListResp) }},
	KChecksumRange:      {"checksum_range", func() Msg { return new(ChecksumRange) }},
	KChecksumRangeResp:  {"checksum_range_resp", func() Msg { return new(ChecksumRangeResp) }},
	KHealth:             {"health", func() Msg { return new(Health) }},
	KHealthResp:         {"health_resp", func() Msg { return new(HealthResp) }},
	KUnlockParity:       {"unlock_parity", func() Msg { return new(UnlockParity) }},
	KRenewLease:         {"renew_lease", func() Msg { return new(RenewLease) }},
	KRenewLeaseResp:     {"renew_lease_resp", func() Msg { return new(RenewLeaseResp) }},
	KListIntents:        {"list_intents", func() Msg { return new(ListIntents) }},
	KListIntentsResp:    {"list_intents_resp", func() Msg { return new(ListIntentsResp) }},
	KResolveIntent:      {"resolve_intent", func() Msg { return new(ResolveIntent) }},
	KMarkDirty:          {"mark_dirty", func() Msg { return new(MarkDirty) }},
	KDirtyDump:          {"dirty_dump", func() Msg { return new(DirtyDump) }},
	KDirtyDumpResp:      {"dirty_dump_resp", func() Msg { return new(DirtyDumpResp) }},
	KClearDirty:         {"clear_dirty", func() Msg { return new(ClearDirty) }},
	KStats:              {"stats", func() Msg { return new(Stats) }},
	KStatsResp:          {"stats_resp", func() Msg { return new(StatsResp) }},
	KMetaReplicate:      {"meta_replicate", func() Msg { return new(MetaReplicate) }},
	KMetaReplicateResp:  {"meta_replicate_resp", func() Msg { return new(MetaReplicateResp) }},
	KMetaStatus:         {"meta_status", func() Msg { return new(MetaStatus) }},
	KMetaStatusResp:     {"meta_status_resp", func() Msg { return new(MetaStatusResp) }},
	KSetScheme:          {"set_scheme", func() Msg { return new(SetScheme) }},
	KSetSchemeResp:      {"set_scheme_resp", func() Msg { return new(SetSchemeResp) }},
	KCommitScheme:       {"commit_scheme", func() Msg { return new(CommitScheme) }},
	KAbortScheme:        {"abort_scheme", func() Msg { return new(AbortScheme) }},
	KRetireIntents:      {"retire_intents", func() Msg { return new(RetireIntents) }},
}

// Each message's codec lists its fields in wire order. A bulk byte field
// (Data, Rec) is always the last one, so MarshalFrame can carry it by
// reference after the head.

func (m *Error) Kind() Kind { return KError }
func (m *Error) codec(c *Codec) {
	c.Str(&m.Text)
	c.U8(&m.Code)
}
func (m *Error) Error() string { return m.Text }

func (m *OK) Kind() Kind   { return KOK }
func (m *OK) codec(*Codec) {}

func (m *Ping) Kind() Kind   { return KPing }
func (m *Ping) codec(*Codec) {}

func (m *Read) Kind() Kind { return KRead }
func (m *Read) codec(c *Codec) {
	c.FileRef(&m.File)
	slice(c, &m.Spans, elemSpan)
	c.Bool(&m.Raw)
}

func (m *ReadResp) Kind() Kind { return KReadResp }
func (m *ReadResp) codec(c *Codec) {
	c.bytesFrom(&m.Data, m.into)
}

func (m *WriteData) Kind() Kind { return KWriteData }
func (m *WriteData) codec(c *Codec) {
	c.FileRef(&m.File)
	slice(c, &m.Spans, elemSpan)
	c.Bool(&m.Raw)
	c.bytesFrom(&m.Data, m.From)
}

func (m *WriteMirror) Kind() Kind { return KWriteMirror }
func (m *WriteMirror) codec(c *Codec) {
	c.FileRef(&m.File)
	slice(c, &m.Spans, elemSpan)
	c.bytesFrom(&m.Data, m.From)
}

func (m *ReadMirror) Kind() Kind { return KReadMirror }
func (m *ReadMirror) codec(c *Codec) {
	c.FileRef(&m.File)
	slice(c, &m.Spans, elemSpan)
}

func (m *ReadParity) Kind() Kind { return KReadParity }
func (m *ReadParity) codec(c *Codec) {
	c.FileRef(&m.File)
	slice(c, &m.Stripes, elemI64)
	c.Bool(&m.Lock)
	c.U64(&m.Owner)
	c.U32(&m.LeaseMS)
	slice(c, &m.Ranges, elemSpan)
}

func (m *RenewLease) Kind() Kind { return KRenewLease }
func (m *RenewLease) codec(c *Codec) {
	c.FileRef(&m.File)
	slice(c, &m.Stripes, elemI64)
	c.U64(&m.Owner)
	c.U32(&m.LeaseMS)
}

func (m *RenewLeaseResp) Kind() Kind     { return KRenewLeaseResp }
func (m *RenewLeaseResp) codec(c *Codec) { c.U32(&m.Renewed) }

func (m *ListIntents) Kind() Kind     { return KListIntents }
func (m *ListIntents) codec(c *Codec) { c.FileRef(&m.File) }

func (m *ListIntentsResp) Kind() Kind     { return KListIntentsResp }
func (m *ListIntentsResp) codec(c *Codec) { slice(c, &m.Intents, elemIntent) }

func (m *ResolveIntent) Kind() Kind { return KResolveIntent }
func (m *ResolveIntent) codec(c *Codec) {
	c.FileRef(&m.File)
	c.I64(&m.Stripe)
	c.U64(&m.Owner)
	c.Bytes(&m.Data)
}

func (m *RetireIntents) Kind() Kind { return KRetireIntents }
func (m *RetireIntents) codec(c *Codec) {
	c.FileRef(&m.File)
	slice(c, &m.Intents, elemIntentID)
}

func (m *MarkDirty) Kind() Kind { return KMarkDirty }
func (m *MarkDirty) codec(c *Codec) {
	c.FileRef(&m.File)
	c.U16(&m.Dead)
	c.U64(&m.Epoch)
	slice(c, &m.Groups, elemI64)
	c.Bool(&m.Overflow)
}

func (m *DirtyDump) Kind() Kind { return KDirtyDump }
func (m *DirtyDump) codec(c *Codec) {
	c.FileRef(&m.File)
	c.U16(&m.Dead)
}

func (m *DirtyDumpResp) Kind() Kind { return KDirtyDumpResp }
func (m *DirtyDumpResp) codec(c *Codec) {
	slice(c, &m.Epochs, elemU64)
	slice(c, &m.Groups, elemDirtyItem)
	c.Bool(&m.Overflow)
	c.U64(&m.OverflowGen)
}

func (m *ClearDirty) Kind() Kind { return KClearDirty }
func (m *ClearDirty) codec(c *Codec) {
	c.FileRef(&m.File)
	c.U16(&m.Dead)
	c.Bool(&m.All)
	slice(c, &m.Groups, elemDirtyItem)
	c.Bool(&m.Overflow)
	c.U64(&m.OverflowGen)
}

func (m *UnlockParity) Kind() Kind { return KUnlockParity }
func (m *UnlockParity) codec(c *Codec) {
	c.FileRef(&m.File)
	slice(c, &m.Stripes, elemI64)
	c.U64(&m.Owner)
	c.Bool(&m.Dirty)
}

func (m *Health) Kind() Kind   { return KHealth }
func (m *Health) codec(*Codec) {}

func (m *HealthResp) Kind() Kind { return KHealthResp }
func (m *HealthResp) codec(c *Codec) {
	c.U16(&m.Index)
	c.I64(&m.Requests)
}

func (m *WriteParity) Kind() Kind { return KWriteParity }
func (m *WriteParity) codec(c *Codec) {
	c.FileRef(&m.File)
	slice(c, &m.Stripes, elemI64)
	c.Bool(&m.Unlock)
	c.U64(&m.Owner)
	slice(c, &m.Ranges, elemSpan) // before Data: the bulk payload stays last
	c.Bytes(&m.Data)
}

func (m *WriteOverflow) Kind() Kind { return KWriteOverflow }
func (m *WriteOverflow) codec(c *Codec) {
	c.FileRef(&m.File)
	slice(c, &m.Extents, elemSpan)
	c.Bool(&m.Mirror)
	c.bytesFrom(&m.Data, m.From)
}

func (m *InvalidateOverflow) Kind() Kind { return KInvalidateOverflow }
func (m *InvalidateOverflow) codec(c *Codec) {
	c.FileRef(&m.File)
	slice(c, &m.Spans, elemSpan)
	c.Bool(&m.Mirror)
}

func (m *OverflowDump) Kind() Kind { return KOverflowDump }
func (m *OverflowDump) codec(c *Codec) {
	c.FileRef(&m.File)
	c.Bool(&m.Mirror)
}

func (m *OverflowDumpResp) Kind() Kind { return KOverflowDumpResp }
func (m *OverflowDumpResp) codec(c *Codec) {
	slice(c, &m.Extents, elemSpan)
	c.BytesCopy(&m.Data)
}

func (m *Sync) Kind() Kind     { return KSync }
func (m *Sync) codec(c *Codec) { c.FileRef(&m.File) }

func (m *DropCaches) Kind() Kind   { return KDropCaches }
func (m *DropCaches) codec(*Codec) {}

func (m *StorageStat) Kind() Kind     { return KStorageStat }
func (m *StorageStat) codec(c *Codec) { c.U64(&m.FileID) }

func (m *StorageStatResp) Kind() Kind { return KStorageStatResp }
func (m *StorageStatResp) codec(c *Codec) {
	c.I64(&m.Total)
	for i := range m.ByStore {
		c.I64(&m.ByStore[i])
	}
}

func (m *RemoveFile) Kind() Kind     { return KRemoveFile }
func (m *RemoveFile) codec(c *Codec) { c.FileRef(&m.File) }

func (m *CompactOverflow) Kind() Kind { return KCompactOverflow }
func (m *CompactOverflow) codec(c *Codec) {
	c.FileRef(&m.File)
	c.Bool(&m.Mirror)
}

func (m *Create) Kind() Kind { return KCreate }
func (m *Create) codec(c *Codec) {
	c.Str(&m.Name)
	c.U16(&m.Servers)
	c.U32(&m.StripeUnit)
	c.U8((*uint8)(&m.Scheme))
	c.U8(&m.Parity)
}

func (m *CreateResp) Kind() Kind     { return KCreateResp }
func (m *CreateResp) codec(c *Codec) { c.FileRef(&m.Ref) }

func (m *Open) Kind() Kind     { return KOpen }
func (m *Open) codec(c *Codec) { c.Str(&m.Name) }

func (m *OpenResp) Kind() Kind { return KOpenResp }
func (m *OpenResp) codec(c *Codec) {
	c.FileRef(&m.Ref)
	c.I64(&m.Size)
	c.FileRef(&m.Mig)
}

func (m *SetSize) Kind() Kind { return KSetSize }
func (m *SetSize) codec(c *Codec) {
	c.U64(&m.ID)
	c.I64(&m.Size)
}

func (m *Remove) Kind() Kind     { return KRemove }
func (m *Remove) codec(c *Codec) { c.Str(&m.Name) }

func (m *List) Kind() Kind   { return KList }
func (m *List) codec(*Codec) {}

func (m *ListResp) Kind() Kind     { return KListResp }
func (m *ListResp) codec(c *Codec) { slice(c, &m.Names, elemStr) }

func (m *ServerList) Kind() Kind   { return KServerList }
func (m *ServerList) codec(*Codec) {}

func (m *ServerListResp) Kind() Kind     { return KServerListResp }
func (m *ServerListResp) codec(c *Codec) { slice(c, &m.Addrs, elemStr) }

func (m *ChecksumRange) Kind() Kind { return KChecksumRange }
func (m *ChecksumRange) codec(c *Codec) {
	c.FileRef(&m.File)
	c.U8(&m.Store)
	c.I64(&m.Off)
	c.I64(&m.Len)
	c.I64(&m.Chunk)
}

func (m *ChecksumRangeResp) Kind() Kind { return KChecksumRangeResp }
func (m *ChecksumRangeResp) codec(c *Codec) {
	slice(c, &m.Sums, elemU32)
	c.I64(&m.Bytes)
}

func (m *Stats) Kind() Kind   { return KStats }
func (m *Stats) codec(*Codec) {}

func (m *StatsResp) Kind() Kind { return KStatsResp }
func (m *StatsResp) codec(c *Codec) {
	c.U16(&m.Index)
	c.I64(&m.Requests)
	slice(c, &m.Counters, elemStatKV)
	slice(c, &m.Gauges, elemStatKV)
	slice(c, &m.Hists, elemHistDump)
}

func (m *MetaReplicate) Kind() Kind { return KMetaReplicate }
func (m *MetaReplicate) codec(c *Codec) {
	c.U64(&m.Epoch)
	c.U64(&m.Seq)
	c.Bool(&m.Snap)
	c.BytesCopy(&m.Rec)
}

func (m *MetaReplicateResp) Kind() Kind { return KMetaReplicateResp }
func (m *MetaReplicateResp) codec(c *Codec) {
	c.U64(&m.Epoch)
	c.U64(&m.Seq)
}

func (m *MetaStatus) Kind() Kind   { return KMetaStatus }
func (m *MetaStatus) codec(*Codec) {}

func (m *MetaStatusResp) Kind() Kind { return KMetaStatusResp }
func (m *MetaStatusResp) codec(c *Codec) {
	c.U16(&m.Index)
	c.U64(&m.Epoch)
	c.U64(&m.Seq)
	c.Bool(&m.Primary)
	c.I64(&m.Files)
	c.I64(&m.WALBytes)
}

func (m *SetScheme) Kind() Kind { return KSetScheme }
func (m *SetScheme) codec(c *Codec) {
	c.U64(&m.ID)
	c.U8((*uint8)(&m.Scheme))
	c.U8(&m.Parity)
}

func (m *SetSchemeResp) Kind() Kind { return KSetSchemeResp }
func (m *SetSchemeResp) codec(c *Codec) {
	c.FileRef(&m.Old)
	c.FileRef(&m.New)
	c.I64(&m.Size)
}

func (m *CommitScheme) Kind() Kind { return KCommitScheme }
func (m *CommitScheme) codec(c *Codec) {
	c.U64(&m.ID)
	c.U64(&m.NewID)
}

func (m *AbortScheme) Kind() Kind { return KAbortScheme }
func (m *AbortScheme) codec(c *Codec) {
	c.U64(&m.ID)
	c.U64(&m.NewID)
}
