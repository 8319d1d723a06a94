package wire

import (
	"bytes"
	"testing"
)

// fuzzSeeds holds at least one exemplar message per registered kind; the
// fuzz corpus is built from their encodings, and
// TestFuzzSeedsCoverAllKinds keeps the list honest as the protocol grows
// (a new message type without a seed fails the suite, not just the fuzzer's
// coverage).
func fuzzSeeds() []Msg {
	ref := FileRef{ID: 3, Servers: 5, StripeUnit: 4096, Scheme: Hybrid}
	// Reed-Solomon seeds: the RS scheme + parity-count FileRef field and
	// the multi-parity lock/intent traffic (same stripe locked on several
	// parity servers, per-server intent resolution).
	rsRef := FileRef{ID: 4, Servers: 6, StripeUnit: 4096, Scheme: ReedSolomon, Parity: 2}
	return []Msg{
		&Create{Name: "rs", Servers: 6, StripeUnit: 4096, Scheme: ReedSolomon, Parity: 2},
		&CreateResp{Ref: rsRef},
		&ReadParity{File: rsRef, Stripes: []int64{7, 13}, Lock: true, Session: 91, Seq: 14, LeaseMS: 5000, Watermark: 12},
		&WriteParity{File: rsRef, Stripes: []int64{7, 13}, Data: []byte{0xC3, 0x5A}, Unlock: true, Session: 91, Seq: 14},
		&UnlockParity{File: rsRef, Stripes: []int64{7}, Session: 91, Seq: 14, Dirty: true},
		&RenewLease{Session: 91, LeaseMS: 5000, Watermark: 14},
		&ListIntents{File: rsRef},
		&ResolveIntent{File: rsRef, Stripe: 7, Session: 91, Seq: 14, Data: []byte{0x01, 0x02}},
		&MarkDirty{File: rsRef, Dead: 4, Epoch: 7, Groups: []int64{7, 13}},
		&Error{Text: "boom"},
		&Error{Text: "down", Code: CodeUnavailable},
		&OK{},
		&Ping{},
		&Read{File: ref, Spans: []Span{{0, 10}, {100, 5}}, Raw: true},
		&ReadResp{Data: []byte{4, 5, 6}},
		&WriteData{File: ref, Spans: []Span{{0, 3}}, Data: []byte{1, 2, 3}},
		&WriteData{File: ref, Store: StoreMirror, Spans: []Span{{64, 4}}, Data: []byte{8, 8, 8, 8}},
		&Read{File: ref, Store: StoreMirror, Spans: []Span{{0, 128}}},
		&ReadParity{File: ref, Stripes: []int64{7}, Lock: true, Session: 42, Seq: 1, LeaseMS: 5000},
		&WriteParity{File: ref, Stripes: []int64{7}, Data: []byte{0xAA}, Unlock: true, Session: 42, Seq: 1},
		&WriteData{File: ref, Store: StoreOverflowMirror, Spans: []Span{{8, 2}}, Data: []byte{9, 9}},
		&InvalidateOverflow{File: ref, Spans: []Span{{8, 2}}, Mirror: true},
		&OverflowDump{File: ref, Mirror: true},
		&OverflowDumpResp{Extents: []Span{{8, 2}}, Data: []byte{9, 9}},
		&Sync{File: ref},
		&DropCaches{},
		&StorageStat{FileID: 3},
		&StorageStatResp{Total: 5, ByStore: [5]int64{1, 1, 1, 1, 1}},
		&RemoveFile{File: ref},
		&CompactOverflow{File: ref, Mirror: true},
		&Create{Name: "f", Servers: 5, StripeUnit: 4096, Scheme: Hybrid},
		&CreateResp{Ref: ref},
		&Open{Name: "f"},
		&OpenResp{Ref: ref, Size: 1 << 40},
		&OpenResp{Ref: ref, Size: 1 << 20, Mig: rsRef}, // mid-migration open
		&SetSize{ID: 3, Size: 999},
		&SetScheme{ID: 3, Scheme: ReedSolomon, Parity: 2},
		&SetSchemeResp{Old: ref, New: rsRef, Size: 1 << 20},
		&CommitScheme{ID: 3, NewID: 4},
		&AbortScheme{ID: 3, NewID: 4},
		&Remove{Name: "f"},
		&List{},
		&ListResp{Names: []string{"a", "b"}},
		&ServerList{},
		&ServerListResp{Addrs: []string{"127.0.0.1:7101"}},
		&ChecksumRange{File: ref, Store: StoreOverflowMirror, Off: 0, Len: 1 << 20, Chunk: 4096},
		&ChecksumRangeResp{Sums: []uint32{7, 0xffffffff}, Bytes: 8192},
		&Health{},
		&HealthResp{Index: 2, Requests: 17},
		&UnlockParity{File: ref, Stripes: []int64{7, 9}, Session: 42, Seq: 2, Dirty: true},
		&Error{Text: "fenced", Code: CodeLeaseExpired},
		&Error{Text: "torn", Code: CodeStripeTorn},
		&RenewLease{Session: 42, LeaseMS: 5000, Watermark: 1},
		&RenewLeaseResp{Live: true},
		&ListIntents{File: ref},
		&ListIntentsResp{Intents: []Intent{{Stripe: 7, Session: 42, Seq: 2, Abandoned: true}, {Stripe: 9, Session: 43, Seq: 5}}},
		&ResolveIntent{File: ref, Stripe: 7, Session: 42, Seq: 2, Data: []byte{0xAA, 0xBB}},
		&MarkDirty{File: ref, Dead: 2, Epoch: 99, Groups: []int64{0, 1, 3}, Overflow: true},
		&MarkDirty{File: ref, Dead: 0, Epoch: 0}, // poison record
		&DirtyDump{File: ref, Dead: 2},
		&DirtyDumpResp{Epochs: []uint64{99}, Groups: []DirtyItem{{Group: 0, Gen: 1}, {Group: 1, Gen: 3}, {Group: 3, Gen: 1}}, Overflow: true, OverflowGen: 2},
		&ClearDirty{File: ref, Dead: 2, Groups: []DirtyItem{{Group: 0, Gen: 1}, {Group: 1, Gen: 1}}, Overflow: true, OverflowGen: 2},
		&ClearDirty{File: ref, Dead: 2, All: true},
		&MetaReplicate{Epoch: 3, Seq: 17, Rec: []byte{0x01, 0x02, 0x03}},
		&MetaReplicate{Epoch: 4, Seq: 20, Snap: true, Rec: []byte(`{"next_id":5}`)},
		&MetaReplicateResp{Epoch: 3, Seq: 17},
		&MetaStatus{},
		&MetaStatusResp{Index: 1, Epoch: 3, Seq: 17, Primary: true, Files: 9, WALBytes: 4096},
		&Error{Text: "standby", Code: CodeNotPrimary},
		&Error{Text: "deposed", Code: CodeStaleEpoch},
		&Stats{},
		&StatsResp{
			Index:    2,
			Requests: 123,
			Counters: []StatKV{{Name: "bytes_in", Value: 4096}},
			Gauges:   []StatKV{{Name: "locks_held", Value: 1}},
			Hists: []HistDump{{
				Name: "rpc_read", Count: 2, Sum: 3000, Max: 2000,
				Buckets: []int64{0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1, 1},
			}},
		},
		// A read-modify-write's ranged parity traffic: the in-unit ranges of
		// an update straddling two units, on one and on two parity units.
		&ReadParity{File: ref, Stripes: []int64{7}, Lock: true, Session: 43, Seq: 6, LeaseMS: 5000,
			Ranges: []Span{{0, 2}, {4000, 96}}},
		&WriteParity{File: ref, Stripes: []int64{7}, Ranges: []Span{{0, 2}, {4000, 96}},
			Data: bytes.Repeat([]byte{0x5A}, 98), Unlock: true, Session: 43, Seq: 6},
		&ReadParity{File: rsRef, Stripes: []int64{13}, Lock: true, Session: 92, Seq: 3, Ranges: []Span{{100, 1}}},
		&WriteParity{File: rsRef, Stripes: []int64{13}, Ranges: []Span{{100, 1}}, Data: []byte{0xC3}, Session: 92, Seq: 3},
		// A session's watermark flushed without a lease: it retires the
		// session's pending intents at or below seq 93 and renews nothing.
		&RenewLease{Session: 91, Watermark: 93},
		// The member messages on the parity store, in stripe space — a read
		// of one stripe's whole unit and part of another's, and a write —
		// and an overflow-store write of extents in two units.
		&Read{File: rsRef, Store: StoreParity, Spans: []Span{{7 * 4096, 4096}, {13*4096 + 100, 8}}, Raw: true},
		&WriteData{File: rsRef, Store: StoreParity, Spans: []Span{{13 * 4096, 2}}, Data: []byte{0xC3, 0x5A}},
		&WriteData{File: ref, Store: StoreOverflow, Spans: []Span{{8, 2}, {4100, 1}}, Data: []byte{9, 9, 7}},
		// A Hybrid write's two parts to one server: its overflow piece of
		// one unit, then its overflow-mirror piece of the unit before.
		&WriteData{File: ref, Store: StoreOverflow, Spans: []Span{{4100, 2}},
			More: []Part{{Store: StoreOverflowMirror, Spans: []Span{{4090, 6}}}}, Data: []byte{7, 7, 9, 9, 9, 9, 9, 9}},
	}
}

// TestKindsBelowTraceFlag keeps the kind space clear of the trace-flag bit:
// a kind value at or above 0x80 would be indistinguishable from a traced
// frame of kind value-0x80.
func TestKindsBelowTraceFlag(t *testing.T) {
	for _, k := range registeredKinds() {
		if uint8(k)&KindTraceFlag != 0 {
			t.Errorf("message kind %d (%v) collides with KindTraceFlag", uint8(k), k)
		}
	}
}

// registeredKinds lists every kind the kind table can decode.
func registeredKinds() []Kind {
	var ks []Kind
	for k, e := range kinds {
		if e.new != nil {
			ks = append(ks, Kind(k))
		}
	}
	return ks
}

// marshalTraced is the contiguous traced encoding: a traced frame's head
// followed by its by-reference payload.
func marshalTraced(m Msg, trace uint64) []byte {
	fr := MarshalFrame(m, trace)
	defer fr.Free()
	return append(append([]byte(nil), fr.Head()...), fr.Payload...)
}

// TestTracedRoundTrip covers the traced frame encoding: the trace ID rides
// the header, the message body is unchanged, and zero-trace frames use the
// untraced encoding byte-for-byte.
func TestTracedRoundTrip(t *testing.T) {
	ref := FileRef{ID: 3, Servers: 5, StripeUnit: 4096, Scheme: Hybrid}
	msg := &Read{File: ref, Spans: []Span{{0, 10}}}

	b := marshalTraced(msg, 0xDEADBEEFCAFE)
	m, trace, err := UnmarshalTraced(b)
	if err != nil {
		t.Fatal(err)
	}
	if trace != 0xDEADBEEFCAFE {
		t.Errorf("trace = %#x, want 0xDEADBEEFCAFE", trace)
	}
	if got := m.(*Read); got.File != ref || len(got.Spans) != 1 {
		t.Errorf("traced body mismatch: %+v", got)
	}
	// Plain Unmarshal accepts traced frames too, discarding the ID.
	if _, err := Unmarshal(b); err != nil {
		t.Errorf("Unmarshal rejected traced frame: %v", err)
	}
	if !bytes.Equal(marshalTraced(msg, 0), Marshal(msg)) {
		t.Error("zero-trace frame differs from Marshal")
	}
	if _, _, err := UnmarshalTraced([]byte{uint8(KRead) | KindTraceFlag, 1, 2}); err == nil {
		t.Error("truncated trace header accepted")
	}
}

// TestFuzzSeedsCoverAllKinds asserts every wire message type has at least
// one fuzz corpus seed.
func TestFuzzSeedsCoverAllKinds(t *testing.T) {
	seeded := map[Kind]bool{}
	for _, m := range fuzzSeeds() {
		seeded[m.Kind()] = true
	}
	for _, k := range registeredKinds() {
		if !seeded[k] {
			t.Errorf("message kind %d (%T) has no fuzz seed", k, kinds[k].new())
		}
	}
}

// FuzzUnmarshal feeds arbitrary bytes to the message decoder: it must never
// panic, and anything it accepts must re-marshal and re-parse to an
// equivalent message (a decode/encode/decode fixed point).
func FuzzUnmarshal(f *testing.F) {
	for i, m := range fuzzSeeds() {
		f.Add(Marshal(m))
		// Every other seed also goes in traced form, so the fuzzer mutates
		// the trace-ID header path as readily as the bodies.
		if i%2 == 0 {
			f.Add(marshalTraced(m, 0x1234567890ABCDEF))
		}
	}
	f.Add([]byte{})
	f.Add([]byte{0xFF, 0x00, 0x01})
	f.Add([]byte{uint8(KPing) | KindTraceFlag, 1, 2, 3}) // truncated trace header

	f.Fuzz(func(t *testing.T, data []byte) {
		// m's (and m2's) Data views the bytes it was decoded from: neither
		// data nor re may be modified before the comparisons below.
		m, err := Unmarshal(data)
		if err != nil {
			return // rejected input is fine; panics are not
		}
		re := Marshal(m)
		m2, err := Unmarshal(re)
		if err != nil {
			t.Fatalf("re-marshal of accepted message failed to parse: %v", err)
		}
		re2 := Marshal(m2)
		if !bytes.Equal(re, re2) {
			t.Fatalf("marshal not a fixed point:\n first %x\n second %x", re, re2)
		}
	})
}
