package wire

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
)

func roundTrip(t *testing.T, m Msg) Msg {
	t.Helper()
	b := Marshal(m)
	got, err := Unmarshal(b)
	if err != nil {
		t.Fatalf("unmarshal %T: %v", m, err)
	}
	if !reflect.DeepEqual(m, got) {
		t.Fatalf("round trip of %T:\n sent %+v\n got  %+v", m, m, got)
	}
	return got
}

func TestRoundTripAllKinds(t *testing.T) {
	ref := FileRef{ID: 42, Servers: 7, StripeUnit: 65536, Scheme: Hybrid}
	spans := []Span{{0, 100}, {4096, 65536}}
	data := []byte("payload bytes")
	msgs := []Msg{
		&Error{Text: "boom", Code: CodeUnavailable},
		&OK{},
		&Ping{},
		&Read{File: ref, Spans: spans, Raw: true},
		&ReadResp{Data: data},
		&WriteData{File: ref, Spans: spans, Data: data, Raw: true},
		&WriteMirror{File: ref, Spans: spans, Data: data},
		&ReadMirror{File: ref, Spans: spans},
		&ReadParity{File: ref, Stripes: []int64{3, 9}, Lock: true, Owner: 77, LeaseMS: 10000},
		&UnlockParity{File: ref, Stripes: []int64{3, 9}, Owner: 77, Dirty: true},
		&RenewLease{File: ref, Stripes: []int64{3, 9}, Owner: 77, LeaseMS: 10000},
		&RenewLeaseResp{Renewed: 2},
		&ListIntents{File: ref},
		&ListIntentsResp{Intents: []Intent{{Stripe: 3, Owner: 77, Abandoned: true}}},
		&ResolveIntent{File: ref, Stripe: 3, Owner: 77, Data: data},
		&RetireIntents{File: ref, Intents: []IntentID{{Stripe: 3, Owner: 77}, {Stripe: 9, Owner: 78}}},
		&Health{},
		&HealthResp{Index: 3, Requests: 12345},
		&WriteParity{File: ref, Stripes: []int64{3}, Ranges: []Span{{0, 5}, {100, 8}}, Data: data, Unlock: true, Owner: 77},
		&WriteOverflow{File: ref, Extents: spans, Data: data, Mirror: true},
		&InvalidateOverflow{File: ref, Spans: spans, Mirror: true},
		&OverflowDump{File: ref, Mirror: true},
		&OverflowDumpResp{Extents: spans, Data: data},
		&Sync{File: ref},
		&DropCaches{},
		&StorageStat{FileID: 9},
		&StorageStatResp{Total: 500, ByStore: [5]int64{1, 2, 3, 4, 490}},
		&RemoveFile{File: ref},
		&CompactOverflow{File: ref, Mirror: true},
		&Create{Name: "f", Servers: 4, StripeUnit: 1024, Scheme: Raid5},
		&CreateResp{Ref: ref},
		&Open{Name: "f"},
		&OpenResp{Ref: ref, Size: 12345, Mig: FileRef{ID: 43, Servers: 7, StripeUnit: 65536, Scheme: ReedSolomon, Parity: 2}},
		&SetSize{ID: 42, Size: 777},
		&SetScheme{ID: 42, Scheme: ReedSolomon, Parity: 2},
		&SetSchemeResp{Old: ref, New: FileRef{ID: 43, Servers: 7, StripeUnit: 65536, Scheme: ReedSolomon, Parity: 2}, Size: 12345},
		&CommitScheme{ID: 42, NewID: 43},
		&AbortScheme{ID: 42, NewID: 43},
		&Remove{Name: "f"},
		&List{},
		&ListResp{Names: []string{"a", "b"}},
		&ServerList{},
		&ServerListResp{Addrs: []string{"127.0.0.1:7000"}},
		&ChecksumRange{File: ref, Store: StoreParity, Off: 4096, Len: 65536, Chunk: 4096},
		&ChecksumRangeResp{Sums: []uint32{0xdeadbeef, 1, 0}, Bytes: 65536},
		&MarkDirty{File: ref, Dead: 3, Epoch: 99, Groups: []int64{1, 2, 3, 10}, Overflow: true},
		&DirtyDump{File: ref, Dead: 3},
		&DirtyDumpResp{Epochs: []uint64{99, 100}, Groups: []DirtyItem{{Group: 1, Gen: 3}, {Group: 2, Gen: 2}, {Group: 3, Gen: 1}, {Group: 10, Gen: 4}}, Overflow: true, OverflowGen: 5},
		&ClearDirty{File: ref, Dead: 3, Groups: []DirtyItem{{Group: 1, Gen: 3}, {Group: 2, Gen: 2}, {Group: 3, Gen: 1}}, Overflow: true, OverflowGen: 5},
		&MetaReplicate{Epoch: 5, Seq: 31, Snap: true, Rec: []byte(`{"next_id":3}`)},
		&MetaReplicateResp{Epoch: 5, Seq: 31},
		&MetaStatus{},
		&MetaStatusResp{Index: 2, Epoch: 5, Seq: 31, Primary: true, Files: 4, WALBytes: 512},
		&Stats{},
		&StatsResp{
			Index:    3,
			Requests: 9999,
			Counters: []StatKV{{Name: "bytes_in", Value: 1 << 20}, {Name: "bytes_out", Value: 7}},
			Gauges:   []StatKV{{Name: "locks_held", Value: 2}},
			Hists:    []HistDump{{Name: "rpc_read", Count: 3, Sum: 4500, Max: 2000, Buckets: []int64{0, 1, 1, 1}}},
		},
	}
	seen := map[Kind]bool{}
	for _, m := range msgs {
		roundTrip(t, m)
		if seen[m.Kind()] {
			t.Fatalf("duplicate kind %d in test set", m.Kind())
		}
		seen[m.Kind()] = true
	}
	if len(seen) != len(registeredKinds()) {
		t.Fatalf("test covers %d kinds, the kind table has %d", len(seen), len(registeredKinds()))
	}
	// The one kind table: every constructor makes a message of its own
	// kind, and every kind has a distinct name.
	names := map[string]bool{}
	for _, k := range registeredKinds() {
		if got := kinds[k].new().Kind(); got != k {
			t.Errorf("kind table entry %d constructs a %v", k, got)
		}
		if n := k.String(); n == "" || names[n] {
			t.Errorf("kind %d has an empty or duplicate name %q", k, n)
		}
		names[k.String()] = true
	}
}

func TestRoundTripEmptySlices(t *testing.T) {
	// nil and empty slices encode alike, as a zero count, and a zero count
	// decodes as nil — the value an unset field has, so a message that
	// leaves a list unset (ReadParity's Ranges, most often) round-trips to
	// one deeply equal to it.
	for _, spans := range [][]Span{nil, {}} {
		m := &Read{File: FileRef{ID: 1, Servers: 3, StripeUnit: 8, Scheme: Raid0}, Spans: spans}
		got, err := Unmarshal(Marshal(m))
		if err != nil {
			t.Fatal(err)
		}
		if r := got.(*Read); r.Spans != nil {
			t.Fatalf("%#v spans decoded as %#v, want nil", spans, r.Spans)
		}
	}
	roundTrip(t, &ReadParity{File: FileRef{ID: 1, Servers: 3, StripeUnit: 8, Scheme: Raid5}, Stripes: []int64{2}})
}

func TestUnmarshalErrors(t *testing.T) {
	if _, err := Unmarshal(nil); err == nil {
		t.Fatal("empty message accepted")
	}
	if _, err := Unmarshal([]byte{0xEE}); err == nil {
		t.Fatal("unknown kind accepted")
	}
	// Truncated body.
	b := Marshal(&Open{Name: "a-long-file-name"})
	if _, err := Unmarshal(b[:len(b)-3]); err == nil {
		t.Fatal("truncated message accepted")
	}
}

func TestUnmarshalRandomBytesNeverPanics(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	for i := 0; i < 5000; i++ {
		b := make([]byte, r.Intn(64))
		r.Read(b)
		Unmarshal(b) // must not panic regardless of outcome
	}
}

func TestUnmarshalHostileLengthPrefix(t *testing.T) {
	// A length prefix far larger than the buffer must error, not allocate.
	e := Encoding(nil)
	kind, n := uint8(KListResp), uint32(0xFFFFFFFF)
	e.U8(&kind)
	e.U32(&n)
	if _, err := Unmarshal(e.Buf); err == nil {
		t.Fatal("hostile length accepted")
	}
}

func TestSchemeString(t *testing.T) {
	for _, s := range []Scheme{Raid0, Raid1, Raid5, Hybrid, ReedSolomon} {
		name := s.String()
		got, err := ParseScheme(name)
		if err != nil || got != s {
			t.Fatalf("ParseScheme(%q) = %v, %v", name, got, err)
		}
	}
	if _, err := ParseScheme("nope"); err == nil {
		t.Fatal("bad scheme name accepted")
	}
	if Scheme(200).String() == "" {
		t.Fatal("unknown scheme has empty String")
	}
}

func TestErrorCodeClassification(t *testing.T) {
	plain := &Error{Text: "bad args"}
	if errors.Is(plain, ErrUnavailable) {
		t.Fatal("generic error classified unavailable")
	}
	down := &Error{Text: "down", Code: CodeUnavailable}
	if !errors.Is(down, ErrUnavailable) {
		t.Fatal("CodeUnavailable error not classified unavailable")
	}
	// The classification survives a wire round trip (how it actually
	// reaches clients on a real transport).
	got := roundTrip(t, down)
	if !errors.Is(got.(*Error), ErrUnavailable) {
		t.Fatal("classification lost in round trip")
	}
	if ErrorCodeOf(fmt.Errorf("wrapped: %w", ErrUnavailable)) != CodeUnavailable {
		t.Fatal("ErrorCodeOf missed a wrapped ErrUnavailable")
	}
	if ErrorCodeOf(errors.New("app error")) != CodeGeneric {
		t.Fatal("ErrorCodeOf misclassified an app error")
	}
	for _, c := range []struct {
		code     uint8
		sentinel error
	}{
		{CodeLeaseExpired, ErrLeaseExpired},
		{CodeStripeTorn, ErrStripeTorn},
		{CodeNotPrimary, ErrNotPrimary},
		{CodeStaleEpoch, ErrStaleEpoch},
		{CodeStripeBusy, ErrStripeBusy},
	} {
		e := &Error{Text: "x", Code: c.code}
		if !errors.Is(e, c.sentinel) {
			t.Fatalf("code %d error does not unwrap to its sentinel", c.code)
		}
		if errors.Is(e, ErrUnavailable) {
			t.Fatalf("code %d error classified unavailable", c.code)
		}
		if ErrorCodeOf(fmt.Errorf("wrapped: %w", c.sentinel)) != c.code {
			t.Fatalf("ErrorCodeOf missed a wrapped sentinel for code %d", c.code)
		}
		if got := roundTrip(t, e).(*Error); !errors.Is(got, c.sentinel) {
			t.Fatalf("code %d classification lost in round trip", c.code)
		}
	}
}

// TestCodecPrimitives drives every primitive through one field list, once
// encoding and once decoding, as a message's codec method does: whatever
// goes in comes back out, and the decode consumes exactly the encoding.
func TestCodecPrimitives(t *testing.T) {
	type fields struct {
		A     uint8
		B     uint16
		C     uint32
		D     uint64
		I     int64
		On    bool
		S     string
		Raw   []byte
		Kept  []byte
		Ref   FileRef
		Spans []Span
		Strs  []string
	}
	codec := func(c *Codec, v *fields) {
		c.U8(&v.A)
		c.U16(&v.B)
		c.U32(&v.C)
		c.U64(&v.D)
		c.I64(&v.I)
		c.Bool(&v.On)
		c.Str(&v.S)
		c.Bytes(&v.Raw)
		c.BytesCopy(&v.Kept)
		c.FileRef(&v.Ref)
		slice(c, &v.Spans, elemSpan)
		slice(c, &v.Strs, elemStr)
	}
	f := func(in fields) bool {
		enc := Encoding(nil)
		codec(&enc, &in)
		dec := Decoding(enc.Buf)
		var out fields
		codec(&dec, &out)
		if dec.Err() != nil || dec.off != len(enc.Buf) {
			return false
		}
		// Empty byte fields and slices decode as nil and empty; compare the
		// contents, not the representation.
		same := func(a, b any) bool { return fmt.Sprint(a) == fmt.Sprint(b) }
		return in.A == out.A && in.B == out.B && in.C == out.C && in.D == out.D &&
			in.I == out.I && in.On == out.On && in.S == out.S && in.Ref == out.Ref &&
			bytes.Equal(in.Raw, out.Raw) && bytes.Equal(in.Kept, out.Kept) &&
			same(in.Spans, out.Spans) && same(in.Strs, out.Strs)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
	// Every decode of a truncated encoding fails, at every cut.
	v := fields{A: 1, S: "abc", Raw: []byte{1, 2}, Spans: []Span{{1, 2}}, Strs: []string{"x"}}
	enc := Encoding(nil)
	codec(&enc, &v)
	for cut := 0; cut < len(enc.Buf); cut++ {
		dec := Decoding(enc.Buf[:cut])
		var out fields
		if codec(&dec, &out); dec.Err() == nil {
			t.Fatalf("decoding %d of %d bytes succeeded", cut, len(enc.Buf))
		}
	}
}

// TestSliceElemSizes checks each slice element's declared minimum size
// against the encoding of its zero value: a larger size would refuse
// honest frames, a smaller one would let a hostile count allocate more.
func TestSliceElemSizes(t *testing.T) {
	checkElemSize(t, "u32", elemU32)
	checkElemSize(t, "u64", elemU64)
	checkElemSize(t, "i64", elemI64)
	checkElemSize(t, "str", elemStr)
	checkElemSize(t, "span", elemSpan)
	checkElemSize(t, "dirtyItem", elemDirtyItem)
	checkElemSize(t, "intent", elemIntent)
	checkElemSize(t, "intentID", elemIntentID)
	checkElemSize(t, "statKV", elemStatKV)
	checkElemSize(t, "histDump", elemHistDump)
}

func checkElemSize[T any](t *testing.T, name string, e elem[T]) {
	t.Helper()
	var zero T
	c := Encoding(nil)
	e.codec(&c, &zero)
	if len(c.Buf) != e.size {
		t.Errorf("%s: declared size %d, zero value encodes to %d bytes", name, e.size, len(c.Buf))
	}
}
