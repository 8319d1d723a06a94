package wire

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"reflect"
	"runtime"
	"slices"
	"testing"
)

// Allocation budgets for the hot-path messages. These are regression
// budgets, not aspirations: marshal must stay allocation-free in steady
// state (pooled head buffer, payload carried by reference), and unmarshal
// is bounded by the struct plus its copied metadata slices — the bulk Data
// is a view of the input and costs nothing. A change that exceeds a budget
// is a hot-path regression and fails CI.
const (
	// Steady state is 0 (the encoder rides in the pooled head box); the
	// rest tolerates a GC-emptied pool mid-measurement.
	marshalFrameBudget = 2
	// Messages without bulk data; the Data-carrying ones get one fewer, the
	// payload copy that no longer exists.
	unmarshalBudget = 6
	// Heap bytes one decode may cost whatever the payload size: the struct
	// and its span or stripe list.
	unmarshalBytesBudget = 512
)

func hotMessages() map[string]Msg {
	payload := make([]byte, 64<<10)
	for i := range payload {
		payload[i] = byte(i)
	}
	file := FileRef{ID: 7, Servers: 6, StripeUnit: 64 << 10, Scheme: Raid5}
	return map[string]Msg{
		"WriteData": &WriteData{
			File:  file,
			Spans: []Span{{Off: 0, Len: 64 << 10}, {Off: 384 << 10, Len: 64 << 10}},
			Data:  payload,
		},
		"Read": &Read{
			File:  file,
			Spans: []Span{{Off: 0, Len: 64 << 10}, {Off: 384 << 10, Len: 64 << 10}},
		},
		"ReadResp": &ReadResp{Data: payload},
		"WriteParity": &WriteParity{
			File:    file,
			Stripes: []int64{0},
			Ranges:  []Span{{Off: 0, Len: 64 << 10}},
			Data:    payload,
			Unlock:  true,
			Owner:   42,
		},
	}
}

// TestMarshalFrameAllocs pins the steady-state allocation count of framing
// a hot-path message: the head buffer comes from the pool and the bulk
// payload rides by reference, so the whole marshal should not allocate.
func TestMarshalFrameAllocs(t *testing.T) {
	for name, m := range hotMessages() {
		t.Run(name, func(t *testing.T) {
			// Warm the pool outside the measurement.
			fr := MarshalFrame(m, 0)
			fr.Free()
			avg := testing.AllocsPerRun(200, func() {
				fr := MarshalFrame(m, 0)
				fr.Free()
			})
			t.Logf("MarshalFrame(%s): %.2f allocs/op", name, avg)
			if avg > marshalFrameBudget {
				t.Fatalf("MarshalFrame(%s) allocates %.2f/op, budget %d", name, avg, marshalFrameBudget)
			}
		})
	}
}

// TestUnmarshalAllocs pins the decode side: one struct, one copy per
// metadata slice, and no bytes that scale with the payload.
func TestUnmarshalAllocs(t *testing.T) {
	for name, m := range hotMessages() {
		t.Run(name, func(t *testing.T) {
			body := Marshal(m)
			budget := float64(unmarshalBudget)
			if name != "Read" {
				budget--
			}
			const runs = 200
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			avg := testing.AllocsPerRun(runs, func() {
				if _, err := Unmarshal(body); err != nil {
					panic(err)
				}
			})
			runtime.ReadMemStats(&after)
			perOp := float64(after.TotalAlloc-before.TotalAlloc) / (runs + 1) // AllocsPerRun warms up once
			t.Logf("Unmarshal(%s): %.2f allocs/op, %.0f B/op for a %d-byte frame", name, avg, perOp, len(body))
			if avg > budget {
				t.Fatalf("Unmarshal(%s) allocates %.2f/op, budget %.0f", name, avg, budget)
			}
			if perOp > unmarshalBytesBudget {
				t.Fatalf("Unmarshal(%s) allocates %.0f B/op, budget %d: the payload is being copied", name, perOp, unmarshalBytesBudget)
			}
		})
	}
}

// TestMarshalFrameMatchesMarshal proves the scatter-gather encoding is
// byte-identical to the contiguous one — the frame split is a transport
// optimization, not a wire-format change — for the hot messages and for one
// message of every registered kind, plain and traced, with each bulk byte
// field inflated past payloadSplitMin so the frame really splits. A message
// whose bulk field is not its last fails here: the fields after it would
// land in the head, ahead of the payload.
func TestMarshalFrameMatchesMarshal(t *testing.T) {
	msgs := hotMessages()
	for i, m := range fuzzSeeds() {
		msgs[fmt.Sprintf("seed%d %T", i, m)] = m
	}
	for name, m := range msgs {
		bulk := inflateBulk(m)
		for _, trace := range []uint64{0, goldenTrace} {
			want := Marshal(m)
			if trace != 0 {
				head := binary.LittleEndian.AppendUint64([]byte{want[0] | KindTraceFlag}, trace)
				want = append(head, want[1:]...)
			}
			fr := MarshalFrame(m, trace)
			got := append(append([]byte{}, fr.Head()...), fr.Payload...)
			if !bytes.Equal(got, want) {
				t.Errorf("%s (trace %#x): frame bytes differ from contiguous marshal", name, trace)
			}
			if bulk > 0 && len(fr.Payload) != bulk {
				t.Errorf("%s (trace %#x): %d-byte bulk field not carried by reference (payload %d bytes)", name, trace, bulk, len(fr.Payload))
			}
			fr.Free()
		}
	}

	// A landed ReadResp marshals back to the frame it arrived in: the frame
	// of the concatenated bytes, its pieces by reference whatever their
	// size, so a measured response costs what a decoded one would.
	pieces := [][]byte{patternBytes(3000, 1), patternBytes(17, 2), nil, patternBytes(5000, 3)}
	whole := slices.Concat(pieces...)
	want := Marshal(&ReadResp{Data: whole})
	if got := Marshal(LandedReadResp(pieces)); !bytes.Equal(got, want) {
		t.Error("landed ReadResp: contiguous marshal differs from its bytes' ReadResp")
	}
	fr := MarshalFrame(LandedReadResp(pieces), 0)
	if fr.BodyLen() != len(want) || len(fr.Payload) != 0 || len(fr.Vec) != len(pieces) {
		t.Fatalf("landed ReadResp frame: body %d (want %d), payload %d bytes, %d pieces (want %d)",
			fr.BodyLen(), len(want), len(fr.Payload), len(fr.Vec), len(pieces))
	}
	if got := slices.Concat(append([][]byte{fr.Head()}, fr.Vec...)...); !bytes.Equal(got, want) {
		t.Error("landed ReadResp: frame bytes differ from contiguous marshal")
	}
	for i, p := range pieces {
		if len(p) > 0 && &fr.Vec[i][0] != &p[0] {
			t.Errorf("landed ReadResp: piece %d copied, not carried by reference", i)
		}
	}
	fr.Free()

	// A write request sent from pieces of its sender's buffer (From) encodes
	// as the same request with Data their concatenation, the pieces by
	// reference in Vec, plain and traced.
	file := FileRef{ID: 9, Servers: 5, StripeUnit: 4096}
	spans := []Span{{Off: 4096, Len: int64(len(whole))}}
	for _, row := range []struct{ from, data Msg }{
		{&WriteData{File: file, Spans: spans, Raw: true, From: pieces}, &WriteData{File: file, Spans: spans, Raw: true, Data: whole}},
		{&WriteMirror{File: file, Spans: spans, From: pieces}, &WriteMirror{File: file, Spans: spans, Data: whole}},
		{&WriteOverflow{File: file, Extents: spans, Mirror: true, From: pieces}, &WriteOverflow{File: file, Extents: spans, Mirror: true, Data: whole}},
	} {
		name := fmt.Sprintf("%T from pieces", row.from)
		if !bytes.Equal(Marshal(row.from), Marshal(row.data)) {
			t.Errorf("%s: contiguous marshal differs from the same request with Data", name)
		}
		for _, trace := range []uint64{0, goldenTrace} {
			want := MarshalFrame(row.data, trace)
			wantBytes := append(append([]byte{}, want.Head()...), want.Payload...)
			want.Free()
			fr := MarshalFrame(row.from, trace)
			if len(fr.Payload) != 0 || len(fr.Vec) != len(pieces) || fr.BodyLen() != len(wantBytes) {
				t.Errorf("%s (trace %#x): payload %d bytes, %d pieces (want %d), body %d (want %d)",
					name, trace, len(fr.Payload), len(fr.Vec), len(pieces), fr.BodyLen(), len(wantBytes))
			}
			if got := slices.Concat(append([][]byte{fr.Head()}, fr.Vec...)...); !bytes.Equal(got, wantBytes) {
				t.Errorf("%s (trace %#x): head plus pieces differ from the request with Data", name, trace)
			}
			for i, p := range pieces {
				if len(p) > 0 && &fr.Vec[i][0] != &p[0] {
					t.Errorf("%s: piece %d copied, not carried by reference", name, i)
				}
			}
			fr.Free()
		}
	}
}

func patternBytes(n int, seed byte) []byte {
	b := make([]byte, n)
	for i := range b {
		b[i] = byte(i*7) + seed
	}
	return b
}

// inflateBulk replaces every bulk byte field of m with 3000 bytes, past
// payloadSplitMin, and returns that length (zero if m has none). It lets the
// split be checked on every kind whatever its seed carries.
func inflateBulk(m Msg) int {
	v := reflect.ValueOf(m).Elem()
	n := 0
	for i := 0; i < v.NumField(); i++ {
		if f := v.Field(i); f.CanSet() && f.Type() == reflect.TypeOf([]byte(nil)) {
			b := make([]byte, 3000)
			for j := range b {
				b[j] = byte(j*5 + i)
			}
			f.SetBytes(b)
			n = len(b)
		}
	}
	return n
}

// TestUnmarshalLengthPrefixAmplification hands every slice field of every
// slice-carrying kind a 1 MiB body whose element count claims 1 Mi
// elements — more than the body could hold. The decode must fail having
// allocated at most a small multiple of the frame: a count bounded only by
// the frame's length, not by the bytes its elements need, would let such a
// frame allocate 16–64 MiB before it is rejected. A count of 2^31 claims
// the same, and is one a signed 32-bit comparison would let through.
func TestUnmarshalLengthPrefixAmplification(t *testing.T) {
	const body = 1 << 20
	cases := []struct {
		field string
		kind  Kind
		at    int   // body offset of the hostile count; every byte before it is zero
		ones  []int // body offsets of enclosing counts, set to one
	}{
		{"Read.Spans", KRead, 16, nil},
		{"WriteData.Spans", KWriteData, 16, nil},
		{"WriteMirror.Spans", KWriteMirror, 16, nil},
		{"ReadMirror.Spans", KReadMirror, 16, nil},
		{"ReadParity.Stripes", KReadParity, 16, nil},
		{"ReadParity.Ranges", KReadParity, 33, nil},
		{"WriteParity.Stripes", KWriteParity, 16, nil},
		{"WriteParity.Ranges", KWriteParity, 29, nil},
		{"UnlockParity.Stripes", KUnlockParity, 16, nil},
		{"RenewLease.Stripes", KRenewLease, 16, nil},
		{"WriteOverflow.Extents", KWriteOverflow, 16, nil},
		{"InvalidateOverflow.Spans", KInvalidateOverflow, 16, nil},
		{"OverflowDumpResp.Extents", KOverflowDumpResp, 0, nil},
		{"ListIntentsResp.Intents", KListIntentsResp, 0, nil},
		{"RetireIntents.Intents", KRetireIntents, 16, nil},
		{"MarkDirty.Groups", KMarkDirty, 26, nil},
		{"DirtyDumpResp.Epochs", KDirtyDumpResp, 0, nil},
		{"DirtyDumpResp.Groups", KDirtyDumpResp, 4, nil},
		{"ClearDirty.Groups", KClearDirty, 19, nil},
		{"ListResp.Names", KListResp, 0, nil},
		{"ServerListResp.Addrs", KServerListResp, 0, nil},
		{"StatsResp.Counters", KStatsResp, 10, nil},
		{"StatsResp.Gauges", KStatsResp, 14, nil},
		{"StatsResp.Hists", KStatsResp, 18, nil},
		{"StatsResp.Hists[0].Buckets", KStatsResp, 50, []int{18}},
		{"ChecksumRangeResp.Sums", KChecksumRangeResp, 0, nil},
	}
	covered := map[Kind]bool{}
	for _, tc := range cases {
		covered[tc.kind] = true
		for _, claim := range []uint32{1 << 20, 0x80000000} {
			frame := make([]byte, 1+body)
			frame[0] = uint8(tc.kind)
			for _, at := range tc.ones {
				binary.LittleEndian.PutUint32(frame[1+at:], 1)
			}
			binary.LittleEndian.PutUint32(frame[1+tc.at:], claim)
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			_, err := Unmarshal(frame)
			runtime.ReadMemStats(&after)
			if err == nil {
				t.Errorf("%s: a count of %d elements in %d bytes was accepted", tc.field, claim, body)
				continue
			}
			if got, budget := after.TotalAlloc-before.TotalAlloc, uint64(4*len(frame)+4<<10); got > budget {
				t.Errorf("%s: rejecting a %d-byte frame with a count of %d allocated %d bytes (%.1fx), budget %d",
					tc.field, len(frame), claim, got, float64(got)/float64(len(frame)), budget)
			}
		}
	}
	for _, k := range registeredKinds() {
		if hasSlice(reflect.TypeOf(kinds[k].new()).Elem()) && !covered[k] {
			t.Errorf("%v carries a length-prefixed slice but has no case here", k)
		}
	}
}

// hasSlice reports whether values of t carry a length-prefixed element
// slice (a []byte field is one bulk field, not elements, and a [][]byte
// field — Read.Into, a landed ReadResp's pieces — is never encoded).
func hasSlice(t reflect.Type) bool {
	switch t.Kind() {
	case reflect.Slice:
		return t.Elem().Kind() != reflect.Uint8 && t.Elem() != reflect.TypeOf([]byte(nil))
	case reflect.Struct:
		for i := 0; i < t.NumField(); i++ {
			if hasSlice(t.Field(i).Type) {
				return true
			}
		}
	}
	return false
}
