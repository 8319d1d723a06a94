package wire

import (
	"bytes"
	"reflect"
	"testing"
)

// TestUnmarshalAliasesData pins the decode rule: the bulk Data of the six
// hot messages is a view of the input, everything else — including the cold
// bulk fields their consumers retain — is a copy.
func TestUnmarshalAliasesData(t *testing.T) {
	ref := FileRef{ID: 9, Servers: 6, StripeUnit: 4096, Scheme: Hybrid}
	payload := func() []byte {
		b := make([]byte, 4096)
		for i := range b {
			b[i] = byte(i*7 + 1)
		}
		return b
	}
	cases := []struct {
		msg   Msg
		field string
		view  bool
	}{
		{&WriteData{File: ref, Spans: []Span{{8, 4096}}, Data: payload(), Raw: true}, "Data", true},
		{&WriteMirror{File: ref, Spans: []Span{{8, 4096}}, Data: payload()}, "Data", true},
		{&WriteParity{File: ref, Stripes: []int64{3}, Data: payload(), Unlock: true, Owner: 5}, "Data", true},
		{&WriteOverflow{File: ref, Extents: []Span{{8, 4096}}, Data: payload(), Mirror: true}, "Data", true},
		{&ResolveIntent{File: ref, Stripe: 3, Owner: 5, Data: payload()}, "Data", true},
		{&ReadResp{Data: payload()}, "Data", true},
		{&OverflowDumpResp{Extents: []Span{{8, 4096}}, Data: payload()}, "Data", false},
		{&MetaReplicate{Epoch: 2, Seq: 3, Rec: payload()}, "Rec", false},
	}
	for _, tc := range cases {
		body := Marshal(tc.msg)
		dec, err := Unmarshal(body)
		if err != nil {
			t.Fatalf("%T: %v", tc.msg, err)
		}
		bulk := reflect.ValueOf(dec).Elem().FieldByName(tc.field)
		if !bytes.Equal(bulk.Bytes(), payload()) {
			t.Fatalf("%T: %s did not round-trip", tc.msg, tc.field)
		}
		if c := bulk.Cap(); tc.view && c != bulk.Len() {
			t.Errorf("%T: %s has capacity %d beyond its %d bytes; an append would write into the frame", tc.msg, tc.field, c, bulk.Len())
		}
		// Scribble over the whole input. A view follows it; a copy does not.
		for i := range body {
			body[i] ^= 0xFF
		}
		flipped := payload()
		for i := range flipped {
			flipped[i] ^= 0xFF
		}
		want := payload()
		if tc.view {
			want = flipped
		}
		if !bytes.Equal(bulk.Bytes(), want) {
			t.Errorf("%T: %s is a view of the input = %v, want %v", tc.msg, tc.field, !tc.view, tc.view)
		}
		// With the bulk field out of the picture, the decoded message must
		// still equal the original: no other field aliases the input.
		bulk.SetBytes(nil)
		reflect.ValueOf(tc.msg).Elem().FieldByName(tc.field).SetBytes(nil)
		if !reflect.DeepEqual(dec, tc.msg) {
			t.Errorf("%T: a non-bulk field changed with the input:\n got %+v\nwant %+v", tc.msg, dec, tc.msg)
		}
	}
}

// TestReadRespRelease covers the release contract on its own: idempotent,
// nil-safe, and a no-op for a response that never sat on a pooled buffer —
// which is what a Direct-transport client may be handed.
func TestReadRespRelease(t *testing.T) {
	SetPoolPoison(true)
	t.Cleanup(func() { SetPoolPoison(false) })

	var none *ReadResp
	none.Release()

	plain := &ReadResp{Data: []byte{1, 2, 3}}
	plain.Release()
	plain.Release()
	if !bytes.Equal(plain.Data, []byte{1, 2, 3}) {
		t.Fatalf("Release touched a response that owns no pooled buffer: %v", plain.Data)
	}

	pooled := NewReadResp(10 << 10)
	if len(pooled.Data) != 10<<10 {
		t.Fatalf("NewReadResp(10 KiB) has %d bytes", len(pooled.Data))
	}
	view := pooled.Data
	view[0] = 1
	pooled.Release()
	if pooled.Data != nil {
		t.Fatal("Release left Data pointing at the recycled buffer")
	}
	if view[0] != 0xDB {
		t.Fatal("Release did not return the buffer to the (poisoning) pool")
	}
	view[0] = 2
	pooled.Release() // must not put the buffer a second time
	if view[0] != 2 {
		t.Fatal("second Release recycled the buffer again")
	}
}

// TestBufPoolClasses pins the pool hygiene rules: Get rounds up to a size
// class with header slack, small requests never take large buffers,
// oversized and foreign buffers are not pooled.
func TestBufPoolClasses(t *testing.T) {
	SetPoolPoison(true)
	t.Cleanup(func() { SetPoolPoison(false) })

	for _, tc := range []struct{ n, wantCap int }{
		{0, minPooledBuf + bufSlack},
		{5, minPooledBuf + bufSlack},
		{minPooledBuf + bufSlack, minPooledBuf + bufSlack},
		{minPooledBuf + bufSlack + 1, 2*minPooledBuf + bufSlack},
		{64<<10 + 9, 64<<10 + bufSlack}, // a stripe unit plus its frame header stays in the unit's class
		{213 << 10, 256<<10 + bufSlack},
		{maxPooledBuf + bufSlack, maxPooledBuf + bufSlack},
	} {
		bp := GetBuf(tc.n)
		if len(*bp) != tc.n || cap(*bp) != tc.wantCap {
			t.Errorf("GetBuf(%d): len %d cap %d, want len %d cap %d", tc.n, len(*bp), cap(*bp), tc.n, tc.wantCap)
		}
		PutBuf(bp)
	}

	// Beyond the largest class: exact, and left alone by PutBuf.
	huge := GetBuf(maxPooledBuf + bufSlack + 1)
	if cap(*huge) != maxPooledBuf+bufSlack+1 {
		t.Errorf("oversized GetBuf has cap %d", cap(*huge))
	}
	foreign := make([]byte, 100<<10)
	for _, bp := range []*[]byte{huge, &foreign} {
		(*bp)[0] = 7
		PutBuf(bp)
		if (*bp)[0] != 7 {
			t.Errorf("PutBuf pooled (and poisoned) a %d-byte buffer that is not a class size", cap(*bp))
		}
	}
	PutBuf(nil)
}

// TestHeldPayloadMovesToFrame pins the owned-gather rule: a pooled buffer a
// write request holds for its Data becomes the frame's at the first marshal
// and is recycled by that frame's Free, exactly once — a second marshal of
// the same message (a transport measuring it) finds nothing to recycle, and
// OwnPayload does not copy what the frame already owns.
func TestHeldPayloadMovesToFrame(t *testing.T) {
	SetPoolPoison(true)
	t.Cleanup(func() { SetPoolPoison(false) })

	for _, n := range []int{100, 64 << 10} { // head-inlined and split
		bp := GetBuf(n)
		view := *bp
		for i := range view {
			view[i] = byte(i*3 + 1)
		}
		want := append([]byte(nil), view...)
		m := &WriteParity{File: FileRef{ID: 3}, Stripes: []int64{1}, Data: view, Unlock: true}
		m.HoldBuf(bp)

		fr := MarshalFrame(m, 0)
		fr.OwnPayload()
		if len(fr.Payload) > 0 && &fr.Payload[0] != &view[0] {
			t.Fatalf("n=%d: OwnPayload copied a payload the frame already owned", n)
		}
		if got := append(append([]byte(nil), fr.Head()...), fr.Payload...); !bytes.Equal(got, Marshal(m)) {
			t.Fatalf("n=%d: frame bytes differ from the contiguous marshal", n)
		}
		again := MarshalFrame(m, 0)
		again.Free()
		if !bytes.Equal(view, want) {
			t.Fatalf("n=%d: freeing a second frame of the same message recycled its payload", n)
		}
		fr.Free()
		if view[0] != 0xDB {
			t.Fatalf("n=%d: Free did not recycle the payload the frame owned", n)
		}
		view[0] = 2
		fr.Free()
		if view[0] != 2 {
			t.Fatalf("n=%d: a second Free recycled the payload again", n)
		}
	}
}
