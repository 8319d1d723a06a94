package server

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"strings"
	"testing"
	"time"

	"csar/internal/simdisk"
	"csar/internal/storage"
	"csar/internal/wire"
)

// memberStores lists, for server 0 of ref()'s three servers and 128-byte
// units, a span of each writable store and the bytes of it server 0 keeps:
// units 0 and 3 of [0, 640) in place, unit 2's copy, stripe 2's parity unit
// (in stripe space) and 30 overflow bytes of unit 0. readBack returns what
// the store holds there.
func memberStores(t *testing.T, s *Server) []struct {
	name     string
	store    uint8
	span     wire.Span
	holds    int
	readBack func() []byte
} {
	r := ref()
	read := func(store uint8, sp wire.Span) func() []byte {
		return func() []byte {
			return call(t, s, &wire.Read{File: r, Store: store, Spans: []wire.Span{sp}, Raw: true}).(*wire.ReadResp).Data
		}
	}
	overflow := func() []byte {
		d := call(t, s, &wire.OverflowDump{File: r}).(*wire.OverflowDumpResp)
		return append([]byte(fmt.Sprint(d.Extents)), d.Data...)
	}
	return []struct {
		name     string
		store    uint8
		span     wire.Span
		holds    int
		readBack func() []byte
	}{
		{"data", wire.StoreData, wire.Span{Off: 0, Len: 640}, 256, read(wire.StoreData, wire.Span{Off: 0, Len: 640})},
		{"mirror", wire.StoreMirror, wire.Span{Off: 0, Len: 640}, 128, read(wire.StoreMirror, wire.Span{Off: 0, Len: 640})},
		{"parity", wire.StoreParity, wire.Span{Off: 256, Len: 128}, 128, read(wire.StoreParity, wire.Span{Off: 256, Len: 128})},
		{"overflow", wire.StoreOverflow, wire.Span{Off: 10, Len: 30}, 30, overflow},
	}
}

// TestWritePayloadLengthValidated: a member write whose payload is shorter
// or longer than the bytes its spans hold on the server is refused before
// any byte lands, on every store.
func TestWritePayloadLengthValidated(t *testing.T) {
	s := testServer(0)
	r := ref()
	for _, st := range memberStores(t, s) {
		call(t, s, &wire.WriteData{File: r, Store: st.store, Spans: []wire.Span{st.span}, Data: bytes.Repeat([]byte{0x5A}, st.holds)})
		before := st.readBack()
		for _, n := range []int{st.holds - 20, 1000} {
			name := fmt.Sprintf("%s store, %d-byte payload for %d", st.name, n, st.holds)
			if _, err := s.Handle(&wire.WriteData{File: r, Store: st.store, Spans: []wire.Span{st.span}, Data: bytes.Repeat([]byte{0xE1}, n)}); err == nil {
				t.Errorf("%s: accepted", name)
			}
			if got := st.readBack(); !bytes.Equal(got, before) {
				t.Errorf("%s: the refused write changed the store", name)
			}
		}
	}
}

// TestMemberSpansRefused: a member read or write naming an impossible span,
// a store it cannot address, or a response past the frame bound is refused
// before anything moves.
func TestMemberSpansRefused(t *testing.T) {
	s := testServer(0)
	r := ref()
	data := func(sp wire.Span) *wire.WriteData {
		return &wire.WriteData{File: r, Spans: []wire.Span{sp}, Data: make([]byte, 128)}
	}
	read := func(store uint8, sp wire.Span) *wire.Read {
		return &wire.Read{File: r, Store: store, Spans: []wire.Span{sp}}
	}
	for name, m := range map[string]wire.Msg{
		"a write before the file's start": data(wire.Span{Off: -384, Len: 128}),
		"a write of no bytes":             data(wire.Span{Off: 0, Len: 0}),
		"a write whose end overflows":     data(wire.Span{Off: math.MaxInt64 - 10, Len: 128}),
		"a read of negative length":       read(wire.StoreData, wire.Span{Off: 0, Len: -5}),
		"a read of no bytes":              read(wire.StoreData, wire.Span{Off: 0, Len: 0}),
		"a read whose end overflows":      read(wire.StoreMirror, wire.Span{Off: math.MaxInt64 - 10, Len: 128}),
		"a parity read crossing a unit":   read(wire.StoreParity, wire.Span{Off: 256 + 64, Len: 128}),
		"a parity write crossing a unit": &wire.WriteData{File: r, Store: wire.StoreParity,
			Spans: []wire.Span{{Off: 256 + 64, Len: 128}}, Data: make([]byte, 128), Raw: true},
		"a partial parity install": &wire.WriteData{File: r, Store: wire.StoreParity,
			Spans: []wire.Span{{Off: 256, Len: 64}}, Data: make([]byte, 64)},
		"an overflow write crossing a unit": &wire.WriteData{File: r, Store: wire.StoreOverflow,
			Spans: []wire.Span{{Off: 100, Len: 60}}, Data: make([]byte, 60)},
		"an overflow write of another server's unit": &wire.WriteData{File: r, Store: wire.StoreOverflow,
			Spans: []wire.Span{{Off: 128 + 10, Len: 10}}, Data: make([]byte, 10)},
		"an overflow-mirror write of a unit another server mirrors": &wire.WriteData{File: r, Store: wire.StoreOverflowMirror,
			Spans: []wire.Span{{Off: 10, Len: 10}}, Data: make([]byte, 10)},
		"a read of the overflow store":        read(wire.StoreOverflow, wire.Span{Off: 0, Len: 10}),
		"a read of the overflow-mirror store": read(wire.StoreOverflowMirror, wire.Span{Off: 0, Len: 10}),
		"a read of an unknown store":          read(wire.NumStores, wire.Span{Off: 0, Len: 10}),
		"a write to an unknown store": &wire.WriteData{File: r, Store: wire.NumStores,
			Spans: []wire.Span{{Off: 0, Len: 10}}, Data: make([]byte, 10)},
	} {
		if _, err := s.Handle(m); err == nil {
			t.Errorf("%s: accepted", name)
		}
		if n := s.Disk().TotalBytes(); n != 0 {
			t.Fatalf("%s: %d bytes stored", name, n)
		}
	}
	// A read whose response would not fit in a frame is refused before its
	// buffer is taken: one server of 1 MiB units, asked for 1 GiB.
	big := wire.FileRef{ID: 2, Servers: 1, StripeUnit: 1 << 20, Scheme: wire.Raid0}
	if _, err := s.Handle(&wire.Read{File: big, Spans: []wire.Span{{Off: 0, Len: wire.MaxFrame}}}); err == nil ||
		!strings.Contains(err.Error(), "frame") {
		t.Fatalf("a read past the frame bound: %v", err)
	}
}

// TestMultiPartWriteAllOrNothing: a member write of several parts is
// checked whole before any byte lands. With part 0 a valid overflow write
// of unit 0, a bad part 1 — a unit server 0 does not mirror, a span
// crossing a unit, a partial parity install, a payload one byte short —
// refuses the write, and part 0's store is as it was. A write whose parts
// are both good lands both.
func TestMultiPartWriteAllOrNothing(t *testing.T) {
	s := testServer(0)
	r := ref()
	part0 := wire.Span{Off: 10, Len: 30}
	dump := func(mirror bool) string {
		d := call(t, s, &wire.OverflowDump{File: r, Mirror: mirror}).(*wire.OverflowDumpResp)
		return fmt.Sprint(d.Extents, d.Data)
	}
	call(t, s, &wire.WriteData{File: r, Store: wire.StoreOverflow, Spans: []wire.Span{part0}, Data: bytes.Repeat([]byte{0x5A}, 30)})
	before, beforeMirror := dump(false), dump(true)
	for _, tc := range []struct {
		name    string
		part1   wire.Part
		payload int
	}{
		{"a unit another server mirrors", wire.Part{Store: wire.StoreOverflowMirror, Spans: []wire.Span{{Off: 5, Len: 10}}}, 40},
		{"a span crossing a unit", wire.Part{Store: wire.StoreOverflowMirror, Spans: []wire.Span{{Off: 256 + 100, Len: 60}}}, 90},
		{"a partial parity install", wire.Part{Store: wire.StoreParity, Spans: []wire.Span{{Off: 256, Len: 64}}}, 94},
		{"a payload one byte short", wire.Part{Store: wire.StoreOverflowMirror, Spans: []wire.Span{{Off: 256 + 5, Len: 10}}}, 39},
	} {
		m := &wire.WriteData{File: r, Store: wire.StoreOverflow, Spans: []wire.Span{part0},
			More: []wire.Part{tc.part1}, Data: bytes.Repeat([]byte{0xE1}, tc.payload)}
		if _, err := s.Handle(m); err == nil {
			t.Errorf("part 1 of %s: accepted", tc.name)
		}
		if got, gotMirror := dump(false), dump(true); got != before || gotMirror != beforeMirror {
			t.Errorf("part 1 of %s: the refused write changed the overflow stores: %s, mirror %s", tc.name, got, gotMirror)
		}
	}
	data := append(bytes.Repeat([]byte{0xA1}, 30), bytes.Repeat([]byte{0xB2}, 10)...)
	call(t, s, &wire.WriteData{File: r, Store: wire.StoreOverflow, Spans: []wire.Span{part0},
		More: []wire.Part{{Store: wire.StoreOverflowMirror, Spans: []wire.Span{{Off: 256 + 5, Len: 10}}}}, Data: data})
	if got, want := dump(false), fmt.Sprint([]wire.Span{part0}, data[:30]); got != want {
		t.Errorf("two-part write: overflow %s, want %s", got, want)
	}
	if got, want := dump(true), fmt.Sprint([]wire.Span{{Off: 256 + 5, Len: 10}}, data[30:]); got != want {
		t.Errorf("two-part write: overflow mirror %s, want %s", got, want)
	}
}

// TestHugeSpanRefused: a member request's bytes on this server are counted
// without visiting the units of its spans, so a Read or a WriteData of
// [0, 2^62) — 2^55 units of ref()'s 128-byte units — is refused at once
// instead of after a walk that would never end.
func TestHugeSpanRefused(t *testing.T) {
	s := testServer(0)
	span := []wire.Span{{Off: 0, Len: 1 << 62}}
	for _, m := range []wire.Msg{
		&wire.Read{File: ref(), Spans: span},
		&wire.Read{File: ref(), Store: wire.StoreMirror, Spans: span},
		&wire.WriteData{File: ref(), Spans: span, Data: make([]byte, 128)},
	} {
		errc := make(chan error, 1)
		go func() {
			_, err := s.Handle(m)
			errc <- err
		}()
		select {
		case err := <-errc:
			if err == nil {
				t.Fatalf("%T of [0, 2^62): accepted", m)
			}
		case <-time.After(2 * time.Second):
			t.Fatalf("%T of [0, 2^62): not refused within 2s", m)
		}
	}
}

// failingDisk is a backend whose file stores refuse every write; the
// server's own journals stay writable.
type failingDisk struct{ storage.Backend }

type failingFile struct{ storage.File }

var errDiskWrite = errors.New("disk write failed")

func (d failingDisk) Open(name string) storage.File {
	f := d.Backend.Open(name)
	if strings.HasPrefix(name, "f") {
		return failingFile{f}
	}
	return f
}

func (failingFile) WriteAt([]byte, int64) (int, error) { return 0, errDiskWrite }

// TestFailedStoreWriteRefused: a store write that fails is reported, never
// acknowledged — on every store a member write reaches, and on the unlocking
// parity write, which then neither unlocks the stripe nor leaves its intent
// pending: the client's dirty release or its session's expiry handles the
// stripe, as for a lost request.
func TestFailedStoreWriteRefused(t *testing.T) {
	for _, buffering := range []bool{true, false} {
		opts := DefaultOptions()
		opts.PageSize, opts.RecvChunk, opts.WriteBuffering = 64, 40, buffering
		s := New(0, failingDisk{simdisk.New(nil, simdisk.Params{PageSize: 64})}, opts)
		r := ref()
		for _, st := range memberStores(t, s) {
			_, err := s.Handle(&wire.WriteData{File: r, Store: st.store, Spans: []wire.Span{st.span}, Data: make([]byte, st.holds)})
			if !errors.Is(err, errDiskWrite) {
				t.Errorf("buffering %v: %s store write on a failing disk: %v", buffering, st.name, err)
			}
		}
		call(t, s, &wire.ReadParity{File: r, Stripes: []int64{2}, Lock: true, Session: 9, Seq: 1})
		_, err := s.Handle(&wire.WriteParity{File: r, Stripes: []int64{2}, Data: make([]byte, 128), Unlock: true, Session: 9, Seq: 1})
		if !errors.Is(err, errDiskWrite) {
			t.Fatalf("buffering %v: unlocking parity write on a failing disk: %v", buffering, err)
		}
		if in := intentsOf(t, s); locksHeld(s) != 1 || len(in) != 1 || in[0].Abandoned || !s.files[r.ID].ownsLock(2, acq{9, 1}) {
			t.Fatalf("buffering %v: after the failed unlocking write: %d locks held, intents %+v; want the lock and the open intent kept",
				buffering, locksHeld(s), in)
		}
	}
}
