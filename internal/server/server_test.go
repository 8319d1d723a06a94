package server

import (
	"bytes"
	"hash/crc32"
	"sync"
	"testing"
	"time"

	"csar/internal/simdisk"
	"csar/internal/wire"
)

func testServer(idx int) *Server {
	opts := DefaultOptions()
	opts.PageSize = 64
	return New(idx, simdisk.New(nil, simdisk.Params{PageSize: 64}), opts)
}

func ref() wire.FileRef {
	return wire.FileRef{ID: 1, Servers: 3, StripeUnit: 128, Scheme: wire.Hybrid}
}

func call(t *testing.T, s *Server, m wire.Msg) wire.Msg {
	t.Helper()
	resp, err := s.Handle(m)
	if err != nil {
		t.Fatalf("%T: %v", m, err)
	}
	return resp
}

func TestPing(t *testing.T) {
	s := testServer(0)
	if _, ok := call(t, s, &wire.Ping{}).(*wire.OK); !ok {
		t.Fatal("ping did not return OK")
	}
}

func TestUnsupportedMessage(t *testing.T) {
	s := testServer(0)
	if _, err := s.Handle(&wire.OpenResp{}); err == nil {
		t.Fatal("unsupported message accepted")
	}
}

func TestBadGeometryRejected(t *testing.T) {
	s := testServer(0)
	bad := wire.FileRef{ID: 1, Servers: 0, StripeUnit: 128}
	if _, err := s.Handle(&wire.Read{File: bad}); err == nil {
		t.Fatal("zero-server geometry accepted")
	}
	outside := wire.FileRef{ID: 1, Servers: 2, StripeUnit: 128}
	s5 := testServer(5)
	if _, err := s5.Handle(&wire.Read{File: outside}); err == nil {
		t.Fatal("server outside layout accepted request")
	}
}

func TestWriteReadOwnPieces(t *testing.T) {
	// Server 0 of a 3-server layout owns units 0, 3, 6... Writing a span
	// and reading it back must round-trip exactly the server's pieces.
	s := testServer(0)
	r := ref()
	// Span [0, 640) = units 0..4; server 0 owns units 0 and 3: bytes
	// [0,128) and [384,512).
	payload := append(bytes.Repeat([]byte{0xA1}, 128), bytes.Repeat([]byte{0xA2}, 128)...)
	call(t, s, &wire.WriteData{File: r, Spans: []wire.Span{{Off: 0, Len: 640}}, Data: payload})
	resp := call(t, s, &wire.Read{File: r, Spans: []wire.Span{{Off: 0, Len: 640}}, Raw: true})
	got := resp.(*wire.ReadResp).Data
	if !bytes.Equal(got, payload) {
		t.Fatal("server pieces did not round-trip")
	}
}

func TestWritePayloadLengthValidated(t *testing.T) {
	s := testServer(0)
	r := ref()
	_, err := s.Handle(&wire.WriteData{
		File:  r,
		Spans: []wire.Span{{Off: 0, Len: 640}},
		Data:  []byte{1, 2, 3}, // far too short for server 0's pieces
	})
	if err == nil {
		t.Fatal("short payload accepted")
	}
}

func TestParityOwnershipEnforced(t *testing.T) {
	s := testServer(0)
	r := ref()
	// Stripe 0's parity lives on server 2, not 0.
	if _, err := s.Handle(&wire.ReadParity{File: r, Stripes: []int64{0}}); err == nil {
		t.Fatal("parity read for foreign stripe accepted")
	}
	if _, err := s.Handle(&wire.WriteParity{File: r, Stripes: []int64{0}, Data: make([]byte, 128)}); err == nil {
		t.Fatal("parity write for foreign stripe accepted")
	}
}

func TestParityPayloadLengthValidated(t *testing.T) {
	s := testServer(2) // owns stripe 0's parity
	r := ref()
	if _, err := s.Handle(&wire.WriteParity{File: r, Stripes: []int64{0}, Data: make([]byte, 5)}); err == nil {
		t.Fatal("short parity payload accepted")
	}
}

func TestParityLockFIFO(t *testing.T) {
	s := testServer(2)
	r := ref()
	unlock := func(owner uint64) *wire.WriteParity {
		return &wire.WriteParity{File: r, Stripes: []int64{0}, Data: make([]byte, 128), Unlock: true, Owner: owner}
	}
	// First locked read acquires the lock immediately.
	call(t, s, &wire.ReadParity{File: r, Stripes: []int64{0}, Lock: true, Owner: 11})

	// Second locked read must block until the parity write releases.
	got := make(chan struct{})
	go func() {
		s.Handle(&wire.ReadParity{File: r, Stripes: []int64{0}, Lock: true, Owner: 12}) //nolint:errcheck
		close(got)
	}()
	select {
	case <-got:
		t.Fatal("second locked read did not block")
	case <-time.After(20 * time.Millisecond):
	}
	// Release: the queued reader acquires and returns.
	call(t, s, unlock(11))
	select {
	case <-got:
	case <-time.After(5 * time.Second):
		t.Fatal("queued locked read never woke")
	}
	// It now holds the lock; a final unlock cleans up.
	call(t, s, unlock(12))
}

func TestParityLockManyWaitersAllServed(t *testing.T) {
	s := testServer(2)
	r := ref()
	const waiters = 8
	var wg sync.WaitGroup
	for i := 0; i < waiters; i++ {
		wg.Add(1)
		go func(owner uint64) {
			defer wg.Done()
			if _, err := s.Handle(&wire.ReadParity{File: r, Stripes: []int64{0}, Lock: true, Owner: owner}); err != nil {
				t.Error(err)
				return
			}
			if _, err := s.Handle(&wire.WriteParity{
				File: r, Stripes: []int64{0}, Data: make([]byte, 128), Unlock: true, Owner: owner,
			}); err != nil {
				t.Error(err)
			}
		}(uint64(20 + i))
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("lock queue wedged")
	}
}

func TestUnlockWithoutLockIsSafe(t *testing.T) {
	s := testServer(2)
	r := ref()
	// An unlocking write with no lock held — under any token, the zero one
	// included — is refused, writes nothing and wedges nothing.
	for _, owner := range []uint64{0, 31} {
		if _, err := s.Handle(&wire.WriteParity{
			File: r, Stripes: []int64{0}, Data: make([]byte, 128), Unlock: true, Owner: owner,
		}); err == nil {
			t.Fatalf("unlocking write under token %d accepted with no lock held", owner)
		}
	}
	// Nor may a lock be taken without a token to release it by.
	if _, err := s.Handle(&wire.ReadParity{File: r, Stripes: []int64{0}, Lock: true}); err == nil {
		t.Fatal("tokenless locked read accepted")
	}
	call(t, s, &wire.ReadParity{File: r, Stripes: []int64{0}, Lock: true, Owner: 32})
	call(t, s, &wire.WriteParity{File: r, Stripes: []int64{0}, Data: make([]byte, 128), Unlock: true, Owner: 32})
}

func TestTokenedUnlockRequiresOwner(t *testing.T) {
	s := testServer(2)
	r := ref()
	// Client A acquires under its token; its compensating UnlockParity
	// (fired after a client-side timeout) releases the acquisition.
	call(t, s, &wire.ReadParity{File: r, Stripes: []int64{0}, Lock: true, Owner: 101})
	call(t, s, &wire.UnlockParity{File: r, Stripes: []int64{0}, Owner: 101})
	// Client B acquires next.
	call(t, s, &wire.ReadParity{File: r, Stripes: []int64{0}, Lock: true, Owner: 202})
	// A's unlocking parity write now arrives late: it must be refused, not
	// release B's lock or write its stale parity bytes.
	if _, err := s.Handle(&wire.WriteParity{
		File: r, Stripes: []int64{0}, Data: make([]byte, 128), Unlock: true, Owner: 101,
	}); err == nil {
		t.Fatal("late unlocking parity write with a canceled token accepted")
	}
	// B must still hold the lock: its own unlocking write succeeds (it would
	// be refused if A's ghost had released it).
	call(t, s, &wire.WriteParity{
		File: r, Stripes: []int64{0}, Data: make([]byte, 128), Unlock: true, Owner: 202,
	})
}

func TestCanceledTokenRefusesLateLockedRead(t *testing.T) {
	s := testServer(2)
	r := ref()
	// The compensating UnlockParity overtakes its own locked read in the
	// server's concurrent dispatch: nothing matches yet, but the token must
	// be tombstoned.
	call(t, s, &wire.UnlockParity{File: r, Stripes: []int64{0}, Owner: 303})
	// The locked read lands afterwards: it must be refused, or it would
	// acquire a lock its client has already given up on — permanently.
	if _, err := s.Handle(&wire.ReadParity{
		File: r, Stripes: []int64{0}, Lock: true, Owner: 303,
	}); err == nil {
		t.Fatal("late locked read with a canceled token acquired the lock")
	}
	// The stripe stays immediately lockable by everyone else.
	got := make(chan struct{})
	go func() {
		defer close(got)
		if _, err := s.Handle(&wire.ReadParity{
			File: r, Stripes: []int64{0}, Lock: true, Owner: 404,
		}); err != nil {
			t.Error(err)
		}
	}()
	select {
	case <-got:
	case <-time.After(5 * time.Second):
		t.Fatal("stripe wedged by a refused ghost acquisition")
	}
	call(t, s, &wire.WriteParity{
		File: r, Stripes: []int64{0}, Data: make([]byte, 128), Unlock: true, Owner: 404,
	})
}

func TestMultiStripeLockRollbackOnCancel(t *testing.T) {
	s := testServer(2) // holds parity of stripes 0 and 3
	r := ref()
	// Another owner holds stripe 3, so the two-stripe acquisition below
	// locks stripe 0 and then queues on stripe 3.
	call(t, s, &wire.ReadParity{File: r, Stripes: []int64{3}, Lock: true, Owner: 600})

	errc := make(chan error, 1)
	go func() {
		_, err := s.Handle(&wire.ReadParity{File: r, Stripes: []int64{0, 3}, Lock: true, Owner: 500})
		errc <- err
	}()
	time.Sleep(20 * time.Millisecond)
	// Cancel the in-flight acquisition. Whether it already queued on stripe 3
	// or has not even locked stripe 0 yet, the end state must be the same:
	// the request fails and holds nothing.
	call(t, s, &wire.UnlockParity{File: r, Stripes: []int64{0, 3}, Owner: 500})
	if err := <-errc; err == nil {
		t.Fatal("canceled two-stripe acquisition reported success")
	}
	// Stripe 0's lock — taken before the cancellation hit stripe 3 — must
	// have been rolled back: a fresh acquisition may not block.
	got := make(chan struct{})
	go func() {
		defer close(got)
		if _, err := s.Handle(&wire.ReadParity{
			File: r, Stripes: []int64{0}, Lock: true, Owner: 700,
		}); err != nil {
			t.Error(err)
		}
	}()
	select {
	case <-got:
	case <-time.After(5 * time.Second):
		t.Fatal("stripe 0 lock leaked by the canceled multi-stripe request")
	}
}

func TestOverflowRoundTripAndPatch(t *testing.T) {
	s := testServer(0)
	r := ref()
	// In-place data first.
	base := bytes.Repeat([]byte{0x10}, 128)
	call(t, s, &wire.WriteData{File: r, Spans: []wire.Span{{Off: 0, Len: 128}}, Data: base})
	// Overflow write overriding bytes [10, 40) of unit 0.
	call(t, s, &wire.WriteOverflow{
		File:    r,
		Extents: []wire.Span{{Off: 10, Len: 30}},
		Data:    bytes.Repeat([]byte{0xFF}, 30),
	})
	// Raw read sees the old data; patched read sees the overflow bytes.
	raw := call(t, s, &wire.Read{File: r, Spans: []wire.Span{{Off: 0, Len: 128}}, Raw: true}).(*wire.ReadResp).Data
	if !bytes.Equal(raw, base) {
		t.Fatal("raw read saw overflow data")
	}
	patched := call(t, s, &wire.Read{File: r, Spans: []wire.Span{{Off: 0, Len: 128}}}).(*wire.ReadResp).Data
	for i := 0; i < 128; i++ {
		want := byte(0x10)
		if i >= 10 && i < 40 {
			want = 0xFF
		}
		if patched[i] != want {
			t.Fatalf("patched byte %d = %x, want %x", i, patched[i], want)
		}
	}
}

func TestOverflowExtentMustStayInUnit(t *testing.T) {
	s := testServer(0)
	r := ref()
	_, err := s.Handle(&wire.WriteOverflow{
		File:    r,
		Extents: []wire.Span{{Off: 100, Len: 60}}, // crosses the 128-byte unit boundary
		Data:    make([]byte, 60),
	})
	if err == nil {
		t.Fatal("cross-unit overflow extent accepted")
	}
	_, err = s.Handle(&wire.WriteOverflow{
		File:    r,
		Extents: []wire.Span{{Off: 0, Len: 10}},
		Data:    make([]byte, 3), // payload mismatch
	})
	if err == nil {
		t.Fatal("mismatched overflow payload accepted")
	}
}

func TestOverflowSlotReuse(t *testing.T) {
	s := testServer(0)
	r := ref()
	ov := func() int64 {
		resp := call(t, s, &wire.StorageStat{FileID: r.ID}).(*wire.StorageStatResp)
		return resp.ByStore[StoreOverflow]
	}
	call(t, s, &wire.WriteOverflow{File: r, Extents: []wire.Span{{Off: 0, Len: 10}}, Data: make([]byte, 10)})
	first := ov()
	if first == 0 {
		t.Fatal("no overflow storage after write")
	}
	// Another write to the same unit reuses its slot: no growth.
	call(t, s, &wire.WriteOverflow{File: r, Extents: []wire.Span{{Off: 50, Len: 10}}, Data: make([]byte, 10)})
	if got := ov(); got != first {
		t.Fatalf("same-unit overflow grew storage: %d -> %d", first, got)
	}
	// A different unit allocates a new slot.
	call(t, s, &wire.WriteOverflow{File: r, Extents: []wire.Span{{Off: 3 * 128, Len: 10}}, Data: make([]byte, 10)})
	if got := ov(); got <= first {
		t.Fatalf("new-unit overflow did not grow storage: %d -> %d", first, got)
	}
}

func TestHybridWriteDataInvalidatesOverflow(t *testing.T) {
	s := testServer(0)
	r := ref()
	call(t, s, &wire.WriteOverflow{File: r, Extents: []wire.Span{{Off: 0, Len: 20}}, Data: make([]byte, 20)})
	call(t, s, &wire.WriteOverflow{File: r, Extents: []wire.Span{{Off: 5, Len: 10}}, Data: make([]byte, 10), Mirror: true})
	// An in-place write over the range (a full-stripe body under Hybrid)
	// invalidates both tables implicitly.
	call(t, s, &wire.WriteData{File: r, Spans: []wire.Span{{Off: 0, Len: 128}}, Data: make([]byte, 128)})
	for _, mirror := range []bool{false, true} {
		dump := call(t, s, &wire.OverflowDump{File: r, Mirror: mirror}).(*wire.OverflowDumpResp)
		if len(dump.Extents) != 0 {
			t.Fatalf("mirror=%v: overflow extents survive a covering data write: %v", mirror, dump.Extents)
		}
	}
}

func TestRaid5WriteDataDoesNotTouchOverflow(t *testing.T) {
	s := testServer(0)
	r := ref()
	r.Scheme = wire.Raid5
	// (Overflow under RAID5 never happens in practice, but invalidation
	// must not trigger for non-Hybrid schemes.)
	rh := r
	rh.Scheme = wire.Hybrid
	call(t, s, &wire.WriteOverflow{File: rh, Extents: []wire.Span{{Off: 0, Len: 20}}, Data: make([]byte, 20)})
	call(t, s, &wire.WriteData{File: r, Spans: []wire.Span{{Off: 0, Len: 128}}, Data: make([]byte, 128)})
	dump := call(t, s, &wire.OverflowDump{File: rh}).(*wire.OverflowDumpResp)
	if len(dump.Extents) != 1 {
		t.Fatalf("raid5 data write altered overflow table: %v", dump.Extents)
	}
}

func TestMirrorStoreRoundTrip(t *testing.T) {
	// Server 1 is the mirror server of unit 0 (owned by server 0).
	s := testServer(1)
	r := ref()
	payload := bytes.Repeat([]byte{0x77}, 128)
	call(t, s, &wire.WriteMirror{File: r, Spans: []wire.Span{{Off: 0, Len: 128}}, Data: payload})
	got := call(t, s, &wire.ReadMirror{File: r, Spans: []wire.Span{{Off: 0, Len: 128}}}).(*wire.ReadResp).Data
	if !bytes.Equal(got, payload) {
		t.Fatal("mirror store did not round-trip")
	}
}

func TestRemoveFileClearsStores(t *testing.T) {
	s := testServer(0)
	r := ref()
	call(t, s, &wire.WriteData{File: r, Spans: []wire.Span{{Off: 0, Len: 128}}, Data: make([]byte, 128)})
	call(t, s, &wire.WriteOverflow{File: r, Extents: []wire.Span{{Off: 0, Len: 10}}, Data: make([]byte, 10)})
	if s.Disk().TotalBytes() == 0 {
		t.Fatal("nothing stored before remove")
	}
	call(t, s, &wire.RemoveFile{File: r})
	if got := s.Disk().TotalBytes(); got != 0 {
		t.Fatalf("%d bytes remain after RemoveFile", got)
	}
	// The file can be recreated cleanly afterwards.
	call(t, s, &wire.WriteData{File: r, Spans: []wire.Span{{Off: 0, Len: 128}}, Data: make([]byte, 128)})
}

func TestStorageStatBreakdown(t *testing.T) {
	s := testServer(2)
	r := ref()
	call(t, s, &wire.WriteParity{File: r, Stripes: []int64{0}, Data: make([]byte, 128)})
	st := call(t, s, &wire.StorageStat{FileID: r.ID}).(*wire.StorageStatResp)
	if st.ByStore[StoreParity] == 0 || st.Total != st.ByStore[StoreParity] {
		t.Fatalf("parity write not accounted: %+v", st)
	}
	// Whole-disk stat.
	whole := call(t, s, &wire.StorageStat{}).(*wire.StorageStatResp)
	if whole.Total == 0 {
		t.Fatal("whole-disk stat empty")
	}
	// Unknown file: empty stat, no error.
	unknown := call(t, s, &wire.StorageStat{FileID: 999}).(*wire.StorageStatResp)
	if unknown.Total != 0 {
		t.Fatal("unknown file reported storage")
	}
}

func TestWriteBufferingModesEquivalentContent(t *testing.T) {
	// Buffered and unbuffered servers must store identical bytes; only the
	// modeled timing differs.
	for _, buffering := range []bool{true, false} {
		opts := DefaultOptions()
		opts.WriteBuffering = buffering
		opts.RecvChunk = 40 // force many chunks
		s := New(0, simdisk.New(nil, simdisk.Params{PageSize: 64}), opts)
		r := ref()
		payload := make([]byte, 128)
		for i := range payload {
			payload[i] = byte(i * 3)
		}
		call(t, s, &wire.WriteData{File: r, Spans: []wire.Span{{Off: 0, Len: 128}}, Data: payload})
		got := call(t, s, &wire.Read{File: r, Spans: []wire.Span{{Off: 0, Len: 128}}, Raw: true}).(*wire.ReadResp).Data
		if !bytes.Equal(got, payload) {
			t.Fatalf("buffering=%v corrupted data", buffering)
		}
	}
}

func TestSyncAndDropCaches(t *testing.T) {
	disk := simdisk.New(nil, simdisk.Params{PageSize: 64})
	opts := DefaultOptions()
	opts.PageSize = 64
	s := New(0, disk, opts)
	r := ref()
	call(t, s, &wire.WriteData{File: r, Spans: []wire.Span{{Off: 0, Len: 128}}, Data: make([]byte, 128)})
	call(t, s, &wire.Sync{File: r})
	if w := disk.Stats().DiskWriteBytes; w == 0 {
		t.Fatal("sync flushed nothing")
	}
	call(t, s, &wire.DropCaches{})
	call(t, s, &wire.Read{File: r, Spans: []wire.Span{{Off: 0, Len: 128}}})
	if m := disk.Stats().CacheMisses; m == 0 {
		t.Fatal("read after drop-caches hit the cache")
	}
}

func TestChecksumRangeChunked(t *testing.T) {
	s := testServer(0)
	r := ref()
	// Server 0 owns units 0 and 3 of span [0,640): local bytes [0,256).
	payload := append(bytes.Repeat([]byte{0xB1}, 128), bytes.Repeat([]byte{0xB2}, 128)...)
	call(t, s, &wire.WriteData{File: r, Spans: []wire.Span{{Off: 0, Len: 640}}, Data: payload})

	resp := call(t, s, &wire.ChecksumRange{File: r, Store: wire.StoreData, Off: 0, Len: 256, Chunk: 128})
	cr := resp.(*wire.ChecksumRangeResp)
	if len(cr.Sums) != 2 || cr.Bytes != 256 {
		t.Fatalf("got %d sums, %d bytes; want 2 sums, 256 bytes", len(cr.Sums), cr.Bytes)
	}
	for i := 0; i < 2; i++ {
		want := crc32.Checksum(payload[i*128:(i+1)*128], castagnoli)
		if cr.Sums[i] != want {
			t.Fatalf("chunk %d sum %08x, want %08x", i, cr.Sums[i], want)
		}
	}

	// Chunk <= 0 means one checksum over the whole range; a final short
	// chunk is checksummed as-is.
	whole := call(t, s, &wire.ChecksumRange{File: r, Store: wire.StoreData, Off: 0, Len: 256}).(*wire.ChecksumRangeResp)
	if len(whole.Sums) != 1 || whole.Sums[0] != crc32.Checksum(payload, castagnoli) {
		t.Fatal("whole-range checksum wrong")
	}
	short := call(t, s, &wire.ChecksumRange{File: r, Store: wire.StoreData, Off: 0, Len: 200, Chunk: 128}).(*wire.ChecksumRangeResp)
	if len(short.Sums) != 2 || short.Sums[1] != crc32.Checksum(payload[128:200], castagnoli) {
		t.Fatal("short final chunk checksum wrong")
	}

	// Unwritten store ranges checksum as zeros (zero-fill semantics).
	z := call(t, s, &wire.ChecksumRange{File: r, Store: wire.StoreParity, Off: 0, Len: 128}).(*wire.ChecksumRangeResp)
	if z.Sums[0] != crc32.Checksum(make([]byte, 128), castagnoli) {
		t.Fatal("hole checksum is not the zero-block checksum")
	}
}

func TestChecksumRangeOverflowAggregate(t *testing.T) {
	s := testServer(0)
	r := ref()
	// Two overflow extents inside unit 0 (server 0's unit).
	e1 := wire.Span{Off: 10, Len: 20}
	e2 := wire.Span{Off: 50, Len: 8}
	d1 := bytes.Repeat([]byte{0xC1}, 20)
	d2 := bytes.Repeat([]byte{0xC2}, 8)
	call(t, s, &wire.WriteOverflow{File: r, Extents: []wire.Span{e1, e2}, Data: append(d1, d2...)})

	resp := call(t, s, &wire.ChecksumRange{File: r, Store: wire.StoreOverflow, Off: 0, Len: 1 << 30}).(*wire.ChecksumRangeResp)
	if len(resp.Sums) != 1 || resp.Bytes != 28 {
		t.Fatalf("got %d sums, %d bytes; want 1 sum, 28 bytes", len(resp.Sums), resp.Bytes)
	}
	var want uint32
	hdr := make([]byte, 16)
	for _, x := range []struct {
		sp   wire.Span
		data []byte
	}{{e1, d1}, {e2, d2}} {
		putU64LE(hdr[0:8], uint64(x.sp.Off))
		putU64LE(hdr[8:16], uint64(x.sp.Len))
		want = crc32.Update(want, castagnoli, hdr)
		want = crc32.Update(want, castagnoli, x.data)
	}
	if resp.Sums[0] != want {
		t.Fatalf("aggregate sum %08x, want %08x", resp.Sums[0], want)
	}

	// A range that misses every extent yields the empty aggregate.
	missResp := call(t, s, &wire.ChecksumRange{File: r, Store: wire.StoreOverflow, Off: 1000, Len: 10}).(*wire.ChecksumRangeResp)
	if missResp.Sums[0] != 0 || missResp.Bytes != 0 {
		t.Fatal("empty overflow range should checksum to 0 over 0 bytes")
	}
	// The untouched mirror store is empty too.
	mir := call(t, s, &wire.ChecksumRange{File: r, Store: wire.StoreOverflowMirror, Off: 0, Len: 1 << 30}).(*wire.ChecksumRangeResp)
	if mir.Sums[0] != 0 || mir.Bytes != 0 {
		t.Fatal("empty overflow mirror should checksum to 0 over 0 bytes")
	}
}

func TestChecksumRangeValidation(t *testing.T) {
	s := testServer(0)
	r := ref()
	if _, err := s.Handle(&wire.ChecksumRange{File: r, Store: 99, Len: 10}); err == nil {
		t.Fatal("unknown store accepted")
	}
	if _, err := s.Handle(&wire.ChecksumRange{File: r, Store: wire.StoreData, Off: -1, Len: 10}); err == nil {
		t.Fatal("negative offset accepted")
	}
	if _, err := s.Handle(&wire.ChecksumRange{File: r, Store: wire.StoreData, Off: 0, Len: -10}); err == nil {
		t.Fatal("negative length accepted")
	}
}

func TestRawWritePreservesOverflow(t *testing.T) {
	// A Raw (repair) data write must not invalidate Hybrid overflow
	// entries: foreground reads still need the overflow bytes.
	s := testServer(0)
	r := ref()
	call(t, s, &wire.WriteData{File: r, Spans: []wire.Span{{Off: 0, Len: 640}}, Data: append(bytes.Repeat([]byte{1}, 128), bytes.Repeat([]byte{2}, 128)...)})
	ovData := bytes.Repeat([]byte{0xEE}, 16)
	call(t, s, &wire.WriteOverflow{File: r, Extents: []wire.Span{{Off: 4, Len: 16}}, Data: ovData})

	call(t, s, &wire.WriteData{File: r, Spans: []wire.Span{{Off: 0, Len: 640}}, Data: append(bytes.Repeat([]byte{3}, 128), bytes.Repeat([]byte{4}, 128)...), Raw: true})
	got := call(t, s, &wire.Read{File: r, Spans: []wire.Span{{Off: 4, Len: 16}}}).(*wire.ReadResp).Data
	if !bytes.Equal(got, ovData) {
		t.Fatal("raw write invalidated overflow contents")
	}

	// A normal (full-stripe) write does invalidate them.
	call(t, s, &wire.WriteData{File: r, Spans: []wire.Span{{Off: 0, Len: 640}}, Data: append(bytes.Repeat([]byte{5}, 128), bytes.Repeat([]byte{6}, 128)...)})
	got = call(t, s, &wire.Read{File: r, Spans: []wire.Span{{Off: 4, Len: 16}}}).(*wire.ReadResp).Data
	if !bytes.Equal(got, bytes.Repeat([]byte{5}, 16)) {
		t.Fatal("full-stripe write did not supersede overflow")
	}
}
