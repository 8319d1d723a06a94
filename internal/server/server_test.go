package server

import (
	"bytes"
	"hash/crc32"
	"strings"
	"sync"
	"testing"
	"time"

	"csar/internal/obs"
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
	// The member messages address stripe 0's parity unit in stripe space.
	unit := []wire.Span{{Off: 0, Len: 128}}
	if _, err := s.Handle(&wire.Read{File: r, Store: wire.StoreParity, Spans: unit}); err == nil {
		t.Fatal("parity member read for foreign stripe accepted")
	}
	if _, err := s.Handle(&wire.WriteData{File: r, Store: wire.StoreParity, Spans: unit, Data: make([]byte, 128)}); err == nil {
		t.Fatal("parity member write for foreign stripe accepted")
	}
	if n := s.Disk().TotalBytes(); n != 0 {
		t.Fatalf("refused parity writes stored %d bytes", n)
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
		return &wire.WriteParity{File: r, Stripes: []int64{0}, Data: make([]byte, 128), Unlock: true, Session: owner, Seq: 1}
	}
	// First locked read acquires the lock immediately.
	call(t, s, &wire.ReadParity{File: r, Stripes: []int64{0}, Lock: true, Session: 11, Seq: 1})

	// Second locked read must block until the parity write releases.
	got := make(chan struct{})
	go func() {
		s.Handle(&wire.ReadParity{File: r, Stripes: []int64{0}, Lock: true, Session: 12, Seq: 1}) //nolint:errcheck
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

// TestIntentCountersInRegistry: the intent/lease counters live in the
// server's registry, so /metrics serves them as counters and the Stats RPC
// carries each exactly once. One read-modify-write's parity traffic, then
// the heartbeat a client's Sync flushes its watermark with: one renewal, one
// intent retired.
func TestIntentCountersInRegistry(t *testing.T) {
	s := testServer(2)
	r := ref()
	call(t, s, &wire.ReadParity{File: r, Stripes: []int64{0}, Lock: true, Session: 41, Seq: 1})
	call(t, s, &wire.WriteParity{File: r, Stripes: []int64{0}, Data: make([]byte, 128), Unlock: true, Session: 41, Seq: 1})
	call(t, s, &wire.RenewLease{Session: 41, LeaseMS: 1000, Watermark: 1})

	var prom strings.Builder
	obs.WriteProm(&prom, s.Obs().Snapshot())
	for _, want := range []string{"# TYPE csar_intents_opened counter", "csar_intents_opened 1", "csar_intents_retired 1",
		"# TYPE csar_lease_renewals counter", "csar_lease_renewals 1"} {
		if !strings.Contains(prom.String(), want) {
			t.Errorf("/metrics output lacks %q:\n%s", want, prom.String())
		}
	}
	n := 0
	for _, kv := range call(t, s, &wire.Stats{}).(*wire.StatsResp).Counters {
		if kv.Name == "intents_opened" {
			n++
		}
	}
	if n != 1 {
		t.Errorf("Stats reply carries intents_opened %d times, want once", n)
	}
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
			if _, err := s.Handle(&wire.ReadParity{File: r, Stripes: []int64{0}, Lock: true, Session: owner, Seq: 1}); err != nil {
				t.Error(err)
				return
			}
			if _, err := s.Handle(&wire.WriteParity{
				File: r, Stripes: []int64{0}, Data: make([]byte, 128), Unlock: true, Session: owner, Seq: 1,
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
			File: r, Stripes: []int64{0}, Data: make([]byte, 128), Unlock: true, Session: owner, Seq: 1,
		}); err == nil {
			t.Fatalf("unlocking write under token %d accepted with no lock held", owner)
		}
	}
	// Nor may a lock be taken without a token to release it by.
	if _, err := s.Handle(&wire.ReadParity{File: r, Stripes: []int64{0}, Lock: true}); err == nil {
		t.Fatal("tokenless locked read accepted")
	}
	call(t, s, &wire.ReadParity{File: r, Stripes: []int64{0}, Lock: true, Session: 32, Seq: 1})
	call(t, s, &wire.WriteParity{File: r, Stripes: []int64{0}, Data: make([]byte, 128), Unlock: true, Session: 32, Seq: 1})
}

func TestTokenedUnlockRequiresOwner(t *testing.T) {
	s := testServer(2)
	r := ref()
	// Client A acquires under its token; its compensating UnlockParity
	// (fired after a client-side timeout) releases the acquisition.
	call(t, s, &wire.ReadParity{File: r, Stripes: []int64{0}, Lock: true, Session: 101, Seq: 1})
	call(t, s, &wire.UnlockParity{File: r, Stripes: []int64{0}, Session: 101, Seq: 1})
	// Client B acquires next.
	call(t, s, &wire.ReadParity{File: r, Stripes: []int64{0}, Lock: true, Session: 202, Seq: 1})
	// A's unlocking parity write now arrives late: it must be refused, not
	// release B's lock or write its stale parity bytes.
	if _, err := s.Handle(&wire.WriteParity{
		File: r, Stripes: []int64{0}, Data: make([]byte, 128), Unlock: true, Session: 101, Seq: 1,
	}); err == nil {
		t.Fatal("late unlocking parity write with a canceled token accepted")
	}
	// B must still hold the lock: its own unlocking write succeeds (it would
	// be refused if A's ghost had released it).
	call(t, s, &wire.WriteParity{
		File: r, Stripes: []int64{0}, Data: make([]byte, 128), Unlock: true, Session: 202, Seq: 1,
	})
}

func TestCanceledTokenRefusesLateLockedRead(t *testing.T) {
	s := testServer(2)
	r := ref()
	// The compensating UnlockParity overtakes its own locked read in the
	// server's concurrent dispatch: nothing matches yet, but the token must
	// be tombstoned.
	call(t, s, &wire.UnlockParity{File: r, Stripes: []int64{0}, Session: 303, Seq: 1})
	// The locked read lands afterwards: it must be refused, or it would
	// acquire a lock its client has already given up on — permanently.
	if _, err := s.Handle(&wire.ReadParity{
		File: r, Stripes: []int64{0}, Lock: true, Session: 303, Seq: 1,
	}); err == nil {
		t.Fatal("late locked read with a canceled token acquired the lock")
	}
	// The stripe stays immediately lockable by everyone else.
	got := make(chan struct{})
	go func() {
		defer close(got)
		if _, err := s.Handle(&wire.ReadParity{
			File: r, Stripes: []int64{0}, Lock: true, Session: 404, Seq: 1,
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
		File: r, Stripes: []int64{0}, Data: make([]byte, 128), Unlock: true, Session: 404, Seq: 1,
	})
}

func TestMultiStripeLockRollbackOnCancel(t *testing.T) {
	s := testServer(2) // holds parity of stripes 0 and 3
	r := ref()
	// Another owner holds stripe 3, so the two-stripe acquisition below
	// locks stripe 0 and then queues on stripe 3.
	call(t, s, &wire.ReadParity{File: r, Stripes: []int64{3}, Lock: true, Session: 600, Seq: 1})

	errc := make(chan error, 1)
	go func() {
		_, err := s.Handle(&wire.ReadParity{File: r, Stripes: []int64{0, 3}, Lock: true, Session: 500, Seq: 1})
		errc <- err
	}()
	time.Sleep(20 * time.Millisecond)
	// Cancel the in-flight acquisition. Whether it already queued on stripe 3
	// or has not even locked stripe 0 yet, the end state must be the same:
	// the request fails and holds nothing.
	call(t, s, &wire.UnlockParity{File: r, Stripes: []int64{0, 3}, Session: 500, Seq: 1})
	if err := <-errc; err == nil {
		t.Fatal("canceled two-stripe acquisition reported success")
	}
	// Stripe 0's lock — taken before the cancellation hit stripe 3 — must
	// have been rolled back: a fresh acquisition may not block.
	got := make(chan struct{})
	go func() {
		defer close(got)
		if _, err := s.Handle(&wire.ReadParity{
			File: r, Stripes: []int64{0}, Lock: true, Session: 700, Seq: 1,
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
	call(t, s, &wire.WriteData{
		File: r, Store: wire.StoreOverflow,
		Spans: []wire.Span{{Off: 10, Len: 30}},
		Data:  bytes.Repeat([]byte{0xFF}, 30),
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
	_, err := s.Handle(&wire.WriteData{
		File: r, Store: wire.StoreOverflow,
		Spans: []wire.Span{{Off: 100, Len: 60}}, // crosses the 128-byte unit boundary
		Data:  make([]byte, 60),
	})
	if err == nil {
		t.Fatal("cross-unit overflow extent accepted")
	}
	_, err = s.Handle(&wire.WriteData{
		File: r, Store: wire.StoreOverflow,
		Spans: []wire.Span{{Off: 0, Len: 10}},
		Data:  make([]byte, 3), // payload mismatch
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
		return resp.ByStore[wire.StoreOverflow]
	}
	call(t, s, &wire.WriteData{File: r, Store: wire.StoreOverflow, Spans: []wire.Span{{Off: 0, Len: 10}}, Data: make([]byte, 10)})
	first := ov()
	if first == 0 {
		t.Fatal("no overflow storage after write")
	}
	// Another write to the same unit reuses its slot: no growth.
	call(t, s, &wire.WriteData{File: r, Store: wire.StoreOverflow, Spans: []wire.Span{{Off: 50, Len: 10}}, Data: make([]byte, 10)})
	if got := ov(); got != first {
		t.Fatalf("same-unit overflow grew storage: %d -> %d", first, got)
	}
	// A different unit allocates a new slot.
	call(t, s, &wire.WriteData{File: r, Store: wire.StoreOverflow, Spans: []wire.Span{{Off: 3 * 128, Len: 10}}, Data: make([]byte, 10)})
	if got := ov(); got <= first {
		t.Fatalf("new-unit overflow did not grow storage: %d -> %d", first, got)
	}
}

func TestHybridWriteDataInvalidatesOverflow(t *testing.T) {
	s := testServer(0)
	r := ref()
	call(t, s, &wire.WriteData{File: r, Store: wire.StoreOverflow, Spans: []wire.Span{{Off: 0, Len: 20}}, Data: make([]byte, 20)})
	// Server 0 mirrors unit 2, the last of the three servers' units.
	call(t, s, &wire.WriteData{File: r, Store: wire.StoreOverflowMirror, Spans: []wire.Span{{Off: 256 + 5, Len: 10}}, Data: make([]byte, 10)})
	// An in-place write over the range (a full-stripe body under Hybrid)
	// invalidates both tables implicitly; of [0, 384) server 0 keeps unit 0.
	call(t, s, &wire.WriteData{File: r, Spans: []wire.Span{{Off: 0, Len: 384}}, Data: make([]byte, 128)})
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
	// must not trigger for a shape without overflow. The server resolves a
	// file's shape from the first request that names it: here RAID5's.)
	call(t, s, &wire.Read{File: r})
	rh := r
	rh.Scheme = wire.Hybrid
	call(t, s, &wire.WriteData{File: rh, Store: wire.StoreOverflow, Spans: []wire.Span{{Off: 0, Len: 20}}, Data: make([]byte, 20)})
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
	call(t, s, &wire.WriteData{File: r, Store: wire.StoreMirror, Spans: []wire.Span{{Off: 0, Len: 128}}, Data: payload})
	got := call(t, s, &wire.Read{File: r, Store: wire.StoreMirror, Spans: []wire.Span{{Off: 0, Len: 128}}}).(*wire.ReadResp).Data
	if !bytes.Equal(got, payload) {
		t.Fatal("mirror store did not round-trip")
	}
}

func TestRemoveFileClearsStores(t *testing.T) {
	s := testServer(0)
	r := ref()
	call(t, s, &wire.WriteData{File: r, Spans: []wire.Span{{Off: 0, Len: 128}}, Data: make([]byte, 128)})
	call(t, s, &wire.WriteData{File: r, Store: wire.StoreOverflow, Spans: []wire.Span{{Off: 0, Len: 10}}, Data: make([]byte, 10)})
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
	if st.ByStore[wire.StoreParity] == 0 || st.Total != st.ByStore[wire.StoreParity] {
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
	call(t, s, &wire.WriteData{File: r, Store: wire.StoreOverflow, Spans: []wire.Span{e1, e2}, Data: append(d1, d2...)})

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
	call(t, s, &wire.WriteData{File: r, Store: wire.StoreOverflow, Spans: []wire.Span{{Off: 4, Len: 16}}, Data: ovData})

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

// TestDirtyLogReloadPastTornTail crash-restarts a server whose dirty journal
// ends in a torn tail — zero fill, a partial length word, a frame cut inside
// its record. The reload keeps every whole record, and a record appended
// after it survives the next reload: the tail is truncated away instead of
// stranding later appends behind bytes the load stops at.
func TestDirtyLogReloadPastTornTail(t *testing.T) {
	const recordLen = 27 // u8 kind | u64 file | u16 dead | u64 epoch | i64 value
	for name, tail := range map[string][]byte{
		"zero fill":           make([]byte, 16),
		"partial length word": {recordLen, 0},
		"cut record":          {recordLen, 0, 0, 0, 0x5a, 0x5a, 0x5a, 0x5a, dirtyKindGroup, 1},
	} {
		t.Run(name, func(t *testing.T) {
			disk := simdisk.New(nil, simdisk.Params{PageSize: 64})
			opts := DefaultOptions()
			opts.PageSize = 64
			s := New(0, disk, opts)
			call(t, s, &wire.MarkDirty{File: ref(), Dead: 1, Epoch: 7, Groups: []int64{3}})
			j := disk.Open(dirtyJournalName)
			j.WriteAt(tail, j.Size()) //nolint:errcheck // in-memory disk

			s = New(0, disk, opts)
			call(t, s, &wire.MarkDirty{File: ref(), Dead: 1, Epoch: 7, Groups: []int64{5}})
			s = New(0, disk, opts)
			got := call(t, s, &wire.DirtyDump{File: ref(), Dead: 1}).(*wire.DirtyDumpResp)
			var groups []int64
			for _, it := range got.Groups {
				groups = append(groups, it.Group)
			}
			if len(groups) != 2 || groups[0] != 3 || groups[1] != 5 || len(got.Epochs) != 1 || got.Epochs[0] != 7 {
				t.Fatalf("after two reloads: groups %v epochs %v, want [3 5] [7]", groups, got.Epochs)
			}
		})
	}
}

// TestStatsNames pins the instrument names a server's snapshot lists after a
// mix of requests, an error among them: a histogram for each kind seen and
// none for any other kind, and every counter and gauge.
func TestStatsNames(t *testing.T) {
	s := testServer(0)
	r := ref()
	call(t, s, &wire.Ping{})
	call(t, s, &wire.WriteData{File: r, Spans: []wire.Span{{Off: 0, Len: 128}}, Data: make([]byte, 128)})
	call(t, s, &wire.Read{File: r, Spans: []wire.Span{{Off: 0, Len: 128}}, Raw: true})
	// A member message of another store counts under its kind: there is one
	// histogram per kind, whatever the store.
	call(t, s, &wire.Read{File: r, Store: wire.StoreMirror, Spans: []wire.Span{{Off: 0, Len: 128}}})
	call(t, s, &wire.WriteData{File: r, Store: wire.StoreParity, Spans: []wire.Span{{Off: 256, Len: 128}}, Data: make([]byte, 128)})
	call(t, s, &wire.Ping{})
	if _, err := s.Handle(&wire.OpenResp{}); err == nil {
		t.Fatal("unsupported message accepted")
	}
	snap := s.Obs().Snapshot()
	var got []string
	for _, h := range snap.Hists {
		got = append(got, "hist "+h.Name)
	}
	for _, c := range snap.Counters {
		got = append(got, "counter "+c.Name)
	}
	for _, g := range snap.Gauges {
		got = append(got, "gauge "+g.Name)
	}
	want := []string{
		"hist rpc_open_resp", "hist rpc_ping", "hist rpc_read", "hist rpc_write_data",
		"counter bytes_in", "counter bytes_out", "counter errors",
		"counter intents_abandoned", "counter intents_opened", "counter intents_resolved",
		"counter intents_retired", "counter lease_expiries", "counter lease_renewals",
		"counter parity_bytes_read", "counter parity_bytes_written",
		"gauge dirty_log_entries", "gauge files_open", "gauge intents_live", "gauge locks_held",
	}
	if strings.Join(got, "\n") != strings.Join(want, "\n") {
		t.Fatalf("snapshot names:\n%s\nwant:\n%s", strings.Join(got, "\n"), strings.Join(want, "\n"))
	}
}
