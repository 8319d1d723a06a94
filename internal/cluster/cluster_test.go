package cluster

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"csar/internal/client"
	"csar/internal/recovery"
	"csar/internal/wire"
)

var allSchemes = []wire.Scheme{
	wire.Raid0, wire.Raid1, wire.Raid5, wire.Hybrid, wire.Raid5NoLock, wire.Raid5NPC,
}

var redundantSchemes = []wire.Scheme{wire.Raid1, wire.Raid5, wire.Hybrid}

func newCluster(t *testing.T, n int) *Cluster {
	t.Helper()
	c, err := New(DefaultConfig(n))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)
	return c
}

func pattern(n int, seed byte) []byte {
	p := make([]byte, n)
	for i := range p {
		p[i] = byte(i)*7 + seed
	}
	return p
}

func TestWriteReadRoundTripAllSchemes(t *testing.T) {
	for _, scheme := range allSchemes {
		t.Run(scheme.String(), func(t *testing.T) {
			cl := newCluster(t, 5).NewClient()
			f, err := cl.Create("f", 5, 64, scheme)
			if err != nil {
				t.Fatal(err)
			}
			// A mix of aligned, unaligned, overlapping and sparse writes.
			writes := []struct {
				off int64
				n   int
			}{
				{0, 256},    // exactly one stripe (4 data units * 64)
				{256, 100},  // partial
				{300, 600},  // overlaps previous, spans stripes
				{2000, 50},  // sparse hole before it
				{0, 1},      // tiny overwrite at start
				{255, 2},    // straddles unit boundary
				{1024, 512}, // two aligned stripes
			}
			ref := make([]byte, 4096)
			var maxEnd int64
			for wi, w := range writes {
				data := pattern(w.n, byte(wi+1))
				if _, err := f.WriteAt(data, w.off); err != nil {
					t.Fatalf("write %d: %v", wi, err)
				}
				copy(ref[w.off:], data)
				if e := w.off + int64(w.n); e > maxEnd {
					maxEnd = e
				}
			}
			got := make([]byte, maxEnd)
			if _, err := f.ReadAt(got, 0); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, ref[:maxEnd]) {
				for i := range got {
					if got[i] != ref[i] {
						t.Fatalf("first mismatch at byte %d: got %d want %d", i, got[i], ref[i])
					}
				}
			}
			if f.Size() != maxEnd {
				t.Fatalf("size=%d want %d", f.Size(), maxEnd)
			}
		})
	}
}

func TestRandomOpsAgainstReferenceModel(t *testing.T) {
	// The model checker: every scheme must behave exactly like a flat byte
	// array under random writes and reads, and the redundancy invariants
	// must hold after every quiescent point.
	for _, scheme := range allSchemes {
		scheme := scheme
		t.Run(scheme.String(), func(t *testing.T) {
			t.Parallel()
			for seed := int64(0); seed < 6; seed++ {
				r := rand.New(rand.NewSource(seed))
				servers := 3 + r.Intn(5)
				su := int64(16 + r.Intn(100))
				cl := newCluster(t, servers).NewClient()
				f, err := cl.Create(fmt.Sprintf("f%d", seed), servers, su, scheme)
				if err != nil {
					t.Fatal(err)
				}
				const space = 1 << 14
				ref := make([]byte, space)
				var size int64
				for op := 0; op < 60; op++ {
					off := int64(r.Intn(space / 2))
					n := r.Intn(space/4) + 1
					if r.Intn(4) == 0 {
						got := make([]byte, n)
						if _, err := f.ReadAt(got, off); err != nil {
							t.Fatalf("seed %d op %d read: %v", seed, op, err)
						}
						want := make([]byte, n)
						copy(want, ref[off:])
						if !bytes.Equal(got, want) {
							t.Fatalf("seed %d op %d: read mismatch at off=%d n=%d", seed, op, off, n)
						}
					} else {
						data := make([]byte, n)
						r.Read(data)
						if _, err := f.WriteAt(data, off); err != nil {
							t.Fatalf("seed %d op %d write: %v", seed, op, err)
						}
						copy(ref[off:], data)
						if off+int64(n) > size {
							size = off + int64(n)
						}
					}
				}
				if scheme != wire.Raid5NoLock { // nolock makes no parity promise
					problems, err := recovery.Verify(cl, f)
					if err != nil {
						t.Fatalf("seed %d verify: %v", seed, err)
					}
					// Raid5NPC intentionally writes wrong parity; everything
					// else must verify clean.
					if scheme != wire.Raid5NPC && len(problems) > 0 {
						t.Fatalf("seed %d: invariants violated: %v", seed, problems[:min(3, len(problems))])
					}
				}
			}
		})
	}
}

func TestConcurrentDisjointWritersSameStripe(t *testing.T) {
	// Section 5.1's scenario: clients write different blocks of the same
	// stripe. With locking, parity must be consistent afterwards.
	c := newCluster(t, 6) // stripe = 5 data units
	const su = 128
	setup := c.NewClient()
	f, err := setup.Create("shared", 6, su, wire.Raid5)
	if err != nil {
		t.Fatal(err)
	}
	// Materialize the first stripe so all writers do RMW updates.
	if _, err := f.WriteAt(make([]byte, 5*su), 0); err != nil {
		t.Fatal(err)
	}

	const rounds = 10
	var wg sync.WaitGroup
	errs := make([]error, 5)
	for w := 0; w < 5; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			cl := c.NewClient()
			fw, err := cl.Open("shared")
			if err != nil {
				errs[w] = err
				return
			}
			for round := 0; round < rounds; round++ {
				data := pattern(su, byte(w*16+round))
				if _, err := fw.WriteAt(data, int64(w)*su); err != nil {
					errs[w] = err
					return
				}
			}
		}(w)
	}
	wg.Wait()
	for w, err := range errs {
		if err != nil {
			t.Fatalf("writer %d: %v", w, err)
		}
	}
	problems, err := recovery.Verify(setup, f)
	if err != nil {
		t.Fatal(err)
	}
	if len(problems) > 0 {
		t.Fatalf("parity inconsistent after concurrent disjoint writes: %v", problems)
	}
	// Contents: each block holds its writer's final round.
	got := make([]byte, 5*su)
	if _, err := f.ReadAt(got, 0); err != nil {
		t.Fatal(err)
	}
	for w := 0; w < 5; w++ {
		want := pattern(su, byte(w*16+rounds-1))
		if !bytes.Equal(got[w*su:(w+1)*su], want) {
			t.Fatalf("block %d corrupted", w)
		}
	}
}

func TestConcurrentWritersHybridOverflow(t *testing.T) {
	// Hybrid writers of disjoint sub-block ranges land in overflow without
	// locks; data must still be correct.
	c := newCluster(t, 4)
	setup := c.NewClient()
	f, err := setup.Create("h", 4, 256, wire.Hybrid)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	errs := make([]error, 8)
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			cl := c.NewClient()
			fw, err := cl.Open("h")
			if err != nil {
				errs[w] = err
				return
			}
			data := pattern(100, byte(w+1))
			_, errs[w] = fw.WriteAt(data, int64(w)*100)
		}(w)
	}
	wg.Wait()
	for w, err := range errs {
		if err != nil {
			t.Fatalf("writer %d: %v", w, err)
		}
	}
	got := make([]byte, 800)
	if _, err := f.ReadAt(got, 0); err != nil {
		t.Fatal(err)
	}
	for w := 0; w < 8; w++ {
		if !bytes.Equal(got[w*100:(w+1)*100], pattern(100, byte(w+1))) {
			t.Fatalf("range of writer %d corrupted", w)
		}
	}
}

func TestHybridOverflowMigration(t *testing.T) {
	// A partial write creates overflow extents; a full-stripe write over
	// the same range invalidates them (migration back to RAID5).
	c := newCluster(t, 4) // stripe size = 3*64 = 192
	cl := c.NewClient()
	f, err := cl.Create("m", 4, 64, wire.Hybrid)
	if err != nil {
		t.Fatal(err)
	}
	// Partial write -> overflow.
	if _, err := f.WriteAt(pattern(100, 1), 10); err != nil {
		t.Fatal(err)
	}
	_, byStore, err := f.StorageBytes()
	if err != nil {
		t.Fatal(err)
	}
	if byStore[3] == 0 || byStore[4] == 0 {
		t.Fatalf("partial write produced no overflow: %v", byStore)
	}
	ovBefore := overflowExtentCount(t, cl, f)
	if ovBefore == 0 {
		t.Fatal("no overflow extents after partial write")
	}
	// Full-stripe write covering the same range -> extents invalidated.
	if _, err := f.WriteAt(pattern(192, 2), 0); err != nil {
		t.Fatal(err)
	}
	if got := overflowExtentCount(t, cl, f); got != 0 {
		t.Fatalf("overflow extents not invalidated by full-stripe write: %d", got)
	}
	// And the read sees the new data.
	got := make([]byte, 192)
	f.ReadAt(got, 0)
	if !bytes.Equal(got, pattern(192, 2)) {
		t.Fatal("full-stripe write did not supersede overflow data")
	}
}

func TestHybridSingleStripeInvalidatesParityServerMirror(t *testing.T) {
	// Regression: a single-stripe body write sends the stripe's parity
	// server only a WriteParity (it holds no data of that stripe), yet its
	// overflow-mirror table may cover the previous server's units in the
	// stripe. The parity write must invalidate them, or a degraded read
	// after the overwrite resurrects stale overflow data.
	c := newCluster(t, 4) // stripe 0: units on 0,1,2; parity on 3
	cl := c.NewClient()
	f, err := cl.Create("ss", 4, 64, wire.Hybrid)
	if err != nil {
		t.Fatal(err)
	}
	// Partial write inside unit 2 (owned by server 2, mirrored on 3).
	if _, err := f.WriteAt(pattern(30, 1), 130); err != nil {
		t.Fatal(err)
	}
	// Full single-stripe write superseding it.
	fresh := pattern(192, 2)
	if _, err := f.WriteAt(fresh, 0); err != nil {
		t.Fatal(err)
	}
	resp, err := cl.ServerCaller(3).Call(&wire.OverflowDump{File: f.Ref(), Mirror: true})
	if err != nil {
		t.Fatal(err)
	}
	if n := len(resp.(*wire.OverflowDumpResp).Extents); n != 0 {
		t.Fatalf("parity server keeps %d stale overflow-mirror extents", n)
	}
	// The acid test: degraded read with server 2 down.
	c.StopServer(2)
	cl.MarkDown(2)
	got := make([]byte, 192)
	if _, err := f.ReadAt(got, 0); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, fresh) {
		t.Fatal("degraded read resurrected stale overflow data")
	}
}

func overflowExtentCount(t *testing.T, cl *client.Client, f *client.File) int {
	t.Helper()
	total := 0
	for i := 0; i < f.Geometry().Servers; i++ {
		resp, err := cl.ServerCaller(i).Call(&wire.OverflowDump{File: f.Ref()})
		if err != nil {
			t.Fatal(err)
		}
		total += len(resp.(*wire.OverflowDumpResp).Extents)
	}
	return total
}

func TestStorageOverheads(t *testing.T) {
	// For purely full-stripe workloads: RAID1 stores 2x, RAID5 and Hybrid
	// store n/(n-1)x of the RAID0 bytes (Table 2's "best case" rows).
	// The stripe unit equals the disk page size so du-granular accounting
	// is exact.
	const n = 5
	const su = 4096
	const stripes = 20
	payload := int64(stripes * (n - 1) * su)

	totals := map[wire.Scheme]int64{}
	for _, scheme := range []wire.Scheme{wire.Raid0, wire.Raid1, wire.Raid5, wire.Hybrid} {
		c := newCluster(t, n)
		cl := c.NewClient()
		f, err := cl.Create("s", n, su, scheme)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := f.WriteAt(make([]byte, payload), 0); err != nil {
			t.Fatal(err)
		}
		tot, _, err := f.StorageBytes()
		if err != nil {
			t.Fatal(err)
		}
		totals[scheme] = tot
	}
	if totals[wire.Raid0] != payload {
		t.Fatalf("raid0 stores %d, want %d", totals[wire.Raid0], payload)
	}
	if totals[wire.Raid1] != 2*payload {
		t.Fatalf("raid1 stores %d, want %d", totals[wire.Raid1], 2*payload)
	}
	want5 := payload * n / (n - 1)
	if totals[wire.Raid5] != want5 {
		t.Fatalf("raid5 stores %d, want %d", totals[wire.Raid5], want5)
	}
	if totals[wire.Hybrid] != want5 {
		t.Fatalf("hybrid stores %d, want %d (full-stripe workload)", totals[wire.Hybrid], want5)
	}
}

func TestDegradedReadsAllRedundantSchemes(t *testing.T) {
	for _, scheme := range redundantSchemes {
		t.Run(scheme.String(), func(t *testing.T) {
			c := newCluster(t, 4)
			cl := c.NewClient()
			f, err := cl.Create("d", 4, 64, scheme)
			if err != nil {
				t.Fatal(err)
			}
			// Mixed content: full stripes plus a partial tail and an inner
			// partial overwrite (exercises overflow under Hybrid).
			ref := make([]byte, 1000)
			copy(ref, pattern(1000, 3))
			f.WriteAt(ref, 0)
			over := pattern(70, 9)
			f.WriteAt(over, 130)
			copy(ref[130:], over)

			for dead := 0; dead < 4; dead++ {
				c.StopServer(dead)
				cl.MarkDown(dead)
				got := make([]byte, 1000)
				if _, err := f.ReadAt(got, 0); err != nil {
					t.Fatalf("dead=%d: %v", dead, err)
				}
				if !bytes.Equal(got, ref) {
					for i := range got {
						if got[i] != ref[i] {
							t.Fatalf("dead=%d: first mismatch at byte %d (got %d want %d)",
								dead, i, got[i], ref[i])
						}
					}
				}
				// Unaligned sub-reads in degraded mode too.
				sub := make([]byte, 333)
				if _, err := f.ReadAt(sub, 111); err != nil {
					t.Fatalf("dead=%d sub-read: %v", dead, err)
				}
				if !bytes.Equal(sub, ref[111:444]) {
					t.Fatalf("dead=%d: sub-read mismatch", dead)
				}
				c.RestartServer(dead)
				cl.MarkUp(dead)
			}
		})
	}
}

func TestDegradedWriteRefusedForRaid0(t *testing.T) {
	c := newCluster(t, 4)
	cl := c.NewClient()
	for _, scheme := range []wire.Scheme{wire.Raid0, wire.Raid5NoLock, wire.Raid5NPC} {
		f, err := cl.Create("w-"+scheme.String(), 4, 64, scheme)
		if err != nil {
			t.Fatal(err)
		}
		c.StopServer(2)
		cl.MarkDown(2)
		if _, err := f.WriteAt([]byte{1}, 0); !errors.Is(err, client.ErrDegradedWrite) {
			t.Fatalf("%v: err=%v, want ErrDegradedWrite", scheme, err)
		}
		c.RestartServer(2)
		cl.MarkUp(2)
	}
}

func TestDegradedWrites(t *testing.T) {
	// The degraded-write extension: with one server down, writes under the
	// redundant schemes must land correctly (degraded reads see them) and
	// must leave enough redundancy for Rebuild to fully restore the dead
	// server, including its own pieces of the degraded writes.
	for _, scheme := range redundantSchemes {
		t.Run(scheme.String(), func(t *testing.T) {
			for dead := 0; dead < 4; dead++ {
				c := newCluster(t, 4) // stripe = 3*64 = 192
				cl := c.NewClient()
				f, err := cl.Create("dw", 4, 64, scheme)
				if err != nil {
					t.Fatal(err)
				}
				ref := make([]byte, 2000)
				copy(ref, pattern(2000, 1))
				f.WriteAt(ref, 0)

				c.StopServer(dead)
				cl.MarkDown(dead)

				// Degraded writes of every flavour: aligned full stripes,
				// an unaligned large write, and small partial writes that
				// target every server's units, including the dead one.
				writes := []struct {
					off int64
					n   int
				}{
					{0, 192},     // one aligned stripe
					{192, 400},   // stripes + tail
					{700, 50},    // partial inside a stripe
					{64 * 9, 64}, // exactly one unit (rotates across servers)
					{1990, 30},   // extends the file
					{5, 3},       // tiny head overwrite
				}
				for wi, w := range writes {
					data := pattern(w.n, byte(0x40+wi))
					if _, err := f.WriteAt(data, w.off); err != nil {
						t.Fatalf("dead=%d write %d: %v", dead, wi, err)
					}
					copy(ref[w.off:], data)
				}

				// Degraded read sees every degraded write.
				got := make([]byte, len(ref))
				if _, err := f.ReadAt(got, 0); err != nil {
					t.Fatalf("dead=%d degraded read: %v", dead, err)
				}
				if !bytes.Equal(got, ref) {
					for i := range got {
						if got[i] != ref[i] {
							t.Fatalf("dead=%d: degraded read mismatch at byte %d", dead, i)
						}
					}
				}

				// Rebuild restores the dead server, including its pieces of
				// the degraded writes.
				c.ReplaceServer(dead)
				if err := recovery.Rebuild(cl, f, dead); err != nil {
					t.Fatalf("dead=%d rebuild: %v", dead, err)
				}
				cl.MarkUp(dead)
				if _, err := f.ReadAt(got, 0); err != nil {
					t.Fatalf("dead=%d read after rebuild: %v", dead, err)
				}
				if !bytes.Equal(got, ref) {
					t.Fatalf("dead=%d: contents wrong after rebuild", dead)
				}
				problems, err := recovery.Verify(cl, f)
				if err != nil {
					t.Fatal(err)
				}
				if len(problems) > 0 {
					t.Fatalf("dead=%d: inconsistent after rebuild: %v", dead, problems)
				}
			}
		})
	}
}

func TestRaid0DegradedReadFails(t *testing.T) {
	c := newCluster(t, 4)
	cl := c.NewClient()
	f, err := cl.Create("r0", 4, 64, wire.Raid0)
	if err != nil {
		t.Fatal(err)
	}
	f.WriteAt(pattern(500, 1), 0)
	c.StopServer(1)
	cl.MarkDown(1)
	if _, err := f.ReadAt(make([]byte, 500), 0); !errors.Is(err, client.ErrNoRedundancy) {
		t.Fatalf("err=%v, want ErrNoRedundancy", err)
	}
}

func TestStoppedServerErrors(t *testing.T) {
	c := newCluster(t, 3)
	cl := c.NewClient()
	f, err := cl.Create("x", 3, 64, wire.Raid0)
	if err != nil {
		t.Fatal(err)
	}
	f.WriteAt(pattern(400, 1), 0)
	c.StopServer(0)
	// Without MarkDown the client still contacts the dead server and must
	// surface an error rather than wrong data.
	if _, err := f.ReadAt(make([]byte, 400), 0); err == nil {
		t.Fatal("read from stopped server succeeded")
	}
	c.RestartServer(0)
	if _, err := f.ReadAt(make([]byte, 400), 0); err != nil {
		t.Fatalf("after restart: %v", err)
	}
}

func TestRebuildAfterReplace(t *testing.T) {
	for _, scheme := range redundantSchemes {
		t.Run(scheme.String(), func(t *testing.T) {
			c := newCluster(t, 5)
			cl := c.NewClient()
			f, err := cl.Create("reb", 5, 64, scheme)
			if err != nil {
				t.Fatal(err)
			}
			ref := make([]byte, 3000)
			copy(ref, pattern(3000, 5))
			f.WriteAt(ref, 0)
			patch := pattern(90, 7) // partial write -> overflow under Hybrid
			f.WriteAt(patch, 500)
			copy(ref[500:], patch)

			for dead := 0; dead < 5; dead++ {
				c.StopServer(dead)
				c.ReplaceServer(dead) // blank disk
				if err := recovery.Rebuild(cl, f, dead); err != nil {
					t.Fatalf("rebuild %d: %v", dead, err)
				}
				got := make([]byte, 3000)
				if _, err := f.ReadAt(got, 0); err != nil {
					t.Fatalf("read after rebuild %d: %v", dead, err)
				}
				if !bytes.Equal(got, ref) {
					t.Fatalf("data corrupted after rebuilding server %d", dead)
				}
				problems, err := recovery.Verify(cl, f)
				if err != nil {
					t.Fatal(err)
				}
				if len(problems) > 0 {
					t.Fatalf("inconsistent after rebuilding server %d: %v", dead, problems)
				}
			}
		})
	}
}

func TestPipeTransportRoundTrip(t *testing.T) {
	cfg := DefaultConfig(4)
	cfg.Transport = Pipe
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	cl := c.NewClient()
	for _, scheme := range allSchemes {
		f, err := cl.Create("p-"+scheme.String(), 4, 64, scheme)
		if err != nil {
			t.Fatal(err)
		}
		data := pattern(1000, 4)
		if _, err := f.WriteAt(data, 37); err != nil {
			t.Fatalf("%v: %v", scheme, err)
		}
		got := make([]byte, 1000)
		if _, err := f.ReadAt(got, 37); err != nil {
			t.Fatalf("%v: %v", scheme, err)
		}
		if !bytes.Equal(got, data) {
			t.Fatalf("%v: data mismatch over pipe transport", scheme)
		}
		if err := f.Sync(); err != nil {
			t.Fatalf("%v sync: %v", scheme, err)
		}
	}
}

func TestManagerSemantics(t *testing.T) {
	c := newCluster(t, 4)
	cl := c.NewClient()
	if _, err := cl.Create("a", 4, 64, wire.Raid5); err != nil {
		t.Fatal(err)
	}
	if _, err := cl.Create("a", 4, 64, wire.Raid5); err == nil {
		t.Fatal("duplicate create succeeded")
	}
	if _, err := cl.Open("missing"); err == nil {
		t.Fatal("open of missing file succeeded")
	}
	if _, err := cl.Create("b", 2, 64, wire.Raid5); err == nil {
		t.Fatal("raid5 with 2 servers accepted")
	}
	if _, err := cl.Create("c", 9, 64, wire.Raid0); err == nil {
		t.Fatal("layout larger than cluster accepted")
	}
	names, err := cl.List()
	if err != nil {
		t.Fatal(err)
	}
	if len(names) != 1 || names[0] != "a" {
		t.Fatalf("List=%v", names)
	}
	// Size is published on Sync and visible to a fresh open.
	f, _ := cl.Open("a")
	f.WriteAt(pattern(500, 1), 0)
	f.Sync()
	f2, err := cl.Open("a")
	if err != nil {
		t.Fatal(err)
	}
	if f2.Size() != 500 {
		t.Fatalf("reopened size=%d", f2.Size())
	}
	if err := cl.Remove("a"); err != nil {
		t.Fatal(err)
	}
	if _, err := cl.Open("a"); err == nil {
		t.Fatal("open after remove succeeded")
	}
	if got := c.TotalStorage(); got != 0 {
		t.Fatalf("storage after remove: %d", got)
	}
}

func TestSchemesShareDataLayout(t *testing.T) {
	// The paper keeps the data layout identical to PVFS for every scheme; a
	// file written under one scheme must read identically through a ref
	// with the same geometry under RAID0 (ignoring redundancy stores).
	c := newCluster(t, 4)
	cl := c.NewClient()
	f, err := cl.Create("lay", 4, 64, wire.Raid5)
	if err != nil {
		t.Fatal(err)
	}
	data := pattern(1024, 6)
	f.WriteAt(data, 0) // aligned full stripes: all in place
	raw := make([]byte, 1024)
	if err := rawRead(cl, f, raw); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(raw, data) {
		t.Fatal("raw data layout differs from logical contents")
	}
}

func rawRead(cl *client.Client, f *client.File, dst []byte) error {
	g := f.Geometry()
	cur := int64(0)
	for cur < int64(len(dst)) {
		b := g.UnitOf(cur)
		end := g.UnitStart(b + 1)
		if end > int64(len(dst)) {
			end = int64(len(dst))
		}
		resp, err := cl.ServerCaller(g.ServerOf(b)).Call(&wire.Read{
			File:  f.Ref(),
			Spans: []wire.Span{{Off: cur, Len: end - cur}},
			Raw:   true,
		})
		if err != nil {
			return err
		}
		copy(dst[cur:end], resp.(*wire.ReadResp).Data)
		cur = end
	}
	return nil
}
