package cluster

import (
	"errors"
	"sync"
	"testing"
	"time"

	"csar/internal/recovery"
	"csar/internal/wire"
)

// End-to-end tests for online scheme migration ("re-layout under
// writers"): the scheme-transition matrix on a quiet file, the
// dual-write cursor boundary pinned deterministically, the acceptance
// scenario — Hybrid → RS(4,2) under concurrent writers surviving an I/O
// server crash and a manager failover — and abort/re-run convergence.

// TestMigrateSchemeMatrix walks one live file through RAID1 → Hybrid →
// RAID5 → RS(4,2) → RAID1. After every hop the content must be intact,
// the file writable under the new scheme, the redundancy verifiable, and
// the new layout visible to a freshly attached client.
func TestMigrateSchemeMatrix(t *testing.T) {
	c := newCluster(t, 6)
	cl := c.NewClient()
	f, err := cl.Create("m", 6, 512, wire.Raid1)
	if err != nil {
		t.Fatal(err)
	}
	const size = 50 << 10
	ref := pattern(size, 3)
	mustWrite(t, f, ref, 0)

	hops := []struct {
		scheme wire.Scheme
		parity int
	}{
		{wire.Hybrid, 0},
		{wire.Raid5, 0},
		{wire.ReedSolomon, 2},
		{wire.Raid1, 0},
	}
	for i, hop := range hops {
		from := f.Scheme()
		rep, err := recovery.Migrate(cl, f, hop.scheme, hop.parity, recovery.MigrateOptions{})
		if err != nil {
			t.Fatalf("hop %v -> %v: %v", from, hop.scheme, err)
		}
		if rep.From != from || rep.To != hop.scheme || rep.NewID == 0 {
			t.Fatalf("report = %+v", rep)
		}
		if rep.BytesCopied < size {
			t.Fatalf("hop to %v copied %d bytes, file is %d", hop.scheme, rep.BytesCopied, size)
		}
		if rep.CleanupErrs != 0 {
			t.Fatalf("hop to %v left %d old stores behind", hop.scheme, rep.CleanupErrs)
		}
		if f.Scheme() != hop.scheme || f.Ref().ID != rep.NewID {
			t.Fatalf("handle after hop: scheme=%v id=%d, want %v/%d", f.Scheme(), f.Ref().ID, hop.scheme, rep.NewID)
		}
		// Content survived and the file is writable in the new scheme.
		checkRead(t, f, ref, 0)
		upd := pattern(777, byte(i+40))
		off := int64(i * 1000)
		mustWrite(t, f, upd, off)
		copy(ref[off:], upd)
		checkRead(t, f, ref, 0)
		if probs, err := recovery.Verify(cl, f); err != nil || len(probs) != 0 {
			t.Fatalf("verify after hop to %v: %v %v", hop.scheme, probs, err)
		}
		// A fresh client sees the committed layout.
		ff, err := c.NewClient().Open("m")
		if err != nil {
			t.Fatal(err)
		}
		if ff.Scheme() != hop.scheme || ff.Ref().ID != rep.NewID {
			t.Fatalf("fresh open after hop: scheme=%v id=%d", ff.Scheme(), ff.Ref().ID)
		}
		checkRead(t, ff, ref, 0)
	}
	if got := cl.Metrics().Migrations; got != int64(len(hops)) {
		t.Fatalf("Migrations metric = %d, want %d", got, len(hops))
	}
}

// TestMigrateUnderWritersCrashAndFailover is the acceptance scenario: a
// Hybrid file on six servers migrates to RS(4,2) while writers keep
// rewriting their regions. Mid-copy an I/O server fails requests and the
// pass aborts; the server then crash-restarts (RAM state lost, disk
// intact) and the primary manager is killed and a standby promoted. The
// re-run must resume the same pinned shadow layout, converge, and leave
// the file byte-identical to what the writers wrote, verifiably redundant,
// and visible to fresh clients under the new scheme.
func TestMigrateUnderWritersCrashAndFailover(t *testing.T) {
	cfg := DefaultConfig(6)
	cfg.Managers = 3
	cfg.MetaDir = t.TempDir()
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	cl := c.NewClient()

	// Block size is one whole Hybrid stripe (5 data units) times one whole
	// RS(4,2) stripe (4 data units): every write — live, dual-written, or
	// chunk copy — takes a full-stripe path, so a mid-write failure never
	// strands overflow tables or open RMW intents on the server that will
	// crash.
	const (
		unit      = 1024
		blockSize = 20 * unit // lcm(5, 4) data units
		nWriters  = 3
		blocks    = 4              // per writer
		size      = 48 * blockSize // 15 copy chunks; writers cover 12 blocks, tail is static
	)
	f, err := cl.Create("m", 6, unit, wire.Hybrid)
	if err != nil {
		t.Fatal(err)
	}
	seed := pattern(size, 7)
	mustWrite(t, f, seed, 0)
	if err := f.Sync(); err != nil { // publish the size: fresh clients must see it post-cutover
		t.Fatal(err)
	}

	// Writers each own a disjoint run of blocks and rewrite them round-robin
	// with fresh contents, retrying each block until it is acknowledged —
	// the last acknowledged write per block is the expected final content.
	stop := make(chan struct{})
	var wg sync.WaitGroup
	regions := make([][]byte, nWriters)
	for w := 0; w < nWriters; w++ {
		base := w * blocks * blockSize
		region := make([]byte, blocks*blockSize)
		copy(region, seed[base:base+len(region)])
		regions[w] = region
		wg.Add(1)
		go func(w int, region []byte) {
			defer wg.Done()
			for iter := 0; ; iter++ {
				select {
				case <-stop:
					return
				default:
				}
				b := iter % blocks
				data := pattern(blockSize, byte(w*31+iter))
				off := int64(w*blocks*blockSize + b*blockSize)
				for {
					if _, err := f.WriteAt(data, off); err == nil {
						break
					}
					time.Sleep(time.Millisecond)
				}
				copy(region[b*blockSize:], data)
			}
		}(w, region)
	}

	// First pass: server 2 starts failing writes mid-copy — a chunk copy
	// sends server 2 two WriteData, its data units and the parity units it
	// keeps of the chunk's 16 RS(4,2) stripes (5 of them), so the seventh
	// chunk at the latest trips the fault. The pass must abort and leave the
	// shadow layout pinned.
	flt := c.Inject(FaultPoint{Server: 2, Kind: wire.KWriteData, After: 13, Action: FaultDrop})
	rep1, err := recovery.Migrate(cl, f, wire.ReedSolomon, 2, recovery.MigrateOptions{})
	if !errors.Is(err, recovery.ErrMigrationAborted) {
		t.Fatalf("pass with failing server: %v", err)
	}
	if rep1.NewID == 0 {
		t.Fatalf("no shadow pinned: %+v", rep1)
	}
	flt.Release()
	if info, err := cl.OpenInfo("m"); err != nil || info.Mig.ID != rep1.NewID {
		t.Fatalf("pin after aborted pass: %+v, %v", info, err)
	}

	// The wounded server crash-restarts: volatile state is gone, stores
	// survive. Then the primary manager dies and a standby takes over —
	// the pin must ride the replicated WAL across the failover.
	c.CrashServer(2)
	c.RestartServer(2)
	c.KillManager(0)
	if won, err := c.TryPromoteManager(1); err != nil || !won {
		t.Fatalf("promotion: won=%v err=%v", won, err)
	}

	// Re-run: resumes the same shadow layout and converges under writers.
	rep2, err := recovery.Migrate(cl, f, wire.ReedSolomon, 2, recovery.MigrateOptions{})
	if err != nil {
		t.Fatalf("re-run after crash and failover: %v", err)
	}
	if rep2.NewID != rep1.NewID {
		t.Fatalf("re-run pinned a new shadow %d, want resumed %d", rep2.NewID, rep1.NewID)
	}
	if rep2.BytesCopied < size {
		t.Fatalf("re-run copied %d bytes, file is %d", rep2.BytesCopied, size)
	}

	close(stop)
	wg.Wait()

	// Expected content: writers' last acknowledged blocks over the static
	// seed tail.
	want := make([]byte, size)
	copy(want, seed)
	for w, region := range regions {
		copy(want[w*blocks*blockSize:], region)
	}
	if f.Scheme() != wire.ReedSolomon || f.Ref().ID != rep2.NewID {
		t.Fatalf("handle after migration: %v/%d", f.Scheme(), f.Ref().ID)
	}
	checkRead(t, f, want, 0)
	if probs, err := recovery.Verify(cl, f); err != nil || len(probs) != 0 {
		t.Fatalf("verify after migration: %v %v", probs, err)
	}
	if info, err := cl.OpenInfo("m"); err != nil || info.Mig.ID != 0 {
		t.Fatalf("pin not cleared by commit: %+v, %v", info, err)
	}

	// A fresh client attached after the cutover sees the new layout.
	ff, err := c.NewClient().Open("m")
	if err != nil {
		t.Fatal(err)
	}
	if ff.Scheme() != wire.ReedSolomon || ff.Size() != size {
		t.Fatalf("fresh open: %v size=%d", ff.Scheme(), ff.Size())
	}
	checkRead(t, ff, want, 0)

	m := cl.Metrics()
	if m.Migrations != 1 {
		t.Fatalf("Migrations = %d", m.Migrations)
	}
	if m.MetaFailovers == 0 {
		t.Fatal("no metadata failover counted across the manager kill")
	}
	if m.RelayoutBytes < size {
		t.Fatalf("RelayoutBytes = %d, want >= %d", m.RelayoutBytes, size)
	}
}

// TestAbortMigrationAndRerun: a pinned migration with a partially
// materialized shadow is abandoned; the pin clears, and a later migration
// to a different target proceeds under a fresh shadow ID.
func TestAbortMigrationAndRerun(t *testing.T) {
	c := newCluster(t, 6)
	cl := c.NewClient()
	f, err := cl.Create("a", 6, 512, wire.Hybrid)
	if err != nil {
		t.Fatal(err)
	}
	const size = 32 << 10
	ref := pattern(size, 21)
	mustWrite(t, f, ref, 0)

	sr, err := cl.PinScheme(f.Ref().ID, wire.Raid5, 0)
	if err != nil {
		t.Fatal(err)
	}
	// Partially materialize the shadow, as an interrupted copy would.
	dst, err := cl.FileForRelayout(sr.New, 0)
	if err != nil {
		t.Fatal(err)
	}
	mustWrite(t, dst, ref[:8192], 0)

	if err := recovery.AbortMigration(cl, "a"); err != nil {
		t.Fatal(err)
	}
	if info, err := cl.OpenInfo("a"); err != nil || info.Mig.ID != 0 {
		t.Fatalf("pin after abort: %+v, %v", info, err)
	}
	// Aborting again is a no-op.
	if err := recovery.AbortMigration(cl, "a"); err != nil {
		t.Fatal(err)
	}

	// A subsequent migration to a different target gets a fresh shadow and
	// converges; the abandoned copy leaves no trace.
	rep, err := recovery.Migrate(cl, f, wire.ReedSolomon, 2, recovery.MigrateOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if rep.NewID == sr.New.ID {
		t.Fatal("aborted shadow ID reused")
	}
	checkRead(t, f, ref, 0)
	if probs, err := recovery.Verify(cl, f); err != nil || len(probs) != 0 {
		t.Fatalf("verify: %v %v", probs, err)
	}
}
