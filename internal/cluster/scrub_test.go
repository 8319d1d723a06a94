package cluster

import (
	"bytes"
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"csar/internal/client"
	"csar/internal/recovery"
	"csar/internal/scrub"
	"csar/internal/wire"
)

// storeName is the server-side file name of one of a file's local stores
// (see server.storeSuffix).
func storeName(ref wire.FileRef, suffix string) string {
	return fmt.Sprintf("f%06d.%s", ref.ID, suffix)
}

// flipByte injects silent corruption: one byte of a server's local store is
// inverted directly on the simulated disk, bypassing the server.
func flipByte(t *testing.T, c *Cluster, srv int, name string, off int64) {
	t.Helper()
	f := c.ServerDisk(srv).Open(name)
	b := make([]byte, 1)
	f.ReadAt(b, off) //nolint:errcheck // zero-fill semantics
	b[0] ^= 0xFF
	if _, err := f.WriteAt(b, off); err != nil {
		t.Fatal(err)
	}
}

func TestScrubCleanAllSchemes(t *testing.T) {
	for _, sc := range allSchemes {
		t.Run(sc.name, func(t *testing.T) {
			c := sc.cluster(t, 5)
			cl := c.NewClient()
			f, err := cl.Create("f", 5, 64, sc.scheme)
			if err != nil {
				t.Fatal(err)
			}
			writes := []struct {
				off int64
				n   int
			}{
				{0, 256}, {256, 100}, {300, 600}, {2000, 50}, {255, 2}, {1024, 512},
			}
			for _, w := range writes {
				if _, err := f.WriteAt(pattern(w.n, byte(w.off)), w.off); err != nil {
					t.Fatal(err)
				}
			}
			rep, err := scrub.Run(cl, f, scrub.Options{})
			if err != nil {
				t.Fatal(err)
			}
			var repaired int64
			if sc.ablate == client.AblateCompute {
				// The NPC ablation ships parity uncomputed. The scrub checks
				// the file as the RAID5 file it is and repairs that parity,
				// and the next pass finds the file consistent.
				if tot := rep.Totals(); tot.Mismatched == 0 || tot.Repaired != tot.Mismatched {
					t.Fatalf("scrub of uncomputed parity: %v", rep)
				}
				repaired = rep.Totals().Repaired
				if rep, err = scrub.Run(cl, f, scrub.Options{}); err != nil {
					t.Fatal(err)
				}
			}
			if !rep.Clean() {
				t.Fatalf("scrub of a consistent file found mismatches: %v", rep.Problems)
			}
			tot := rep.Totals()
			if sc.scheme == wire.Raid0 {
				// No redundancy invariant to check.
				if tot.Checked != 0 {
					t.Fatalf("%v scrub checked %d items; nothing to check", sc.name, tot.Checked)
				}
				return
			}
			if tot.Checked == 0 {
				t.Fatal("scrub checked nothing")
			}
			m := cl.Metrics()
			if m.ScrubBytes == 0 {
				t.Fatal("scrub bytes not recorded in metrics")
			}
			if m.ScrubFound != repaired || m.ScrubRepaired != repaired || m.ScrubUnrepairable != 0 {
				t.Fatalf("clean scrub recorded mismatches: %+v", m)
			}
		})
	}
}

func TestScrubRefusesDownServer(t *testing.T) {
	c := newCluster(t, 5)
	cl := c.NewClient()
	f, err := cl.Create("f", 5, 64, wire.Raid5)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteAt(pattern(512, 1), 0); err != nil {
		t.Fatal(err)
	}
	cl.MarkDown(2)
	if _, err := scrub.Run(cl, f, scrub.Options{}); err == nil {
		t.Fatal("scrub ran with a server marked down")
	}
}

func TestScrubCancel(t *testing.T) {
	c := newCluster(t, 5)
	cl := c.NewClient()
	f, err := cl.Create("f", 5, 64, wire.Raid5)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteAt(pattern(2048, 1), 0); err != nil {
		t.Fatal(err)
	}
	stop := make(chan struct{})
	close(stop)
	rep, err := scrub.Run(cl, f, scrub.Options{Cancel: stop})
	if err != scrub.ErrCanceled {
		t.Fatalf("err = %v, want ErrCanceled", err)
	}
	if got := rep.Totals().Checked; got != 0 {
		t.Fatalf("pre-canceled scrub checked %d stripes", got)
	}
}

// TestScrubRepairsSilentCorruption flips one byte in each redundancy kind's
// stores — a data unit, a mirror unit, a parity block, and both overflow
// copies — and asserts the scrubber detects exactly that mismatch, repairs
// the correct copy, and subsequent (including degraded) reads are right.
func TestScrubRepairsSilentCorruption(t *testing.T) {
	// Geometry used by every subtest: 5 servers, 64-byte units, 256-byte
	// stripes, 512 bytes of in-place data. Unit 3 lives on server 3 at
	// local offset 0; its mirror is on server 4. Stripe 0's parity is on
	// server 4 at local offset 0.
	cases := []struct {
		name    string
		scheme  wire.Scheme
		corrupt func(t *testing.T, c *Cluster, ref wire.FileRef)
		counts  func(r *scrub.Report) scrub.Counts
		degrade int // server to fail for the degraded re-read; -1 skips
	}{
		{
			name:   "raid1-data-unit",
			scheme: wire.Raid1,
			corrupt: func(t *testing.T, c *Cluster, ref wire.FileRef) {
				flipByte(t, c, 3, storeName(ref, "data"), 5)
			},
			counts: func(r *scrub.Report) scrub.Counts { return r.Mirror },
			// Fail the mirror server so the read must use the repaired
			// primary of unit 3.
			degrade: 4,
		},
		{
			name:   "raid1-mirror-unit",
			scheme: wire.Raid1,
			corrupt: func(t *testing.T, c *Cluster, ref wire.FileRef) {
				flipByte(t, c, 4, storeName(ref, "mirror"), 5)
			},
			counts: func(r *scrub.Report) scrub.Counts { return r.Mirror },
			// Fail the primary so the read must use the repaired mirror.
			degrade: 3,
		},
		{
			name:   "raid5-data-unit",
			scheme: wire.Raid5,
			corrupt: func(t *testing.T, c *Cluster, ref wire.FileRef) {
				flipByte(t, c, 3, storeName(ref, "data"), 5)
			},
			counts: func(r *scrub.Report) scrub.Counts { return r.Parity },
			// Fail server 0: unit 0 is reconstructed from parity and the
			// other units of stripe 0, including the repaired unit 3.
			degrade: 0,
		},
		{
			name:   "raid5-parity-block",
			scheme: wire.Raid5,
			corrupt: func(t *testing.T, c *Cluster, ref wire.FileRef) {
				flipByte(t, c, 4, storeName(ref, "parity"), 2)
			},
			counts: func(r *scrub.Report) scrub.Counts { return r.Parity },
			// Reconstruction of unit 0 consumes the repaired parity block.
			degrade: 0,
		},
		{
			name:   "hybrid-primary-overflow",
			scheme: wire.Hybrid,
			corrupt: func(t *testing.T, c *Cluster, ref wire.FileRef) {
				// The partial write below lands in server 0's overflow
				// slot 0 at source offset 0.
				flipByte(t, c, 0, storeName(ref, "overflow"), 5)
			},
			counts:  func(r *scrub.Report) scrub.Counts { return r.Overflow },
			degrade: -1, // the normal read already exercises the repaired primary
		},
		{
			name:   "hybrid-overflow-mirror",
			scheme: wire.Hybrid,
			corrupt: func(t *testing.T, c *Cluster, ref wire.FileRef) {
				flipByte(t, c, 1, storeName(ref, "ovmirror"), 5)
			},
			counts: func(r *scrub.Report) scrub.Counts { return r.Overflow },
			// Fail server 0: the overflow bytes are served from the
			// repaired mirror on server 1.
			degrade: 0,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			c := newCluster(t, 5)
			cl := c.NewClient()
			f, err := cl.Create("f", 5, 64, tc.scheme)
			if err != nil {
				t.Fatal(err)
			}
			want := pattern(512, 1)
			if _, err := f.WriteAt(want, 0); err != nil {
				t.Fatal(err)
			}
			if tc.scheme == wire.Hybrid {
				// A sub-stripe write goes to the mirrored overflow region.
				part := pattern(20, 9)
				if _, err := f.WriteAt(part, 0); err != nil {
					t.Fatal(err)
				}
				copy(want, part)
			}

			// Pass 1, clean: records last-known-good checksums.
			j := scrub.NewJournal()
			rep, err := scrub.Run(cl, f, scrub.Options{Journal: j})
			if err != nil {
				t.Fatal(err)
			}
			if !rep.Clean() {
				t.Fatalf("pre-corruption scrub found mismatches: %v", rep.Problems)
			}

			tc.corrupt(t, c, f.Ref())

			// Pass 2: must find exactly this mismatch and repair it.
			rep, err = scrub.Run(cl, f, scrub.Options{Journal: j, RepairData: true})
			if err != nil {
				t.Fatal(err)
			}
			got := tc.counts(rep)
			if got.Mismatched != 1 || got.Repaired != 1 || got.Unrepairable != 0 {
				t.Fatalf("scrub counts = %+v, want 1 mismatched / 1 repaired (problems: %v)",
					got, rep.Problems)
			}
			if tot := rep.Totals(); tot.Mismatched != 1 {
				t.Fatalf("scrub found %d mismatches beyond the injected one: %v",
					tot.Mismatched, rep.Problems)
			}

			// Pass 3 and an independent recheck must both be clean.
			rep, err = scrub.Run(cl, f, scrub.Options{Journal: j})
			if err != nil {
				t.Fatal(err)
			}
			if !rep.Clean() {
				t.Fatalf("post-repair scrub still finds mismatches: %v", rep.Problems)
			}
			problems, err := recovery.Verify(cl, f)
			if err != nil {
				t.Fatal(err)
			}
			if len(problems) > 0 {
				t.Fatalf("recovery.Verify after repair: %v", problems)
			}

			buf := make([]byte, len(want))
			if _, err := f.ReadAt(buf, 0); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(buf, want) {
				t.Fatal("contents wrong after repair")
			}
			if tc.degrade >= 0 {
				c.StopServer(tc.degrade)
				cl.MarkDown(tc.degrade)
				if _, err := f.ReadAt(buf, 0); err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(buf, want) {
					t.Fatalf("degraded read (server %d down) wrong after repair", tc.degrade)
				}
				c.RestartServer(tc.degrade)
				cl.MarkUp(tc.degrade)
			}
		})
	}
}

// TestScrubRepairsMultipleCorruptions corrupts one copy of each redundancy
// kind a Hybrid file has — a data unit, a parity block of a different
// stripe, and an overflow-mirror extent — and asserts one scrub pass
// reports exactly those three mismatches and repairs them all.
func TestScrubRepairsMultipleCorruptions(t *testing.T) {
	c := newCluster(t, 5)
	cl := c.NewClient()
	f, err := cl.Create("f", 5, 64, wire.Hybrid)
	if err != nil {
		t.Fatal(err)
	}
	want := pattern(512, 1)
	if _, err := f.WriteAt(want, 0); err != nil {
		t.Fatal(err)
	}
	part := pattern(20, 9)
	if _, err := f.WriteAt(part, 0); err != nil {
		t.Fatal(err)
	}
	copy(want, part)

	j := scrub.NewJournal()
	rep, err := scrub.Run(cl, f, scrub.Options{Journal: j})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Clean() {
		t.Fatalf("pre-corruption scrub found mismatches: %v", rep.Problems)
	}

	ref := f.Ref()
	flipByte(t, c, 3, storeName(ref, "data"), 5)     // unit 3, stripe 0
	flipByte(t, c, 3, storeName(ref, "parity"), 2)   // parity of stripe 1
	flipByte(t, c, 1, storeName(ref, "ovmirror"), 5) // mirror of server 0's overflow

	rep, err = scrub.Run(cl, f, scrub.Options{Journal: j, RepairData: true})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Parity.Mismatched != 2 || rep.Parity.Repaired != 2 {
		t.Fatalf("parity counts = %+v, want 2/2 (problems: %v)", rep.Parity, rep.Problems)
	}
	if rep.Overflow.Mismatched != 1 || rep.Overflow.Repaired != 1 {
		t.Fatalf("overflow counts = %+v, want 1/1 (problems: %v)", rep.Overflow, rep.Problems)
	}
	if tot := rep.Totals(); tot.Mismatched != 3 || tot.Unrepairable != 0 {
		t.Fatalf("totals = %+v, want exactly 3 mismatches all repaired", tot)
	}

	rep, err = scrub.Run(cl, f, scrub.Options{Journal: j})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Clean() {
		t.Fatalf("post-repair scrub still finds mismatches: %v", rep.Problems)
	}
	problems, err := recovery.Verify(cl, f)
	if err != nil {
		t.Fatal(err)
	}
	if len(problems) > 0 {
		t.Fatalf("recovery.Verify after repair: %v", problems)
	}
	buf := make([]byte, len(want))
	if _, err := f.ReadAt(buf, 0); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf, want) {
		t.Fatal("contents wrong after repair")
	}
}

// TestScrubUnrepairableWithoutRepairData checks the data-repair gate: when
// the evidence says the primary data copy is the corrupt one and RepairData
// is off, scrub must report the mismatch as unrepairable and leave every
// copy untouched.
func TestScrubUnrepairableWithoutRepairData(t *testing.T) {
	c := newCluster(t, 5)
	cl := c.NewClient()
	f, err := cl.Create("f", 5, 64, wire.Raid1)
	if err != nil {
		t.Fatal(err)
	}
	want := pattern(512, 1)
	if _, err := f.WriteAt(want, 0); err != nil {
		t.Fatal(err)
	}
	j := scrub.NewJournal()
	if _, err := scrub.Run(cl, f, scrub.Options{Journal: j}); err != nil {
		t.Fatal(err)
	}
	flipByte(t, c, 3, storeName(f.Ref(), "data"), 5)

	rep, err := scrub.Run(cl, f, scrub.Options{Journal: j})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Mirror.Mismatched != 1 || rep.Mirror.Repaired != 0 || rep.Mirror.Unrepairable != 1 {
		t.Fatalf("counts = %+v, want 1 mismatched / 0 repaired / 1 unrepairable", rep.Mirror)
	}
	// The mirror still holds the good copy: a degraded read proves it.
	c.StopServer(3)
	cl.MarkDown(3)
	buf := make([]byte, len(want))
	if _, err := f.ReadAt(buf, 0); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf, want) {
		t.Fatal("scrub without RepairData damaged the mirror copy")
	}
}

// TestScrubConcurrentWithWriters runs the scrubber in a loop while three
// foreground writers update disjoint regions, then checks that a few
// quiescent passes converge to a clean file with the writers' data intact —
// the parity-lock interaction and the journal's drop-on-mismatch rule are
// what make this safe.
func TestScrubConcurrentWithWriters(t *testing.T) {
	for _, scheme := range redundantSchemes {
		t.Run(scheme.String(), func(t *testing.T) {
			c := newCluster(t, 5)
			setup := c.NewClient()
			f, err := setup.Create("f", 5, 64, scheme)
			if err != nil {
				t.Fatal(err)
			}
			const writers = 3
			const region = 512 // two whole stripes per writer
			want := make([]byte, writers*region)
			init := pattern(len(want), 3)
			if _, err := f.WriteAt(init, 0); err != nil {
				t.Fatal(err)
			}
			copy(want, init)

			j := scrub.NewJournal()
			stop := make(chan struct{})
			var scrubErr error
			var scrubWG sync.WaitGroup
			scrubWG.Add(1)
			go func() {
				defer scrubWG.Done()
				scl := c.NewClient()
				sf, err := scl.Open("f")
				if err != nil {
					scrubErr = err
					return
				}
				for {
					select {
					case <-stop:
						return
					default:
					}
					if _, err := scrub.Run(scl, sf, scrub.Options{Journal: j}); err != nil {
						scrubErr = err
						return
					}
				}
			}()

			var wg sync.WaitGroup
			errs := make([]error, writers)
			for w := 0; w < writers; w++ {
				wg.Add(1)
				go func(w int) {
					defer wg.Done()
					cl := c.NewClient()
					fw, err := cl.Open("f")
					if err != nil {
						errs[w] = err
						return
					}
					r := rand.New(rand.NewSource(int64(w + 1)))
					base := int64(w) * region
					for round := 0; round < 60; round++ {
						n := 1 + r.Intn(100)
						off := base + int64(r.Intn(region-n))
						data := pattern(n, byte(w*50+round))
						if _, err := fw.WriteAt(data, off); err != nil {
							errs[w] = err
							return
						}
						// Writers own disjoint regions, so updating the
						// shared expectation needs no lock.
						copy(want[off:int(off)+n], data)
					}
				}(w)
			}
			wg.Wait()
			close(stop)
			scrubWG.Wait()
			if scrubErr != nil {
				t.Fatalf("scrub during writes: %v", scrubErr)
			}
			for w, err := range errs {
				if err != nil {
					t.Fatalf("writer %d: %v", w, err)
				}
			}

			// Races seen mid-run leave at most transient inconsistencies;
			// quiescent passes must converge to clean.
			clean := false
			for i := 0; i < 4 && !clean; i++ {
				rep, err := scrub.Run(setup, f, scrub.Options{Journal: j})
				if err != nil {
					t.Fatal(err)
				}
				clean = rep.Clean()
			}
			if !clean {
				t.Fatal("scrub did not converge to clean after writers stopped")
			}
			problems, err := recovery.Verify(setup, f)
			if err != nil {
				t.Fatal(err)
			}
			if len(problems) > 0 {
				t.Fatalf("redundancy inconsistent after concurrent scrub: %v", problems)
			}
			got := make([]byte, len(want))
			if _, err := f.ReadAt(got, 0); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, want) {
				t.Fatal("foreground data corrupted by concurrent scrub")
			}
		})
	}
}
