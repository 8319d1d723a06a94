package cluster

import (
	"fmt"
	"math/rand"
	"testing"

	"csar/internal/raid"
	"csar/internal/wire"
)

// deadSets returns every set of at most m of n servers, the empty set first.
func deadSets(n, m int) [][]int {
	out := [][]int{nil}
	var grow func(set []int, from int)
	grow = func(set []int, from int) {
		for s := from; s < n; s++ {
			next := append(append([]int(nil), set...), s)
			out = append(out, next)
			if len(next) < m {
				grow(next, s+1)
			}
		}
	}
	grow(nil, 0)
	return out
}

// TestDegradedReadDifferential holds the degraded-read plan to a reference
// file. For RAID5, Hybrid (with live overflow extents on every server, so its
// in-place bytes and its reads differ everywhere) and RS(4,2), and for every
// set of at most m dead servers, a seeded list of reads — one byte, sub-unit,
// sub-unit inside a dead unit (every survivor lies outside the span), unit-
// and stripe-straddling, arbitrary, whole-file — must return the reference's
// bytes exactly. With one server dead, half the reads find it stopped but not
// marked down, so they fail over from the healthy path mid-read. Every case
// ends with degraded read-modify-writes (where the file still takes writes)
// over the dead units and a whole-file read-back.
func TestDegradedReadDifferential(t *testing.T) {
	const (
		su    = 64
		reads = 240
	)
	for ci, tc := range []struct {
		name    string
		scheme  wire.Scheme
		servers int
		parity  int
	}{
		{"raid5", wire.Raid5, 5, 0},
		{"hybrid", wire.Hybrid, 5, 0},
		{"rs42", wire.ReedSolomon, 6, 2},
		{"raid1", wire.Raid1, 5, 0},
	} {
		m := max(tc.parity, 1)
		for di, deads := range deadSets(tc.servers, m) {
			seed := int64(1000*ci + di)
			t.Run(fmt.Sprintf("%s/dead=%v", tc.name, deads), func(t *testing.T) {
				r := rand.New(rand.NewSource(seed))
				c := newCluster(t, tc.servers)
				cl := c.NewClient()
				f, err := cl.CreateParity("d", tc.servers, su, tc.scheme, tc.parity)
				must(t, err)
				g := f.Geometry()
				ss := g.StripeSize()
				ref := make([]byte, 8*ss)
				r.Read(ref)
				mustWrite(t, f, ref, 0)
				// A partial-stripe patch inside every unit: RMWs for RAID5 and
				// RS, overflow extents on every server for Hybrid.
				for b := int64(0); b < g.UnitsIn(int64(len(ref))); b++ {
					at := g.UnitStart(b) + r.Int63n(su)
					patch := make([]byte, 1+r.Int63n(g.UnitStart(b+1)-at))
					r.Read(patch)
					mustWrite(t, f, patch, at)
					copy(ref[at:], patch)
				}
				if tc.scheme == wire.Hybrid {
					for s := 0; s < tc.servers; s++ {
						resp, err := cl.ServerCaller(s).Call(&wire.OverflowDump{File: f.Ref()})
						must(t, err)
						if len(resp.(*wire.OverflowDumpResp).Extents) == 0 {
							t.Fatalf("server %d holds no overflow extents", s)
						}
					}
				}
				for _, d := range deads {
					c.StopServer(d)
					cl.MarkDown(d)
				}

				size := int64(len(ref))
				read := func(i int, off, n int64) {
					t.Helper()
					got := make([]byte, n)
					if _, err := f.ReadAt(got, off); err != nil {
						t.Fatalf("seed %d read %d [%d,+%d): %v", seed, i, off, n, err)
					}
					for b := range got {
						if got[b] != ref[off+int64(b)] {
							t.Fatalf("seed %d read %d [%d,+%d): byte %d (unit %d, server %d) is %d, want %d",
								seed, i, off, n, off+int64(b), g.UnitOf(off+int64(b)),
								g.ServerOf(g.UnitOf(off+int64(b))), got[b], ref[off+int64(b)])
						}
					}
				}
				for i := 0; i < reads; i++ {
					if len(deads) == 1 && i == reads/2 {
						// The rest find the server stopped, not marked down: the
						// healthy path fails and falls over to the degraded one.
						cl.MarkUp(deads[0])
					}
					unit := r.Int63n(g.UnitsIn(size))
					var off, n int64
					switch i % 7 {
					case 0: // one byte
						off, n = r.Int63n(size), 1
					case 1: // within one unit
						off = g.UnitStart(unit) + r.Int63n(su)
						n = 1 + r.Int63n(g.UnitStart(unit+1)-off)
					case 2: // within a dead unit: its survivors all lie outside
						if len(deads) > 0 {
							for g.ServerOf(unit) != deads[r.Intn(len(deads))] {
								unit = r.Int63n(g.UnitsIn(size))
							}
						}
						off = g.UnitStart(unit) + r.Int63n(su)
						n = 1 + r.Int63n(g.UnitStart(unit+1)-off)
					case 3: // across a unit boundary
						off = g.UnitStart(unit+1) - 1 - r.Int63n(su-1)
						n = g.UnitStart(unit+1) - off + 1 + r.Int63n(su)
					case 4: // across a stripe boundary
						st := g.StripeOf(g.UnitStart(unit)) + 1
						off = g.StripeStart(st) - 1 - r.Int63n(ss-1)
						n = g.StripeStart(st) - off + 1 + r.Int63n(ss)
					case 5: // anywhere
						off = r.Int63n(size)
						n = 1 + r.Int63n(size-off)
					case 6:
						off, n = 0, size
					}
					off = min(off, size-1)
					read(i, off, min(n, size-off))
				}
				if len(deads) == 1 && cl.Metrics().Failovers == 0 {
					t.Fatal("no read failed over mid-read")
				}

				if len(deads) <= 1 {
					for _, d := range deads {
						cl.MarkDown(d)
					}
					// Patches over units of the dead server (any units when
					// none is dead): degraded RMWs decode the old contents.
					before := cl.Metrics().DegradedWrites
					for w := 0; w < 6; w++ {
						unit := r.Int63n(g.UnitsIn(size))
						for len(deads) > 0 && g.ServerOf(unit) != deads[0] {
							unit = r.Int63n(g.UnitsIn(size))
						}
						span := raid.Span{Off: g.UnitStart(unit) + r.Int63n(su)}
						span.Len = 1 + r.Int63n(min(2*su, size-span.Off))
						patch := make([]byte, span.Len)
						r.Read(patch)
						mustWrite(t, f, patch, span.Off)
						copy(ref[span.Off:], patch)
					}
					if got := cl.Metrics().DegradedWrites - before; got != int64(6*len(deads)) {
						t.Fatalf("%d degraded writes, want %d", got, 6*len(deads))
					}
				}
				read(reads, 0, size)
			})
		}
	}
}
