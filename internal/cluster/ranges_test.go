package cluster

import (
	"math/rand"
	"testing"

	"csar/internal/client"
	"csar/internal/raid"
	"csar/internal/recovery"
	"csar/internal/scrub"
	"csar/internal/wire"
)

// parityMoved sums, over every server, the parity-store bytes ReadParity and
// WriteParity have moved.
func parityMoved(c *Cluster) (read, written int64) {
	for i := 0; i < c.Servers(); i++ {
		st := c.Server(i).ParityStats()
		read += st.BytesRead
		written += st.BytesWritten
	}
	return read, written
}

// wantParityBytes is what a write of [off, off+n) covering no whole stripe
// should cost the parity stores with server dead (-1: none) down, worked out
// byte by byte: for each partial stripe, every maintained parity unit reads
// and writes back the union of the in-unit positions the write touches. A
// degraded update that has a piece on the dead server also fetches one whole
// parity unit, unlocked, as a survivor of that piece's decode.
func wantParityBytes(g raid.Geometry, off, n int64, dead int) (read, written int64) {
	su := g.StripeUnit
	for s := g.StripeOf(off); s <= g.StripeOf(off+n-1); s++ {
		touched := make([]bool, su)
		deadPiece := false
		for b := max(off, g.StripeStart(s)); b < min(off+n, g.StripeStart(s+1)); b++ {
			touched[b%su] = true
			deadPiece = deadPiece || g.ServerOf(g.UnitOf(b)) == dead
		}
		var union, units int64
		for _, t := range touched {
			if t {
				union++
			}
		}
		for j := 0; j < g.PU(); j++ {
			if g.ParityServerOfUnit(s, j) != dead {
				units++
			}
		}
		read += union * units
		written += union * units
		if deadPiece && units > 0 {
			read += su
		}
	}
	return read, written
}

// rmwShape draws one seeded unaligned write of the given shape inside a file
// of size bytes: a single byte; a range inside one unit; a range straddling
// two units of one stripe whose in-unit ranges stay disjoint; a range
// straddling two stripes (two partial stripes, no whole one); and a range
// wider than a unit inside one stripe, whose in-unit ranges merge to the
// whole unit.
func rmwShape(r *rand.Rand, g raid.Geometry, shape int, size int64) (off, n int64) {
	su, ss, k := g.StripeUnit, g.StripeSize(), int64(g.DataWidth())
	units := size / su
	switch shape {
	case 0:
		return r.Int63n(size), 1
	case 1:
		u := r.Int63n(units)
		off = g.UnitStart(u) + r.Int63n(su)
		return off, 1 + r.Int63n(g.UnitStart(u+1)-off)
	case 2:
		u := r.Int63n(units)
		for u%k == k-1 {
			u = r.Int63n(units)
		}
		a := 2 + r.Int63n(su-2) // the first piece starts at a
		b := 1 + r.Int63n(a-1)  // the last ends at b < a
		off = g.UnitStart(u) + a
		return off, g.UnitStart(u+1) + b - off
	case 3:
		s := 1 + r.Int63n(size/ss-1)
		off = g.StripeStart(s) - 1 - r.Int63n(ss-1)
		return off, g.StripeStart(s) + 1 + r.Int63n(ss-1) - off
	default:
		u := r.Int63n(units)
		for u%k > k-3 {
			u = r.Int63n(units)
		}
		off = g.UnitStart(u) + r.Int63n(su)
		return off, g.UnitStart(u+2) + 1 + r.Int63n(su-1) - off
	}
}

// TestRMWParityRanges is the differential for ranged read-modify-writes:
// seeded unaligned writes of every shape go through RAID5, RS(4,2) and the
// two RAID5 engine ablations, healthy and — for the full engine — with each
// single server dead in turn. Each write must move exactly the parity bytes
// wantParityBytes works out; the file must read back as the reference; and,
// wherever parity is computed, recovery.Verify and a scrub must find nothing
// to mend.
func TestRMWParityRanges(t *testing.T) {
	for _, tc := range []struct {
		name            string
		scheme          wire.Scheme
		servers, parity int
		ablate          client.Ablation
	}{
		{"raid5", wire.Raid5, 5, 0, 0},
		{"rs42", wire.ReedSolomon, 6, 2, 0},
		{"raid5-nolock", wire.Raid5, 5, 0, client.AblateLock},
		{"raid5-npc", wire.Raid5, 5, 0, client.AblateCompute},
	} {
		t.Run(tc.name, func(t *testing.T) {
			const su = 64
			r := rand.New(rand.NewSource(int64(tc.servers)*10 + int64(tc.ablate)))
			c := newCluster(t, tc.servers)
			c.Ablation = tc.ablate
			cl := c.NewClient()
			f, err := cl.CreateParity("ranges", tc.servers, su, tc.scheme, tc.parity)
			must(t, err)
			g := f.Geometry()
			ref := make([]byte, 4*g.StripeSize())
			r.Read(ref)
			mustWrite(t, f, ref, 0)

			deads := []int{-1}
			if tc.ablate == 0 { // an ablated engine refuses degraded writes
				for d := 0; d < tc.servers; d++ {
					deads = append(deads, d)
				}
			}
			for _, dead := range deads {
				if dead >= 0 {
					c.StopServer(dead)
					cl.MarkDown(dead)
				}
				degraded := cl.Metrics().DegradedWrites
				for i := 0; i < 10; i++ {
					off, n := rmwShape(r, g, i%5, int64(len(ref)))
					patch := make([]byte, n)
					r.Read(patch)
					r0, w0 := parityMoved(c)
					mustWrite(t, f, patch, off)
					copy(ref[off:], patch)
					r1, w1 := parityMoved(c)
					wantR, wantW := wantParityBytes(g, off, n, dead)
					if r1-r0 != wantR || w1-w0 != wantW {
						t.Fatalf("dead %d, write [%d,+%d): parity bytes read %d written %d, want %d and %d",
							dead, off, n, r1-r0, w1-w0, wantR, wantW)
					}
				}
				if dead >= 0 && cl.Metrics().DegradedWrites-degraded != 10 {
					t.Fatalf("dead %d: %d of 10 writes ran degraded", dead, cl.Metrics().DegradedWrites-degraded)
				}
				checkRead(t, f, ref, 0)
				if dead >= 0 {
					c.ReplaceServer(dead)
					must(t, recovery.Rebuild(cl, f, dead))
					cl.MarkUp(dead)
					checkRead(t, f, ref, 0)
				}
				if tc.ablate == client.AblateCompute {
					continue // its parity is never computed: nothing to verify
				}
				if problems, err := recovery.Verify(cl, f); err != nil || len(problems) != 0 {
					t.Fatalf("dead %d: verify: %v %v", dead, err, problems)
				}
				rep, err := scrub.Run(cl, f, scrub.Options{})
				must(t, err)
				if !rep.Clean() {
					t.Fatalf("dead %d: scrub: %v", dead, rep)
				}
			}
			if got := cl.Metrics().RMWs; got == 0 {
				t.Fatal("no write took the read-modify-write path")
			}
		})
	}
}
