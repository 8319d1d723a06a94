package raid

import (
	"math/rand"
	"testing"
	"testing/quick"

	"csar/internal/wire"
)

func TestGeometryValidate(t *testing.T) {
	cases := []struct {
		g        Geometry
		ok       bool
		parityOK bool
	}{
		{Geometry{Servers: 1, StripeUnit: 4096}, true, false},
		{Geometry{Servers: 2, StripeUnit: 4096}, true, false},
		{Geometry{Servers: 3, StripeUnit: 4096}, true, true},
		{Geometry{Servers: 7, StripeUnit: 65536}, true, true},
		{Geometry{Servers: 0, StripeUnit: 4096}, false, false},
		{Geometry{Servers: 3, StripeUnit: 0}, false, false},
		{Geometry{Servers: 3, StripeUnit: -1}, false, false},
	}
	for _, c := range cases {
		for scheme, want := range map[wire.Scheme]bool{wire.Raid0: c.ok, wire.Raid5: c.parityOK} {
			ref := wire.FileRef{Servers: uint16(c.g.Servers), StripeUnit: uint32(c.g.StripeUnit), Scheme: scheme}
			if c.g.StripeUnit < 0 {
				ref.StripeUnit = 0 // the wire cannot carry a negative unit
			}
			if _, err := Resolve(ref); (err == nil) != want {
				t.Errorf("%+v as %v: Resolve = %v, want accepted %v", c.g, scheme, err, want)
			}
		}
	}
}

func TestFigure2Layout(t *testing.T) {
	// Figure 2 of the paper: 3 servers; P[0-1] (parity of D0 and D1) is the
	// first block of the redundancy file on server 2.
	g := Geometry{Servers: 3, StripeUnit: 1024}
	if got := g.ServerOf(0); got != 0 {
		t.Errorf("D0 on server %d, want 0", got)
	}
	if got := g.ServerOf(1); got != 1 {
		t.Errorf("D1 on server %d, want 1", got)
	}
	if got := g.ParityServerOf(0); got != 2 {
		t.Errorf("P[0-1] on server %d, want 2", got)
	}
	if got := g.ParityLocalOffset(0); got != 0 {
		t.Errorf("P[0-1] at offset %d, want 0", got)
	}
	first, count := g.DataUnitsOf(0)
	if first != 0 || count != 2 {
		t.Errorf("stripe 0 data units (%d,%d), want (0,2)", first, count)
	}
	// Stripe 1 covers D2 (server 2) and D3 (server 0); parity must be on
	// server 1, the only server holding neither.
	if got := g.ParityServerOf(1); got != 1 {
		t.Errorf("stripe 1 parity on server %d, want 1", got)
	}
}

func TestParityServerHoldsNoData(t *testing.T) {
	for _, n := range []int{3, 4, 5, 6, 7, 8, 13} {
		g := Geometry{Servers: n, StripeUnit: 4096}
		for s := int64(0); s < int64(4*n); s++ {
			p := g.ParityServerOf(s)
			first, count := g.DataUnitsOf(s)
			for j := 0; j < count; j++ {
				if g.ServerOf(first+int64(j)) == p {
					t.Fatalf("n=%d stripe %d: parity server %d also holds data unit %d",
						n, s, p, first+int64(j))
				}
			}
		}
	}
}

func TestParityLocalOffsetsDistinct(t *testing.T) {
	// On any one server, the parity units of all stripes it owns must land
	// on distinct, densely packed local offsets.
	g := Geometry{Servers: 5, StripeUnit: 100}
	seen := map[int]map[int64]int64{} // server -> local offset -> stripe
	for s := int64(0); s < 100; s++ {
		p := g.ParityServerOf(s)
		off := g.ParityLocalOffset(s)
		if seen[p] == nil {
			seen[p] = map[int64]int64{}
		}
		if prev, dup := seen[p][off]; dup {
			t.Fatalf("server %d offset %d assigned to stripes %d and %d", p, off, prev, s)
		}
		seen[p][off] = s
	}
}

func TestToLocalRoundTrip(t *testing.T) {
	g := Geometry{Servers: 4, StripeUnit: 64}
	var covered int64
	for srv := 0; srv < g.Servers; srv++ {
		g.ToLocal(srv, 13, 1000, func(logical, local, n int64) {
			if n <= 0 {
				t.Fatalf("non-positive piece length %d", n)
			}
			if got := g.LocalToLogical(srv, local); got != logical {
				t.Fatalf("srv %d: local %d -> logical %d, want %d", srv, local, got, logical)
			}
			covered += n
		})
	}
	if covered != 1000 {
		t.Fatalf("pieces cover %d bytes, want 1000", covered)
	}
}

func TestToLocalProperty(t *testing.T) {
	// Across all servers, ToLocal partitions the range exactly, each piece
	// maps back via LocalToLogical, and pieces never cross a unit boundary.
	f := func(nSeed uint8, suSeed uint16, offSeed, lenSeed uint32) bool {
		n := int(nSeed%8) + 1
		su := int64(suSeed%512) + 1
		g := Geometry{Servers: n, StripeUnit: su}
		off := int64(offSeed % 100000)
		length := int64(lenSeed % 50000)
		type piece struct{ logical, n int64 }
		var pieces []piece
		for srv := 0; srv < n; srv++ {
			prevEnd := int64(-1)
			g.ToLocal(srv, off, length, func(logical, local, pn int64) {
				if g.LocalToLogical(srv, local) != logical {
					t.Fatalf("round trip failed")
				}
				if g.ServerOf(g.UnitOf(logical)) != srv {
					t.Fatalf("piece on wrong server")
				}
				if g.UnitOf(logical) != g.UnitOf(logical+pn-1) {
					t.Fatalf("piece crosses unit boundary")
				}
				if logical < prevEnd {
					t.Fatalf("pieces out of order on server %d", srv)
				}
				prevEnd = logical + pn
				pieces = append(pieces, piece{logical, pn})
			})
		}
		var total int64
		seen := map[int64]bool{}
		for _, p := range pieces {
			total += p.n
			for b := p.logical; b < p.logical+p.n; b++ {
				if seen[b] {
					return false // overlap
				}
				seen[b] = true
			}
		}
		return total == length
	}
	cfg := &quick.Config{MaxCount: 60, Rand: rand.New(rand.NewSource(1))}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}

func TestDecompose(t *testing.T) {
	g := Geometry{Servers: 5, StripeUnit: 25} // stripe size 100
	cases := []struct {
		off, len         int64
		head, body, tail int64 // lengths
	}{
		{0, 0, 0, 0, 0},
		{0, 100, 0, 100, 0},
		{0, 300, 0, 300, 0},
		{50, 50, 50, 0, 0},     // head fills to stripe end, no full stripe
		{50, 30, 30, 0, 0},     // entirely inside one stripe
		{50, 100, 50, 0, 50},   // straddles boundary, no full stripe
		{50, 150, 50, 100, 0},  // head + one full stripe
		{0, 150, 0, 100, 50},   // full stripe + tail
		{50, 250, 50, 200, 0},  // head + 2 full stripes
		{50, 275, 50, 200, 25}, // head + body + tail
		{100, 100, 0, 100, 0},  // aligned single stripe
		{199, 2, 1, 0, 1},      // one byte each side of a boundary
	}
	for _, c := range cases {
		head, body, tail := g.Decompose(c.off, c.len)
		if head.Len != c.head || body.Len != c.body || tail.Len != c.tail {
			t.Errorf("Decompose(%d,%d) = %d/%d/%d, want %d/%d/%d",
				c.off, c.len, head.Len, body.Len, tail.Len, c.head, c.body, c.tail)
		}
		if c.len > 0 {
			if head.Off != c.off {
				t.Errorf("Decompose(%d,%d): head.Off=%d", c.off, c.len, head.Off)
			}
			if head.End() != body.Off && head.Len > 0 && body.Len > 0 {
				t.Errorf("Decompose(%d,%d): head/body not contiguous", c.off, c.len)
			}
		}
	}
}

func TestDecomposeProperty(t *testing.T) {
	f := func(nSeed uint8, suSeed uint16, offSeed, lenSeed uint32) bool {
		n := int(nSeed%7) + 3
		su := int64(suSeed%200) + 1
		g := Geometry{Servers: n, StripeUnit: su}
		off := int64(offSeed % 1000000)
		length := int64(lenSeed % 500000)
		head, body, tail := g.Decompose(off, length)
		// Contiguity and coverage.
		if head.Len+body.Len+tail.Len != length {
			return false
		}
		if length > 0 {
			if head.Off != off {
				return false
			}
			if head.End() != body.Off || body.End() != tail.Off {
				return false
			}
		}
		// Body is stripe-aligned and an integral number of stripes.
		ss := g.StripeSize()
		if body.Len > 0 && (body.Off%ss != 0 || body.Len%ss != 0) {
			return false
		}
		// Head and tail each lie within a single stripe and are partial.
		for _, s := range []Span{head, tail} {
			if s.Len == 0 {
				continue
			}
			if s.Len >= ss {
				return false
			}
			if g.StripeOf(s.Off) != g.StripeOf(s.End()-1) {
				return false
			}
		}
		// Head must not be a full aligned stripe (that belongs to body).
		if head.Len > 0 && head.Off%ss == 0 && head.Len == ss {
			return false
		}
		return true
	}
	cfg := &quick.Config{MaxCount: 400, Rand: rand.New(rand.NewSource(2))}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}

func TestUnitsAndStripesIn(t *testing.T) {
	g := Geometry{Servers: 4, StripeUnit: 10} // stripe size 30
	cases := []struct {
		size, units, stripes int64
	}{
		{-5, 0, 0},
		{0, 0, 0},
		{1, 1, 1},
		{10, 1, 1},
		{11, 2, 1},
		{30, 3, 1},
		{31, 4, 2},
		{120, 12, 4},
	}
	for _, c := range cases {
		if got := g.UnitsIn(c.size); got != c.units {
			t.Errorf("UnitsIn(%d) = %d, want %d", c.size, got, c.units)
		}
		if got := g.StripesIn(c.size); got != c.stripes {
			t.Errorf("StripesIn(%d) = %d, want %d", c.size, got, c.stripes)
		}
	}
}

func TestMirrorServer(t *testing.T) {
	g := Geometry{Servers: 4, StripeUnit: 10}
	for b := int64(0); b < 16; b++ {
		m := g.MirrorServerOf(b)
		if m == g.ServerOf(b) {
			t.Fatalf("unit %d mirrored onto its own server %d", b, m)
		}
		if m != (int(b)+1)%4 {
			t.Fatalf("unit %d mirror on %d, want %d", b, m, (int(b)+1)%4)
		}
	}
}

// TestMultiParityPlacement checks the Reed-Solomon generalization of the
// parity layout: per stripe, data and parity units together occupy every
// server exactly once; each server holds exactly PU parity units per N
// consecutive stripes; local parity offsets are dense and collision-free
// per server; and the m=1 case reduces to the classic RAID5 placement.
func TestMultiParityPlacement(t *testing.T) {
	for _, n := range []int{4, 5, 6, 8, 9} {
		for _, m := range []int{1, 2, 3} {
			if n < m+2 {
				continue
			}
			g := Geometry{Servers: n, StripeUnit: 10, ParityUnits: m}
			k := g.DataWidth()
			if k != n-m {
				t.Fatalf("n=%d m=%d: DataWidth=%d", n, m, k)
			}
			for s := int64(0); s < int64(4*n); s++ {
				used := make(map[int]bool)
				first, count := g.DataUnitsOf(s)
				for i := 0; i < count; i++ {
					used[g.ServerOf(first+int64(i))] = true
				}
				for j := 0; j < m; j++ {
					ps := g.ParityServerOfUnit(s, j)
					if used[ps] {
						t.Fatalf("n=%d m=%d stripe %d: server %d holds data and parity", n, m, s, ps)
					}
					used[ps] = true
					if jj, ok := g.ParityUnitOn(ps, s); !ok || jj != j {
						t.Fatalf("n=%d m=%d stripe %d: ParityUnitOn(%d) = %d,%v want %d", n, m, s, ps, jj, ok, j)
					}
				}
				if len(used) != n {
					t.Fatalf("n=%d m=%d stripe %d: %d servers used", n, m, s, len(used))
				}
			}
			// Per-server offsets: collision-free, dense in [0, owned*SU).
			for srv := 0; srv < n; srv++ {
				offs := make(map[int64]bool)
				owned := 0
				for s := int64(0); s < int64(3*n); s++ {
					if _, ok := g.ParityUnitOn(srv, s); !ok {
						continue
					}
					owned++
					off := g.ParityLocalOffsetOn(srv, s)
					if offs[off] {
						t.Fatalf("n=%d m=%d srv %d: duplicate parity offset %d", n, m, srv, off)
					}
					offs[off] = true
					if off < 0 || off >= int64(3*n*m)*g.StripeUnit {
						t.Fatalf("n=%d m=%d srv %d: offset %d out of dense range", n, m, srv, off)
					}
				}
				if owned != 3*m {
					t.Fatalf("n=%d m=%d srv %d: owns %d parity units in 3 periods, want %d", n, m, srv, owned, 3*m)
				}
			}
			if m == 1 {
				classic := Geometry{Servers: n, StripeUnit: 10}
				for s := int64(0); s < int64(4*n); s++ {
					if g.ParityServerOfUnit(s, 0) != classic.ParityServerOf(s) {
						t.Fatalf("n=%d stripe %d: m=1 placement differs from classic", n, s)
					}
					if g.ParityLocalOffset(s) != classic.ParityLocalOffset(s) {
						t.Fatalf("n=%d stripe %d: m=1 offset differs from classic", n, s)
					}
				}
			}
		}
	}
}
