package core

import (
	"bytes"
	"math/rand"
	"testing"
	"testing/quick"

	"csar/internal/gf256"
	"csar/internal/raid"
	"csar/internal/wire"
)

func geom() raid.Geometry { return raid.Geometry{Servers: 5, StripeUnit: 25} } // stripe size 100

func modes(p Plan) []PortionMode {
	var out []PortionMode
	for _, pt := range p.Portions {
		out = append(out, pt.Mode)
	}
	return out
}

func TestPlanWriteSchemeSelection(t *testing.T) {
	g := geom()
	cases := []struct {
		scheme   wire.Scheme
		off, len int64
		want     []PortionMode
	}{
		{wire.Raid0, 0, 250, []PortionMode{ModePlain}},
		{wire.Raid1, 0, 250, []PortionMode{ModeMirrored}},
		{wire.Raid5, 0, 200, []PortionMode{ModeFullStripe}},
		{wire.Raid5, 50, 100, []PortionMode{ModeRMW, ModeRMW}},
		{wire.Raid5, 50, 250, []PortionMode{ModeRMW, ModeFullStripe}},
		{wire.Raid5, 0, 150, []PortionMode{ModeFullStripe, ModeRMW}},
		{wire.Raid5, 50, 275, []PortionMode{ModeRMW, ModeFullStripe, ModeRMW}},
		{wire.Hybrid, 0, 200, []PortionMode{ModeFullStripe}},
		{wire.Hybrid, 50, 30, []PortionMode{ModeOverflow}},
		{wire.Hybrid, 50, 275, []PortionMode{ModeOverflow, ModeFullStripe, ModeOverflow}},
		{wire.Raid5NoLock, 50, 30, []PortionMode{ModeRMW}},
		{wire.Raid5NPC, 0, 100, []PortionMode{ModeFullStripe}},
		{wire.Raid0, 0, 0, nil},
	}
	for _, c := range cases {
		got := modes(PlanWrite(g, c.scheme, c.off, c.len))
		if len(got) != len(c.want) {
			t.Errorf("%v write(%d,%d): modes %v, want %v", c.scheme, c.off, c.len, got, c.want)
			continue
		}
		for i := range got {
			if got[i] != c.want[i] {
				t.Errorf("%v write(%d,%d): modes %v, want %v", c.scheme, c.off, c.len, got, c.want)
				break
			}
		}
	}
}

func TestPlanCoversWriteExactly(t *testing.T) {
	f := func(schemeSeed uint8, offSeed, lenSeed uint32) bool {
		g := geom()
		schemes := []wire.Scheme{wire.Raid0, wire.Raid1, wire.Raid5, wire.Hybrid}
		scheme := schemes[int(schemeSeed)%len(schemes)]
		off := int64(offSeed % 10000)
		length := int64(lenSeed % 5000)
		p := PlanWrite(g, scheme, off, length)
		var total int64
		cur := off
		for _, pt := range p.Portions {
			if pt.Span.Off != cur || pt.Span.Len <= 0 || pt.Mode == ModeNone {
				return false
			}
			cur = pt.Span.End()
			total += pt.Span.Len
		}
		return total == length
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestHybridNeverRMWs(t *testing.T) {
	f := func(offSeed, lenSeed uint32) bool {
		g := geom()
		p := PlanWrite(g, wire.Hybrid, int64(offSeed%10000), int64(lenSeed%5000))
		for _, pt := range p.Portions {
			if pt.Mode == ModeRMW {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// codeOf returns the RS(k, m) code of a geometry's stripe shape.
func codeOf(t testing.TB, g raid.Geometry) *gf256.RS {
	t.Helper()
	code, err := gf256.NewRS(g.DataWidth(), g.PU())
	if err != nil {
		t.Fatal(err)
	}
	return code
}

// parityBufs returns m zeroed parity-unit buffers.
func parityBufs(g raid.Geometry) [][]byte {
	out := make([][]byte, g.PU())
	for j := range out {
		out[j] = make([]byte, g.StripeUnit)
	}
	return out
}

// geomRS is geom's file with two parity units: RS(3,2), stripe size 75.
func geomRS() raid.Geometry { return raid.Geometry{Servers: 5, StripeUnit: 25, ParityUnits: 2} }

func TestStripeParity(t *testing.T) {
	g := geom()
	r := rand.New(rand.NewSource(7))
	data := make([]byte, g.StripeSize())
	r.Read(data)
	parity := parityBufs(g)
	StripeParity(g, codeOf(t, g), data, parity)
	// Single parity is RAID5's: XOR of all units and parity must be zero.
	acc := make([]byte, g.StripeUnit)
	copy(acc, parity[0])
	for u := 0; u < g.DataWidth(); u++ {
		raid.XORInto(acc, data[int64(u)*g.StripeUnit:int64(u+1)*g.StripeUnit])
	}
	for _, v := range acc {
		if v != 0 {
			t.Fatal("parity invariant violated")
		}
	}
	// Unit 0 of a multi-parity stripe over the same data units is that XOR too.
	rs := geomRS()
	two := parityBufs(rs)
	StripeParity(rs, codeOf(t, rs), data[:rs.StripeSize()], two)
	raid.Parity(acc, data[0:25], data[25:50], data[50:75])
	if !bytes.Equal(two[0], acc) {
		t.Fatal("parity unit 0 of RS(3,2) is not the XOR of its data units")
	}
}

func TestStripeParityPanicsOnBadSizes(t *testing.T) {
	g := geom()
	code := codeOf(t, g)
	for _, fn := range []func(){
		func() { StripeParity(g, code, make([]byte, 10), parityBufs(g)) },
		func() { StripeParity(g, code, make([]byte, g.StripeSize()), parityBufs(geomRS())) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatal("expected panic")
				}
			}()
			fn()
		}()
	}
}

func TestApplyParityDeltaMatchesRecompute(t *testing.T) {
	// Updating a random in-stripe range via the delta must give the same
	// parity as recomputing from the updated stripe contents — for the one
	// XOR unit of RAID5 and for every coefficient row of RS(3,2).
	for _, g := range []raid.Geometry{geom(), geomRS()} {
		code := codeOf(t, g)
		f := func(seed int64, offSeed, lenSeed uint16) bool {
			r := rand.New(rand.NewSource(seed))
			ss := g.StripeSize()
			stripeIdx := int64(3)
			base := g.StripeStart(stripeIdx)

			data := make([]byte, ss)
			r.Read(data)
			parity := parityBufs(g)
			StripeParity(g, code, data, parity)

			off := int64(offSeed) % ss
			maxLen := ss - off
			length := int64(lenSeed)%maxLen + 1

			oldD := append([]byte(nil), data[off:off+length]...)
			newD := make([]byte, length)
			r.Read(newD)

			for j := range parity {
				ApplyParityDelta(g, code, j, base+off, oldD, newD, parity[j])
			}
			copy(data[off:], newD)

			want := parityBufs(g)
			StripeParity(g, code, data, want)
			for j := range parity {
				if !bytes.Equal(parity[j], want[j]) {
					return false
				}
			}
			return true
		}
		if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
			t.Fatal(err)
		}
	}
}

func TestApplyParityDeltaRejectsCrossStripe(t *testing.T) {
	g := geom()
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on cross-stripe range")
		}
	}()
	ApplyParityDelta(g, codeOf(t, g), 0, 90, make([]byte, 20), make([]byte, 20), make([]byte, g.StripeUnit))
}

func TestPartialStripes(t *testing.T) {
	g := geom()
	cases := []struct {
		off, len int64
		want     []int64
	}{
		{0, 100, nil},
		{50, 30, []int64{0}},
		{50, 100, []int64{0, 1}},
		{50, 275, []int64{0, 3}},
		{0, 150, []int64{1}},
	}
	for _, c := range cases {
		got := PartialStripes(g, c.off, c.len)
		if len(got) != len(c.want) {
			t.Errorf("PartialStripes(%d,%d)=%v want %v", c.off, c.len, got, c.want)
			continue
		}
		for i := range got {
			if got[i] != c.want[i] {
				t.Errorf("PartialStripes(%d,%d)=%v want %v", c.off, c.len, got, c.want)
			}
		}
		// Always ascending (deadlock-avoidance order).
		for i := 1; i < len(got); i++ {
			if got[i] <= got[i-1] {
				t.Errorf("PartialStripes(%d,%d) not ascending: %v", c.off, c.len, got)
			}
		}
	}
}

func TestPortionModeString(t *testing.T) {
	for m := ModeNone; m <= ModePlain; m++ {
		if m.String() == "" {
			t.Fatalf("mode %d has empty String", m)
		}
	}
	if PortionMode(99).String() == "" {
		t.Fatal("unknown mode has empty String")
	}
}
