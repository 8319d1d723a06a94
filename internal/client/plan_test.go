package client

import (
	"slices"
	"testing"
	"testing/quick"

	"csar/internal/raid"
	"csar/internal/wire"
)

// layoutOf resolves scheme's layout on five servers of 25-byte units: a
// 100-byte stripe for the parity shapes.
func layoutOf(t testing.TB, scheme wire.Scheme) raid.Layout {
	l, err := raid.Resolve(wire.FileRef{Servers: 5, StripeUnit: 25, Scheme: scheme})
	if err != nil {
		t.Fatal(err)
	}
	return l
}

func modes(plan []portion) []writeMode {
	var out []writeMode
	for _, pt := range plan {
		out = append(out, pt.mode)
	}
	return out
}

func TestPlanWriteSchemeSelection(t *testing.T) {
	cases := []struct {
		scheme   wire.Scheme
		off, len int64
		want     []writeMode
	}{
		{wire.Raid0, 0, 250, []writeMode{modeEncode}},
		{wire.Raid1, 0, 250, []writeMode{modeEncode}},
		{wire.Raid1, 10, 30, []writeMode{modeEncode}},
		{wire.Raid5, 0, 200, []writeMode{modeEncode}},
		{wire.Raid5, 50, 100, []writeMode{modeRMW, modeRMW}},
		{wire.Raid5, 50, 250, []writeMode{modeRMW, modeEncode}},
		{wire.Raid5, 0, 150, []writeMode{modeEncode, modeRMW}},
		{wire.Raid5, 50, 275, []writeMode{modeRMW, modeEncode, modeRMW}},
		{wire.Hybrid, 0, 200, []writeMode{modeEncode}},
		{wire.Hybrid, 50, 30, []writeMode{modeOverflow}},
		{wire.Hybrid, 50, 275, []writeMode{modeOverflow, modeEncode, modeOverflow}},
		{wire.Raid5, 50, 30, []writeMode{modeRMW}},
		{wire.Raid5, 0, 100, []writeMode{modeEncode}},
		{wire.Raid0, 0, 0, nil},
	}
	for _, c := range cases {
		if got := modes(planWrite(layoutOf(t, c.scheme), c.off, c.len)); !slices.Equal(got, c.want) {
			t.Errorf("%v write(%d,%d): modes %v, want %v", c.scheme, c.off, c.len, got, c.want)
		}
	}
}

func TestPlanCoversWriteExactly(t *testing.T) {
	schemes := []wire.Scheme{wire.Raid0, wire.Raid1, wire.Raid5, wire.Hybrid}
	f := func(schemeSeed uint8, offSeed, lenSeed uint32) bool {
		l := layoutOf(t, schemes[int(schemeSeed)%len(schemes)])
		off := int64(offSeed % 10000)
		length := int64(lenSeed % 5000)
		var total int64
		cur := off
		for _, pt := range planWrite(l, off, length) {
			if pt.span.Off != cur || pt.span.Len <= 0 {
				return false
			}
			// An encode portion writes whole groups of a parity layout.
			if pt.mode == modeEncode && l.Parity > 0 && (pt.span.Off%l.StripeSize() != 0 || pt.span.Len%l.StripeSize() != 0) {
				return false
			}
			cur = pt.span.End()
			total += pt.span.Len
		}
		return total == length
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestHybridNeverRMWs(t *testing.T) {
	hybrid := layoutOf(t, wire.Hybrid)
	f := func(offSeed, lenSeed uint32) bool {
		return !slices.Contains(modes(planWrite(hybrid, int64(offSeed%10000), int64(lenSeed%5000))), modeRMW)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}
