package raid

import (
	"testing"

	"csar/internal/wire"
)

// TestResolveShapes is the table of what each scheme name means for a
// layout. It walks the names in scheme-value order, checks that RAID5 and RS
// with one parity unit resolve to the same layout, that the retired values 4
// and 5 and unknown ones are refused, the geometry rules every site now
// shares, and that resolving an accepted ref allocates nothing.
func TestResolveShapes(t *testing.T) {
	want := map[string]Shape{
		"raid0":  {},
		"raid1":  {Mirror: true},
		"raid5":  {Parity: 1},
		"hybrid": {Parity: 1, Overflow: true},
		"rs":     {Parity: 2}, // the default parity count
	}
	names := wire.SchemeNames()
	if len(names) != len(want) {
		t.Fatalf("SchemeNames = %v, want the %d names of the table", names, len(want))
	}
	prev := -1
	for _, name := range names {
		s, err := wire.ParseScheme(name)
		if err != nil || int(s) <= prev {
			t.Fatalf("%q parses to %v (%v); names out of value order", name, s, err)
		}
		prev = int(s)
		l, err := Resolve(WithDefaultParity(wire.FileRef{Servers: 6, StripeUnit: 64, Scheme: s}))
		if err != nil || l.Shape != want[name] {
			t.Errorf("%s resolves to %+v (%v), want %+v", name, l.Shape, err, want[name])
		}
		if l.Parity > 0 && l.PU() != l.Parity {
			t.Errorf("%s: geometry has %d parity units, shape %d", name, l.PU(), l.Parity)
		}
	}

	raid5, err5 := Resolve(wire.FileRef{Servers: 5, StripeUnit: 64, Scheme: wire.Raid5})
	rs1, err1 := Resolve(wire.FileRef{Servers: 5, StripeUnit: 64, Scheme: wire.ReedSolomon, Parity: 1})
	if err5 != nil || err1 != nil || raid5 != rs1 {
		t.Errorf("raid5 resolves to %+v (%v), rs with m=1 to %+v (%v)", raid5, err5, rs1, err1)
	}

	for _, tc := range []struct {
		ref wire.FileRef
		ok  bool
	}{
		{wire.FileRef{Servers: 5, StripeUnit: 64, Scheme: 4}, false}, // retired: raid5-nolock
		{wire.FileRef{Servers: 5, StripeUnit: 64, Scheme: 5}, false}, // retired: raid5-npc
		{wire.FileRef{Servers: 5, StripeUnit: 64, Scheme: 7}, false},
		{wire.FileRef{Servers: 5, StripeUnit: 64, Scheme: 200}, false},
		{wire.FileRef{Servers: 1, StripeUnit: 64, Scheme: wire.Raid0}, true},
		{wire.FileRef{Servers: 0, StripeUnit: 64, Scheme: wire.Raid0}, false},
		{wire.FileRef{Servers: 3, StripeUnit: 0, Scheme: wire.Raid5}, false},
		{wire.FileRef{Servers: 1, StripeUnit: 64, Scheme: wire.Raid1}, false},
		{wire.FileRef{Servers: 2, StripeUnit: 64, Scheme: wire.Raid1}, true},
		{wire.FileRef{Servers: 2, StripeUnit: 64, Scheme: wire.Raid5}, false},
		{wire.FileRef{Servers: 3, StripeUnit: 64, Scheme: wire.Raid5}, true},
		{wire.FileRef{Servers: 2, StripeUnit: 64, Scheme: wire.Hybrid}, false},
		{wire.FileRef{Servers: 3, StripeUnit: 64, Scheme: wire.Hybrid}, true},
		{wire.FileRef{Servers: 5, StripeUnit: 64, Scheme: wire.Raid5, Parity: 1}, false},
		{wire.FileRef{Servers: 5, StripeUnit: 64, Scheme: wire.Raid0, Parity: 2}, false},
		{wire.FileRef{Servers: 5, StripeUnit: 64, Scheme: wire.ReedSolomon}, false},
		{wire.FileRef{Servers: 3, StripeUnit: 64, Scheme: wire.ReedSolomon, Parity: 2}, false},
		{wire.FileRef{Servers: 4, StripeUnit: 64, Scheme: wire.ReedSolomon, Parity: 2}, true},
		{wire.FileRef{Servers: 256, StripeUnit: 64, Scheme: wire.ReedSolomon, Parity: 3}, true},
		{wire.FileRef{Servers: 257, StripeUnit: 64, Scheme: wire.ReedSolomon, Parity: 3}, false},
		{wire.FileRef{Servers: 257, StripeUnit: 64, Scheme: wire.Raid1}, true},
	} {
		if _, err := Resolve(tc.ref); (err == nil) != tc.ok {
			t.Errorf("Resolve(%+v) = %v, want accepted %v", tc.ref, err, tc.ok)
		}
	}

	ref := wire.FileRef{ID: 7, Servers: 6, StripeUnit: 64 << 10, Scheme: wire.ReedSolomon, Parity: 2}
	if n := testing.AllocsPerRun(100, func() { Resolve(ref) }); n != 0 { //nolint:errcheck
		t.Errorf("Resolve allocates %.0f times per call", n)
	}
}

// TestCodeGroups holds the layout's group view to the geometry it is read
// from, by brute force for every shape: every data unit is the data member
// its group says it is, a group's members sit on distinct servers — a
// stripe's parity units where ParityServerOfUnit puts them, a unit's copy on
// MirrorServerOf — MemberHeldBy inverts GroupMember, and GroupsHeldBy lists
// each group a server holds a member of exactly once, in its documented
// order.
func TestCodeGroups(t *testing.T) {
	for _, ref := range []wire.FileRef{
		{Servers: 3, Scheme: wire.Raid0},
		{Servers: 2, Scheme: wire.Raid1},
		{Servers: 5, Scheme: wire.Raid1},
		{Servers: 5, Scheme: wire.Raid5},
		{Servers: 3, Scheme: wire.Hybrid},
		{Servers: 6, Scheme: wire.ReedSolomon, Parity: 2},
		{Servers: 8, Scheme: wire.ReedSolomon, Parity: 3},
	} {
		ref.StripeUnit = 8
		l, err := Resolve(ref)
		if err != nil {
			t.Fatal(err)
		}
		k, r := l.GroupSize()
		if r != l.Tolerates() {
			t.Errorf("%v: %d redundancy members, tolerates %d", ref.Scheme, r, l.Tolerates())
		}
		size := 3*l.StripeSize() + 5
		groups := l.UnitsIn(size)
		if l.Parity > 0 {
			groups = l.StripesIn(size)
		}
		for b := range l.UnitsIn(size) {
			g, i := l.GroupOf(b)
			if want := (Member{l.ServerOf(b), DataStore, b}); i >= k || l.GroupMember(g, i) != want {
				t.Fatalf("%v: unit %d is member %d of group %d, at %+v", ref.Scheme, b, i, g, l.GroupMember(g, i))
			}
		}
		for g := range groups {
			held := map[int]int{}
			for i := range k + r {
				m := l.GroupMember(g, i)
				switch {
				case i < k:
				case l.Parity > 0:
					if m != (Member{Server: l.ParityServerOfUnit(g, i-k), Store: ParityStore}) {
						t.Fatalf("%v: group %d member %d at %+v", ref.Scheme, g, i, m)
					}
				case m != (Member{l.MirrorServerOf(g), MirrorStore, g}):
					t.Fatalf("%v: group %d member %d at %+v", ref.Scheme, g, i, m)
				}
				if _, dup := held[m.Server]; dup {
					t.Fatalf("%v: group %d has two members on server %d", ref.Scheme, g, m.Server)
				}
				held[m.Server] = i
			}
			for srv := range l.Servers {
				i, ok := l.MemberHeldBy(srv, g)
				if want, wantOK := held[srv]; ok != wantOK || i != want {
					t.Fatalf("%v: MemberHeldBy(%d, %d) = %d, %v; want %d, %v", ref.Scheme, srv, g, i, ok, want, wantOK)
				}
			}
		}
		for srv := range l.Servers {
			seen := map[int64]bool{}
			var prev [2]int64 // the last (member, group) listed
			for n, g := range l.GroupsHeldBy(srv, size) {
				i, ok := l.MemberHeldBy(srv, g)
				cur := [2]int64{int64(i), g}
				if l.Parity > 0 {
					cur[0] = 0 // stripe order
				}
				if !ok || g >= groups || seen[g] || (n > 0 && (cur[0] < prev[0] || cur[0] == prev[0] && g <= prev[1])) {
					t.Fatalf("%v: server %d lists group %d (member %d, %v) out of order or twice", ref.Scheme, srv, g, i, ok)
				}
				seen[g], prev = true, cur
			}
			for g := range groups {
				if _, ok := l.MemberHeldBy(srv, g); ok != seen[g] {
					t.Fatalf("%v: server %d holds a member of group %d: %v, listed: %v", ref.Scheme, srv, g, ok, seen[g])
				}
			}
		}
	}
}
