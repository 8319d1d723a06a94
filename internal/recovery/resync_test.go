package recovery

import (
	"slices"
	"testing"

	"csar/internal/raid"
	"csar/internal/wire"
)

// TestResyncMergeItems pins the replay order: two replicas' dumps with
// overlapping groups merge into one ascending list of distinct groups, and
// each group's replay ends the cursor at the group's end l.UnitStart((g+1)*k)
// — for a parity layout the stripe's end whichever member the dead server
// holds, for a mirror the unit's. The units are 64 bytes: a stripe of
// RAID5, Hybrid or RS(4,2) here is 256 bytes.
func TestResyncMergeItems(t *testing.T) {
	groups := func(gs ...int64) []wire.DirtyItem {
		var out []wire.DirtyItem
		for i, g := range gs {
			out = append(out, wire.DirtyItem{Group: g, Gen: uint64(i + 1)})
		}
		return out
	}
	for _, tc := range []struct {
		name     string
		ref      wire.FileRef
		a, b     *wire.DirtyDumpResp
		want     []resyncItem
		overflow bool
	}{
		{"raid1", wire.FileRef{Servers: 5, StripeUnit: 64, Scheme: wire.Raid1},
			&wire.DirtyDumpResp{Epochs: []uint64{9}, Groups: groups(1, 2, 5)},
			&wire.DirtyDumpResp{Epochs: []uint64{9}, Groups: groups(2, 5, 7)},
			[]resyncItem{{1, 128}, {2, 192}, {5, 384}, {7, 512}}, false},
		// Group 0 is a data unit's (unit 2 on server 2), group 2 a parity
		// unit's: both end at their stripe's end.
		{"raid5", wire.FileRef{Servers: 5, StripeUnit: 64, Scheme: wire.Raid5},
			&wire.DirtyDumpResp{Epochs: []uint64{9}, Groups: groups(0, 2)},
			&wire.DirtyDumpResp{Epochs: []uint64{9}, Groups: groups(0, 1)},
			[]resyncItem{{0, 256}, {1, 512}, {2, 768}}, false},
		{"rs42", wire.FileRef{Servers: 6, StripeUnit: 64, Scheme: wire.ReedSolomon, Parity: 2},
			&wire.DirtyDumpResp{Epochs: []uint64{9}, Groups: groups(3, 8)},
			&wire.DirtyDumpResp{Epochs: []uint64{9}, Groups: groups(0, 3)},
			[]resyncItem{{0, 256}, {3, 1024}, {8, 2304}}, false},
		{"hybrid", wire.FileRef{Servers: 5, StripeUnit: 64, Scheme: wire.Hybrid},
			&wire.DirtyDumpResp{Epochs: []uint64{9}, Groups: groups(4), Overflow: true},
			&wire.DirtyDumpResp{Epochs: []uint64{9}, Groups: groups(1, 4)},
			[]resyncItem{{1, 512}, {4, 1280}}, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			l, err := raid.Resolve(tc.ref)
			if err != nil {
				t.Fatal(err)
			}
			items, overflow := mergeItems(l, []*wire.DirtyDumpResp{tc.a, tc.b})
			if !slices.Equal(items, tc.want) || overflow != tc.overflow {
				t.Fatalf("merged %v overflow %v, want %v overflow %v", items, overflow, tc.want, tc.overflow)
			}
			k, _ := l.GroupSize()
			for _, it := range items {
				if end := l.UnitStart((it.group + 1) * int64(k)); it.end != end {
					t.Fatalf("group %d ends at %d, want the group's end %d", it.group, it.end, end)
				}
			}
		})
	}
}
