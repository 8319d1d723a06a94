package cluster

import (
	"slices"
	"testing"

	"csar/internal/client"
	"csar/internal/wire"
)

// TestDirtyDamage pins what a degraded write records as damage on the dead
// server — the code groups in which its member went stale (a data unit the
// write covers, a copy it keeps, a parity unit it holds) and its overflow
// stores — read back from the dirty log on both of the dead server's
// replicas. The layouts, on 64-byte units (256-byte stripes for every
// parity shape here):
//
//	raid1, 5 servers: group b is unit b on server b mod 5 and its copy on
//	  (b+1) mod 5
//	raid5 and hybrid, 5 servers: group s is stripe s — units 4s..4s+3 on
//	  servers (4s+i) mod 5 and its parity on (4s+4) mod 5 — stripe 0 on 0-3
//	  and 4, stripe 1 on 4, 0, 1, 2 and 3, stripe 2 on 3, 4, 0, 1 and 2
//	rs(4,2), 6 servers: stripe s's parity unit j on (4s+4+j) mod 6 — stripe
//	  0's data on 0-3, its parity units on 4 and 5; stripe 2's data on 2-5
func TestDirtyDamage(t *testing.T) {
	type write struct{ off, n int64 }
	for _, tc := range []struct {
		name     string
		scheme   wire.Scheme
		servers  int
		parity   int
		dead     int
		writes   []write
		groups   []int64
		overflow bool
	}{
		// Units 1 and 2: unit 2 is the dead server's own, unit 1's copy is on it.
		{name: "raid1-unit-and-copy", scheme: wire.Raid1, servers: 5, dead: 2,
			writes: []write{{100, 50}}, groups: []int64{1, 2}},
		// Units 0-5: server 0 holds units 0 and 5 and unit 4's copy.
		{name: "raid1-several-units", scheme: wire.Raid1, servers: 5, dead: 0,
			writes: []write{{0, 384}}, groups: []int64{0, 4, 5}},
		// An RMW inside unit 2, then full stripes 1 and 2: unit 2 of stripe
		// 0, unit 7 of stripe 1 and stripe 2's parity are on server 2.
		{name: "raid5-rmw-and-full-stripes", scheme: wire.Raid5, servers: 5, dead: 2,
			writes: []write{{130, 10}, {256, 512}}, groups: []int64{0, 1, 2}},
		// A straddling RMW: unit 3 of stripe 0 and stripe 1's parity.
		{name: "raid5-straddling-rmw", scheme: wire.Raid5, servers: 5, dead: 3,
			writes: []write{{200, 100}}, groups: []int64{0, 1}},
		// An RMW of unit 1 touches nothing server 2 stores.
		{name: "raid5-untouched", scheme: wire.Raid5, servers: 5, dead: 2,
			writes: []write{{70, 10}}},
		// Parity unit j = 1 of stripe 0 is on server 5, as is unit 11 of
		// full stripe 2.
		{name: "rs42-parity-unit-1", scheme: wire.ReedSolomon, servers: 6, parity: 2, dead: 5,
			writes: []write{{70, 10}, {512, 256}}, groups: []int64{0, 2}},
		// Unit 1's overflow copy is on server 2.
		{name: "hybrid-overflow-copy", scheme: wire.Hybrid, servers: 5, dead: 2,
			writes: []write{{70, 10}}, overflow: true},
		// Unit 1's overflow is on server 1 and its copy on 2: server 4 keeps
		// neither.
		{name: "hybrid-overflow-elsewhere", scheme: wire.Hybrid, servers: 5, dead: 4,
			writes: []write{{70, 10}}},
		// A full stripe: unit 0, and the overflow invalidation server 0 missed.
		{name: "hybrid-full-stripe", scheme: wire.Hybrid, servers: 5, dead: 0,
			writes: []write{{0, 256}}, groups: []int64{0}, overflow: true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			c := newCluster(t, tc.servers)
			cl := c.NewClient()
			f, err := cl.CreateParity("f", tc.servers, 64, tc.scheme, tc.parity)
			must(t, err)
			mustWrite(t, f, pattern(1024, 1), 0)
			c.StopServer(tc.dead)
			cl.MarkDown(tc.dead)
			for i, w := range tc.writes {
				mustWrite(t, f, pattern(int(w.n), byte(2+i)), w.off)
			}
			for _, r := range client.DirtyReplicas(tc.servers, tc.dead) {
				resp, err := c.Server(r).Handle(&wire.DirtyDump{File: f.Ref(), Dead: uint16(tc.dead)})
				must(t, err)
				d := resp.(*wire.DirtyDumpResp)
				var groups []int64
				for _, it := range d.Groups {
					groups = append(groups, it.Group)
				}
				if !slices.Equal(groups, tc.groups) {
					t.Errorf("replica %d: groups %v, want %v", r, groups, tc.groups)
				}
				if d.Overflow != tc.overflow {
					t.Errorf("replica %d: overflow %v, want %v", r, d.Overflow, tc.overflow)
				}
			}
		})
	}
}
