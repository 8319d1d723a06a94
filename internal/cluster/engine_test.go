package cluster

import (
	"bytes"
	"errors"
	"fmt"
	"maps"
	"math/rand"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"csar/internal/client"
	"csar/internal/recovery"
	"csar/internal/rpc"
	"csar/internal/scrub"
	"csar/internal/wire"
)

// This file pins the one parity engine: RAID5, Hybrid and Reed-Solomon run
// the same write, read-modify-write, degraded-read, rebuild, verify, replay
// and scrub code, parameterised by the stripe's RS(k, m) code. The
// differential test holds RAID5 to RS(k, 1) byte for byte and request for
// request; the golden table holds every scheme's request shapes to what the
// twin implementations issued before they were merged.

// rpcCounter counts the requests of the clients it attaches that reach a
// live server, by label: the request's kind and, for a member read or write
// of any store but the data store, that store ("read/parity"); a write of
// several parts names each part's store ("write_data/overflow+ovmirror").
type rpcCounter struct {
	mu sync.Mutex
	n  map[string]int64
}

// storeLabels names the stores in rpcCounter's labels.
var storeLabels = [wire.NumStores]string{"data", "mirror", "parity", "overflow", "ovmirror"}

// client attaches a client to c whose requests rc counts.
func (rc *rpcCounter) client(c *Cluster) *client.Client {
	return c.clientWrapping(func(_ int, h rpc.Handler) rpc.Handler {
		return func(m wire.Msg) (wire.Msg, error) {
			resp, err := h(m)
			if errors.Is(err, ErrServerDown) {
				return resp, err
			}
			label, store := m.Kind().String(), wire.StoreData
			var more []wire.Part
			switch m := m.(type) {
			case *wire.Read:
				store = m.Store
			case *wire.WriteData:
				store, more = m.Store, m.More
			}
			if store != wire.StoreData {
				label += "/" + storeLabels[store]
			}
			for _, pt := range more {
				label += "+" + storeLabels[pt.Store]
			}
			rc.mu.Lock()
			if rc.n == nil {
				rc.n = make(map[string]int64)
			}
			rc.n[label]++
			rc.mu.Unlock()
			return resp, err
		}
	})
}

// count runs op and returns the requests it cost, as "label=n" pairs sorted
// by label — the shape the golden table below is written in.
func (rc *rpcCounter) count(op func()) string {
	rc.mu.Lock()
	before := maps.Clone(rc.n)
	rc.mu.Unlock()
	op()
	rc.mu.Lock()
	defer rc.mu.Unlock()
	var parts []string
	for label, n := range rc.n {
		if d := n - before[label]; d != 0 {
			parts = append(parts, fmt.Sprintf("%s=%d", label, d))
		}
	}
	sort.Strings(parts)
	return strings.Join(parts, " ")
}

func must(t *testing.T, err error) {
	t.Helper()
	if err != nil {
		t.Fatal(err)
	}
}

// storeBytes returns the first n bytes of one of a file's local stores on
// server srv, straight off the simulated disk.
func storeBytes(c *Cluster, srv int, ref wire.FileRef, suffix string, n int) []byte {
	b := make([]byte, n)
	c.ServerDisk(srv).Open(storeName(ref, suffix)).ReadAt(b, 0) //nolint:errcheck // zero-fill semantics
	return b
}

// enginePair drives one op list against a RAID5 file and an RS(k, 1) file on
// two identical clusters.
type enginePair struct {
	t    *testing.T
	c    [2]*Cluster
	rc   [2]rpcCounter
	cl   [2]*client.Client
	f    [2]*client.File
	ref  []byte // the logical contents both files must hold
	size int    // bytes of each local store compared
}

// step runs op against both files and requires it to cost both clusters the
// same requests and leave every server's data and parity stores identical.
func (p *enginePair) step(name string, op func(c *Cluster, cl *client.Client, f *client.File)) {
	p.t.Helper()
	var cost [2]string
	for i := range p.c {
		cost[i] = p.rc[i].count(func() { op(p.c[i], p.cl[i], p.f[i]) })
	}
	if cost[0] != cost[1] {
		p.t.Fatalf("%s: raid5 cost [%s], rs(k,1) cost [%s]", name, cost[0], cost[1])
	}
	for srv := 0; srv < p.c[0].Servers(); srv++ {
		for _, store := range []string{"data", "parity"} {
			a := storeBytes(p.c[0], srv, p.f[0].Ref(), store, p.size)
			b := storeBytes(p.c[1], srv, p.f[1].Ref(), store, p.size)
			if !bytes.Equal(a, b) {
				p.t.Fatalf("%s: server %d %s store differs between raid5 and rs(k,1)", name, srv, store)
			}
		}
	}
}

// readBack requires both files to read back as ref.
func (p *enginePair) readBack(name string) {
	p.t.Helper()
	p.step(name, func(_ *Cluster, _ *client.Client, f *client.File) {
		got := make([]byte, len(p.ref))
		if _, err := f.ReadAt(got, 0); err != nil {
			p.t.Fatalf("%s: %v read: %v", name, f.Scheme(), err)
		}
		if !bytes.Equal(got, p.ref) {
			p.t.Fatalf("%s: %v read-back differs from the reference", name, f.Scheme())
		}
	})
}

func (p *enginePair) write(name string, data []byte, off int64) {
	p.t.Helper()
	copy(p.ref[off:], data)
	p.step(name, func(_ *Cluster, _ *client.Client, f *client.File) {
		if _, err := f.WriteAt(data, off); err != nil {
			p.t.Fatalf("%s: %v write: %v", name, f.Scheme(), err)
		}
	})
}

// TestParityEngineOneParityRSIsRaid5 is the differential property behind the
// merged engine: a RAID5 file and a Reed-Solomon file with one parity unit
// are the same file. For random geometries it drives aligned and unaligned
// writes, a degraded write and read, a rebuild, an RMW crash with intent
// replay and a scrub over a flipped data byte and a flipped parity byte
// through both, and requires identical stores, read-backs and request counts
// after every step.
func TestParityEngineOneParityRSIsRaid5(t *testing.T) {
	for seed := int64(0); seed < 6; seed++ {
		r := rand.New(rand.NewSource(seed))
		n := 3 + r.Intn(5)
		su := int64(16 + r.Intn(81))
		p := &enginePair{t: t}
		for i, tc := range []struct {
			scheme wire.Scheme
			parity int
		}{{wire.Raid5, 0}, {wire.ReedSolomon, 1}} {
			p.c[i] = newCluster(t, n)
			p.cl[i] = p.rc[i].client(p.c[i])
			f, err := p.cl[i].CreateParity("f", n, su, tc.scheme, tc.parity)
			must(t, err)
			p.f[i] = f
		}
		g := p.f[0].Geometry()
		ss := g.StripeSize()
		const stripes = 6
		p.ref = make([]byte, stripes*ss)
		p.size = int(2 * stripes * su)
		randBytes := func(n int64) []byte {
			b := make([]byte, n)
			r.Read(b)
			return b
		}
		span := func() (off, length int64) { // a random unaligned extent
			off = r.Int63n(int64(len(p.ref)) - 1)
			return off, 1 + r.Int63n(min(int64(len(p.ref))-off, 2*ss))
		}
		name := func(s string) string { return fmt.Sprintf("seed %d (n=%d su=%d) %s", seed, n, su, s) }

		p.write(name("full-stripe fill"), randBytes(int64(len(p.ref))), 0)
		p.write(name("aligned overwrite"), randBytes(2*ss), ss)
		for i := 0; i < 6; i++ {
			off, length := span()
			p.write(name(fmt.Sprintf("unaligned write %d", i)), randBytes(length), off)
		}
		p.readBack(name("healthy read"))

		dead := r.Intn(n)
		p.step(name("fail a server"), func(c *Cluster, cl *client.Client, _ *client.File) {
			c.StopServer(dead)
			cl.MarkDown(dead)
		})
		for i := 0; i < 3; i++ {
			off, length := span()
			p.write(name(fmt.Sprintf("degraded write %d", i)), randBytes(length), off)
		}
		p.readBack(name("degraded read"))
		for _, c := range p.c {
			c.ReplaceServer(dead) // a blank server, its request counters included
		}
		p.step(name("rebuild"), func(_ *Cluster, cl *client.Client, f *client.File) {
			must(t, recovery.Rebuild(cl, f, dead))
			cl.MarkUp(dead)
		})
		p.readBack(name("read after rebuild"))

		// An RMW whose parity write never lands: the data is in place, the
		// intent is open, the parity server crashes and restarts, and replay
		// re-encodes the stripe's parity from its data.
		off, length := span()
		length = min(length, (g.StripeOf(off)+1)*ss-off) // one stripe
		if off%ss == 0 && length == ss {
			length-- // and not all of it
		}
		torn := randBytes(length)
		copy(p.ref[off:], torn)
		ps := g.ParityServerOf(g.StripeOf(off))
		p.step(name("crashed RMW + replay"), func(c *Cluster, cl *client.Client, f *client.File) {
			// The earlier writes' intents are retired first: a pending one
			// would come back abandoned from the crash, and be replayed too.
			cl.FlushRetires()
			pol := testPolicy()
			pol.LockLease = 10 * time.Second // its heartbeat does not tick within this step
			cl.SetPolicy(pol)
			fwp := c.Inject(FaultPoint{Server: ps, Kind: wire.KWriteParity, Action: FaultDrop})
			ful := c.Inject(FaultPoint{Server: ps, Kind: wire.KUnlockParity, Action: FaultDrop})
			if _, err := f.WriteAt(torn, off); err == nil {
				t.Fatalf("%s: RMW succeeded despite its dropped parity write", name(""))
			}
			<-ful.Triggered() // the client's compensating release was lost too
			c.CrashServer(ps)
			fwp.Release()
			ful.Release()
			c.RestartServer(ps)
			rep, err := recovery.ReplayIntents(cl, f)
			must(t, err)
			if rep.Replayed != 1 {
				t.Fatalf("%s: replay report %+v, want one intent replayed", name(""), rep)
			}
			cl.SetPolicy(client.Policy{})
		})
		p.readBack(name("read after replay"))

		// Silent corruption: one data byte (which, with no journal evidence,
		// the scrub keeps and re-encodes parity around) and one parity byte
		// of another stripe (which it regenerates).
		bad := r.Int63n(int64(len(p.ref)))
		p.ref[bad] ^= 0xFF
		unit := g.UnitOf(bad)
		otherStripe := (g.StripeOf(bad) + 1) % stripes
		p.step(name("scrub"), func(c *Cluster, cl *client.Client, f *client.File) {
			flipByte(t, c, g.ServerOf(unit), storeName(f.Ref(), "data"), g.LocalOffset(unit)+bad%su)
			flipByte(t, c, g.ParityServerOf(otherStripe), storeName(f.Ref(), "parity"),
				g.ParityLocalOffset(otherStripe)+bad%su)
			rep, err := scrub.Run(cl, f, scrub.Options{})
			must(t, err)
			if rep.Parity.Mismatched != 2 || rep.Parity.Repaired != 2 {
				t.Fatalf("%s: %v scrub report %v, want 2 stripes repaired", name(""), f.Scheme(), rep)
			}
		})
		p.readBack(name("read after scrub"))
		for i := range p.f {
			problems, err := recovery.Verify(p.cl[i], p.f[i])
			if err != nil || len(problems) != 0 {
				t.Fatalf("%s: %v: %v %v", name("final verify"), p.f[i].Scheme(), err, problems)
			}
		}
	}
}

// TestParityEngineGoldenRPCs pins what each scheme's operations cost in
// requests, by kind and, for the member messages, store: "read/parity" is a
// Read of the parity store, "write_data/ovmirror" a WriteData of the
// overflow mirror. The rows were captured at the commit before the XOR and
// Reed-Solomon twins were merged, so the merge cannot silently add a round;
// the rows that have changed since only went down, each for a reason:
//
//   - degraded read (RAID5 read=13 → 4, RS read=14 read_parity=3 → read=5
//     read_parity=2, Hybrid read=13 → 8): the read is one planned round. The
//     dead pieces' survivors are the live data units the read already holds
//     — free, not re-fetched one piece at a time — plus one multi-stripe
//     parity read per parity server; RS's two stripes whose first live parity
//     unit sits on the same server share one. Hybrid's buffer holds
//     overflow-patched bytes, so its survivors come in one raw Read per
//     server, in the same round.
//   - rebuild (RS read_parity=5 → 2): each stripe is decoded from k = 4
//     survivors, data units first, not from all N-1; RAID5's and Hybrid's k
//     is N-1, so theirs is unchanged. The XOR twin made two passes (read=8
//     read_parity=3 for this file); the merged engine makes one.
//
// The degraded read-modify-write's survivors are unchanged: the whole
// written range is the dead piece, so all its survivors lie outside the
// range and are fetched, as before. It went up by one ListIntents per parity
// hold before the decode: a degraded read-modify-write must not decode
// across another update whose data may still be landing. (The row "rmw"
// left a pending intent on the same bytes; it is the client's own, completed,
// so it does not hold the decode up.)
//
// The resync row (server 1 restarted with its stale stores, not replaced)
// was added when resync began to decode through the survivor planner: two
// dumps and two clears per replica (the round, then the epoch retire), one
// Health probe per other server before the first parity item, and the one
// dirty data unit decoded from k survivors — data first, then parity — and
// written back. Hybrid's degraded write went to the overflow region only, so
// its resync reconciles overflow and decodes nothing.
//
// The RAID1 row was captured at the commit before the mirror joined the
// survivor planner as the repetition code RS(1, 1). The only change since is
// the Health probe per other server that resync and rebuild now send, as
// every shape's do; the copies still move in one read and one write per
// store.
//
// When each store's member reads and writes became one Read and one
// WriteData, every count was kept and re-keyed: an unlocked whole-unit
// read_parity became read/parity, the full-stripe write_parity became
// write_data/parity, the mirror's own read and write kinds became
// read/mirror and write_data/mirror, and the overflow write's kind split by
// store into write_data/overflow and write_data/ovmirror. The
// read-modify-write's locked read_parity and unlocking write_parity stayed,
// so a degraded read-modify-write's read_parity=2 (RS: 3) is its locked
// read_parity=1 (RS: 2) and its survivor fetch, read/parity=1.
//
// When a server's overflow and overflow-mirror pieces of one write began to
// travel as one two-part WriteData, Hybrid's straddling row went from
// write_data/overflow=4 write_data/ovmirror=4 (a request per copy per server:
// the head's units 2 and 3 and the tail's units 4 and 5 to servers 2, 3, 4
// and 0, their copies to 3, 4, 0 and 1) to one request per server touched:
// server 2 its overflow only, servers 3, 4 and 0 both parts, server 1 its
// overflow mirror only. Its one-unit "rmw" row touches two servers with one
// part each and is unchanged.
func TestParityEngineGoldenRPCs(t *testing.T) {
	for _, tc := range []struct {
		scheme  wire.Scheme
		servers int
		parity  int
		want    map[string]string
	}{
		{wire.Raid5, 5, 0, map[string]string{
			"full stripes":  "write_data/parity=4 write_data=5",
			"rmw":           "read=1 read_parity=1 write_data=1 write_parity=1",
			"straddling":    "read=4 read_parity=2 write_data=4 write_parity=2",
			"degraded read": "read/parity=3 read=4",
			"degraded rmw":  "list_intents=1 mark_dirty=2 read/parity=1 read=3 read_parity=1 write_parity=1",
			"resync":        "clear_dirty=4 dirty_dump=4 health=4 read/parity=1 read=3 write_data=1",
			"rebuild":       "health=4 read/parity=3 read=4 write_data/parity=1 write_data=1",
		}},
		{wire.Hybrid, 5, 0, map[string]string{
			"full stripes":  "write_data/parity=4 write_data=5",
			"rmw":           "write_data/overflow=1 write_data/ovmirror=1",
			"straddling":    "write_data/overflow+ovmirror=3 write_data/overflow=1 write_data/ovmirror=1",
			"degraded read": "overflow_dump=1 read/parity=3 read=8",
			"degraded rmw":  "mark_dirty=2 write_data/ovmirror=1",
			"resync":        "clear_dirty=4 dirty_dump=4 invalidate_overflow=2 overflow_dump=2 write_data/overflow=1 write_data/ovmirror=1",
			"rebuild":       "health=4 overflow_dump=2 read/parity=3 read=4 write_data/overflow=1 write_data/ovmirror=1 write_data/parity=1 write_data=1",
		}},
		{wire.ReedSolomon, 6, 2, map[string]string{
			"full stripes":  "write_data/parity=6 write_data=6",
			"rmw":           "read=1 read_parity=2 write_data=1 write_parity=2",
			"straddling":    "read=4 read_parity=4 write_data=4 write_parity=4",
			"degraded read": "read/parity=2 read=5",
			"degraded rmw":  "list_intents=2 mark_dirty=2 read/parity=1 read=3 read_parity=2 write_parity=2",
			"resync":        "clear_dirty=4 dirty_dump=4 health=5 read/parity=1 read=3 write_data=1",
			"rebuild":       "health=5 read/parity=2 read=5 write_data/parity=1 write_data=1",
		}},
		{wire.Raid1, 5, 0, map[string]string{
			"write":          "write_data/mirror=5 write_data=5",
			"degraded read":  "read/mirror=1 read=4",
			"degraded write": "mark_dirty=2 write_data/mirror=1",
			"resync":         "clear_dirty=4 dirty_dump=4 health=4 read/mirror=1 write_data=1",
			"rebuild":        "health=4 read/mirror=1 read=1 write_data/mirror=1 write_data=1",
		}},
	} {
		c := newCluster(t, tc.servers)
		var rc rpcCounter
		cl := rc.client(c)
		f, err := cl.CreateParity("f", tc.servers, 64, tc.scheme, tc.parity)
		must(t, err)
		ss := f.Geometry().StripeSize()
		check := func(op string, fn func()) {
			t.Helper()
			if got := rc.count(fn); got != tc.want[op] {
				t.Errorf("%v %s costs [%s], golden [%s]", tc.scheme, op, got, tc.want[op])
			}
		}
		// A mirror keeps no parity, so it has no read-modify-write: its row
		// names its two writes plainly and skips the partial-stripe ones.
		mirror := tc.scheme == wire.Raid1
		write, degradedWrite := "full stripes", "degraded rmw"
		if mirror {
			write, degradedWrite = "write", "degraded write"
		}
		check(write, func() { mustWrite(t, f, pattern(int(4*ss), 1), 0) })
		if !mirror {
			check("rmw", func() { mustWrite(t, f, pattern(10, 2), 70) })
			check("straddling", func() { mustWrite(t, f, pattern(int(ss), 3), ss/2) })
		}
		c.StopServer(1)
		cl.MarkDown(1)
		check("degraded read", func() {
			_, err := f.ReadAt(make([]byte, 4*ss), 0)
			must(t, err)
		})
		check(degradedWrite, func() { mustWrite(t, f, pattern(10, 4), 70) })
		c.RestartServer(1)
		check("resync", func() {
			_, err := recovery.Resync(cl, f, 1, recovery.ResyncOptions{})
			must(t, err)
		})
		c.ReplaceServer(1)
		check("rebuild", func() { must(t, recovery.Rebuild(cl, f, 1)) }) // 4 stripes: one batch
	}
}

// TestParityEngineAblations holds the cluster's two engine ablations to what
// they ablate, and nothing else, on a RAID5 file: AblateLock never takes a
// parity lock (no locked read means no intent is ever opened), and
// AblateCompute never computes parity (every parity unit it ships is zeros)
// while still running the full locked protocol.
func TestParityEngineAblations(t *testing.T) {
	intentsOpened := func(c *Cluster) (n int64) {
		for i := 0; i < c.Servers(); i++ {
			n += c.Server(i).IntentStats().Opened
		}
		return n
	}
	for _, sc := range []schemeCase{
		{"raid5", wire.Raid5, 0},
		{"raid5-nolock", wire.Raid5, client.AblateLock},
		{"raid5-npc", wire.Raid5, client.AblateCompute},
	} {
		scheme := sc.name
		c := sc.cluster(t, 5)
		cl := c.NewClient()
		f, err := cl.Create("f", 5, 64, sc.scheme)
		must(t, err)
		g := f.Geometry()
		ref := pattern(int(3*g.StripeSize()), 1)
		mustWrite(t, f, ref, 0)                          // three full stripes
		patches := []int64{10, 300, g.StripeSize() - 20} // the last straddles two stripes
		for i, off := range patches {
			patch := pattern(50, byte(20+i))
			mustWrite(t, f, patch, off)
			copy(ref[off:], patch)
		}
		checkRead(t, f, ref, 0)
		rmws := int64(len(patches) + 1)
		if got := cl.Metrics().RMWs; got != rmws {
			t.Fatalf("%v: %d read-modify-writes, want %d", scheme, got, rmws)
		}

		wantOpened := rmws
		if sc.ablate == client.AblateLock {
			wantOpened = 0
		}
		if got := intentsOpened(c); got != wantOpened {
			t.Errorf("%v: %d locked parity reads, want %d", scheme, got, wantOpened)
		}

		zero := make([]byte, 3*g.StripeUnit)
		parityIsZero := true
		for srv := 0; srv < 5; srv++ {
			if !bytes.Equal(storeBytes(c, srv, f.Ref(), "parity", len(zero)), zero) {
				parityIsZero = false
			}
		}
		if parityIsZero != (sc.ablate == client.AblateCompute) {
			t.Errorf("%v: parity stores all zero = %v", scheme, parityIsZero)
		}
		if sc.ablate == 0 {
			problems, err := recovery.Verify(cl, f)
			if err != nil || len(problems) != 0 {
				t.Fatalf("%v verify: %v %v", scheme, err, problems)
			}
		}
	}
}

// TestParityEngineScrubberLease: the scrubber's byte-level stripe check holds
// the stripe's parity lock the way a read-modify-write does — as an
// acquisition of its session, under the policy's lease. A scrubber that dies
// mid-check (here: wedged in its data repair, its heartbeats lost)
// therefore costs the stripe one lease: the server fail-stops it, replay
// reconciles it, and a foreground RMW that was queued behind the dead
// scrubber goes through. Before the scrubber's lock carried a token and a
// lease, that RMW waited forever.
func TestParityEngineScrubberLease(t *testing.T) {
	c := newCluster(t, 5)
	scrubCl, fgCl := c.NewClient(), c.NewClient()
	sf, err := scrubCl.Create("f", 5, 64, wire.Raid5)
	must(t, err)
	g := sf.Geometry()
	ref := pattern(int(2*g.StripeSize()), 3)
	mustWrite(t, sf, ref, 0)
	must(t, sf.Sync())
	ff, err := fgCl.Open("f")
	must(t, err)

	// One clean pass records the evidence that lets the next one blame a
	// data unit; then unit 2 of stripe 0 (on server 2) rots.
	journal := scrub.NewJournal()
	rep, err := scrub.Run(scrubCl, sf, scrub.Options{Journal: journal})
	if err != nil || !rep.Clean() {
		t.Fatalf("first scrub pass: %v %v", rep, err)
	}
	flipByte(t, c, 2, storeName(sf.Ref(), "data"), 5)
	ref[2*64+5] ^= 0xFF // the repair below never lands

	// The scrubber "dies" holding stripe 0's parity lock: its repair write
	// to server 2 hangs, and its heartbeats to the lock's server are lost.
	pol := testPolicy()
	pol.LockLease = 40 * time.Millisecond
	scrubCl.SetPolicy(pol)
	rl := c.Inject(FaultPoint{Server: g.ParityServerOf(0), Kind: wire.KRenewLease, Action: FaultDrop})
	defer rl.Release()
	hang := c.Inject(FaultPoint{Server: 2, Kind: wire.KWriteData, Action: FaultHang})
	defer hang.Release()
	scrubDone := make(chan error, 1)
	go func() {
		_, err := scrub.Run(scrubCl, sf, scrub.Options{Journal: journal, RepairData: true})
		scrubDone <- err
	}()
	<-hang.Triggered()

	// A foreground RMW on the same stripe (unit 0, server 0): refused while
	// the stripe is fail-stopped, it proceeds once replay has reconciled it.
	patch := pattern(10, 9)
	copy(ref[3:], patch)
	fgDone := make(chan error, 1)
	go func() {
		for {
			_, err := ff.WriteAt(patch, 3)
			if err == nil {
				fgDone <- nil
				return
			}
			if _, rerr := recovery.ReplayIntents(fgCl, ff); rerr != nil {
				fgDone <- rerr
				return
			}
		}
	}()
	select {
	case err := <-fgDone:
		must(t, err)
	case <-time.After(10 * time.Second):
		t.Fatal("foreground RMW is wedged behind the dead scrubber's parity lock")
	}
	rl.Release()
	must(t, ff.Sync()) // retires the foreground RMW's pending intent
	resp, err := fgCl.ServerCaller(g.ParityServerOf(0)).Call(&wire.ListIntents{File: ff.Ref()})
	must(t, err)
	if ints := resp.(*wire.ListIntentsResp).Intents; len(ints) != 0 {
		t.Fatalf("intents left on stripe 0's parity server: %+v", ints)
	}

	// The wedged scrubber, let go, finds its lock gone and gives up; the
	// stripe stays consistent around the bytes the servers hold.
	hang.Release()
	if err := <-scrubDone; err == nil {
		t.Fatal("scrub pass succeeded although its repair write failed")
	}
	checkRead(t, ff, ref, 0)
	problems, err := recovery.Verify(fgCl, ff)
	if err != nil || len(problems) != 0 {
		t.Fatalf("verify: %v %v", err, problems)
	}
}

// TestResolveAgreesAtEverySite: the manager (creating the file), an I/O
// server (serving a request that names the ref) and a client (building a
// handle for it) accept and refuse exactly the same FileRefs, because all
// three ask raid.Resolve. RAID5 on two servers is refused by all three, and
// so is an unknown scheme byte, which no site may treat as RAID0.
func TestResolveAgreesAtEverySite(t *testing.T) {
	c := newCluster(t, 5)
	cl := c.NewClient()
	for i, tc := range []struct {
		ref wire.FileRef
		ok  bool
	}{
		{wire.FileRef{Servers: 5, StripeUnit: 64, Scheme: 4}, false}, // retired: raid5-nolock
		{wire.FileRef{Servers: 5, StripeUnit: 64, Scheme: 5}, false}, // retired: raid5-npc
		{wire.FileRef{Servers: 4, StripeUnit: 64, Scheme: 7}, false},
		{wire.FileRef{Servers: 4, StripeUnit: 64, Scheme: 200}, false},
		{wire.FileRef{Servers: 2, StripeUnit: 64, Scheme: wire.Raid5}, false},
		{wire.FileRef{Servers: 2, StripeUnit: 64, Scheme: wire.Hybrid}, false},
		{wire.FileRef{Servers: 1, StripeUnit: 64, Scheme: wire.Raid1}, false},
		{wire.FileRef{Servers: 3, StripeUnit: 64, Scheme: wire.ReedSolomon, Parity: 2}, false},
		{wire.FileRef{Servers: 5, StripeUnit: 64, Scheme: wire.Raid5, Parity: 2}, false},
		{wire.FileRef{Servers: 3, StripeUnit: 0, Scheme: wire.Raid0}, false},
		{wire.FileRef{Servers: 1, StripeUnit: 64, Scheme: wire.Raid0}, true},
		{wire.FileRef{Servers: 2, StripeUnit: 64, Scheme: wire.Raid1}, true},
		{wire.FileRef{Servers: 3, StripeUnit: 64, Scheme: wire.Raid5}, true},
		{wire.FileRef{Servers: 3, StripeUnit: 64, Scheme: wire.Hybrid}, true},
		{wire.FileRef{Servers: 3, StripeUnit: 64, Scheme: wire.ReedSolomon, Parity: 1}, true},
		{wire.FileRef{Servers: 5, StripeUnit: 64, Scheme: wire.ReedSolomon, Parity: 3}, true},
	} {
		ref := tc.ref
		ref.ID = uint64(1000 + i)
		_, mErr := c.Manager().Handle(&wire.Create{Name: fmt.Sprintf("f%d", i),
			Servers: ref.Servers, StripeUnit: ref.StripeUnit, Scheme: ref.Scheme, Parity: ref.Parity})
		_, sErr := c.Server(0).Handle(&wire.Read{File: ref})
		_, cErr := cl.FileForRelayout(ref, 0)
		for _, site := range []struct {
			name string
			err  error
		}{{"manager", mErr}, {"server", sErr}, {"client", cErr}} {
			if (site.err == nil) != tc.ok {
				t.Errorf("%+v: the %s says %v, want accepted %v", tc.ref, site.name, site.err, tc.ok)
			}
		}
	}
}
