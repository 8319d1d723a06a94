package cluster

import (
	"bytes"
	"os"
	"runtime/metrics"
	"slices"
	"strconv"
	"strings"
	"testing"

	"csar/internal/recovery"
	"csar/internal/wire"
)

// TestMain turns pool poison on for every scenario in this package — the
// fault, crash, resync, RS and migration suites included — so a payload
// buffer recycled while anything still reads it corrupts data the scenarios
// already verify byte for byte over the RPC stack.
func TestMain(m *testing.M) {
	wire.SetPoolPoison(true)
	os.Exit(m.Run())
}

// measureAllocs runs op runs times after one warm-up call and returns the
// allocations per call and the heap bytes allocated per call. The bytes are
// the whole process's — every server handler, pool miss and background
// timer — and vary by several KiB from run to run on the same code, so a
// bytes budget below catches only a regression that scales with the units
// moved (a payload allocated again), not one of a few KiB per op.
func measureAllocs(runs int, op func()) (allocs, bytes float64) {
	sample := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}
	metrics.Read(sample)
	before := sample[0].Value.Uint64()
	allocs = testing.AllocsPerRun(runs, op)
	metrics.Read(sample)
	return allocs, float64(sample[0].Value.Uint64()-before) / float64(runs+1) // AllocsPerRun warms up once
}

// Budgets for one warm full-stripe RAID5 WriteAt (one 64 KiB-unit stripe)
// through the complete stack — portion planning, batched multi-span
// marshaling, pooled RPC framing on both ends of every pipe, server
// handling, and response decode — measured on an untimed cluster.
// The count includes the servers' per-request work and both directions of
// framing, so it is deliberately far above zero, but a data-path change
// that starts copying or re-allocating per unit blows well past it. The
// payload goes out from the caller's buffer and its parity is computed
// straight into pooled buffers, so the bytes allocated do not scale with
// the write: one payload-sized allocation per write would be 1.0 B/B.
const (
	fullStripeWriteAllocBudget        = 220
	fullStripeWriteBytesPerByteBudget = 0.05
)

type allocScheme struct {
	name   string
	scheme wire.Scheme
	parity int
}

// allocSchemes are the two shapes of the one parity engine the budgets hold
// for: RAID5's single XOR unit and RS(4,2)'s two coefficient rows, both on
// six servers.
var allocSchemes = []allocScheme{{"raid5", wire.Raid5, 0}, {"rs42", wire.ReedSolomon, 2}}

// TestFullStripeWriteAllocs holds the budgets for a full-group write of each
// parity shape and of RAID1, whose groups are RS(1, 1): its five-unit write
// is counted as a mirror write, not a full stripe.
func TestFullStripeWriteAllocs(t *testing.T) {
	for _, tc := range slices.Concat(allocSchemes, []allocScheme{{"raid1", wire.Raid1, 0}}) {
		t.Run(tc.name, func(t *testing.T) {
			c := newCluster(t, 6)
			cl := c.NewClient()
			const su = 64 << 10
			f, err := cl.CreateParity("alloc", 6, su, tc.scheme, tc.parity)
			if err != nil {
				t.Fatal(err)
			}
			stripe := pattern(int(f.Geometry().StripeSize()), 7)
			write := func() {
				if _, err := f.WriteAt(stripe, 0); err != nil {
					panic(err)
				}
			}
			// Warm the path (file metadata, pools, server-side state) first.
			for i := 0; i < 8; i++ {
				write()
			}
			count := func() int64 { return cl.Metrics().FullStripes }
			if tc.scheme == wire.Raid1 {
				count = func() int64 { return cl.Metrics().MirrorWrites }
			}
			before := count()
			allocs, heap := measureAllocs(50, write)
			if got := count() - before; got != 51 {
				t.Fatalf("%d of 51 writes took the full-group path", got)
			}
			perByte := heap / float64(len(stripe))
			t.Logf("full-stripe WriteAt: %.1f allocs/op, %.4f B allocated per byte written", allocs, perByte)
			if allocs > fullStripeWriteAllocBudget {
				t.Fatalf("full-stripe WriteAt allocates %.1f/op, budget %d", allocs, fullStripeWriteAllocBudget)
			}
			// The race detector makes sync.Pool drop a quarter of all puts on
			// purpose, so under -race payload buffers do get re-allocated; the byte
			// budgets here and below are a property of the normal build.
			if !raceEnabled && perByte > fullStripeWriteBytesPerByteBudget {
				t.Fatalf("full-stripe WriteAt allocates %.4f B per byte written, budget %.2f: a payload is being allocated again",
					perByte, fullStripeWriteBytesPerByteBudget)
			}
			got := make([]byte, len(stripe))
			if _, err := f.ReadAt(got, 0); err != nil || !bytes.Equal(got, stripe) {
				t.Fatalf("read back after pool reuse: err %v, equal %v", err, bytes.Equal(got, stripe))
			}
		})
	}
}

// rmwWriteBytesBudget bounds the heap bytes of one warm, unaligned 16 KiB
// WriteAt — a locked read-modify-write: parity read, old-data read, delta,
// data write, unlocking parity write (two of each parity step for RS(4,2)).
// The old parity (the update's 16 KiB parity region of each unit), the old
// data and the new data all sit in pooled buffers that go back when the write
// has succeeded, so what is left is the bookkeeping of five to eight RPCs,
// about 16 KiB. Holding on to a parity response alone would add 16 KiB per
// parity unit; before the buffers were returned, and while a hold read its
// whole 64 KiB unit, a write cost 123 KiB.
const rmwWriteBytesBudget = 32 << 10

func TestRMWWriteAllocs(t *testing.T) {
	for _, tc := range allocSchemes {
		t.Run(tc.name, func(t *testing.T) {
			c := newCluster(t, 6)
			cl := c.NewClient()
			const su = 64 << 10
			f, err := cl.CreateParity("rmw", 6, su, tc.scheme, tc.parity)
			if err != nil {
				t.Fatal(err)
			}
			ref := pattern(2*int(f.Geometry().StripeSize()), 5)
			if _, err := f.WriteAt(ref, 0); err != nil {
				t.Fatal(err)
			}
			const off = su - 5000 // straddles two units of stripe 0
			patch := pattern(16<<10, 11)
			copy(ref[off:], patch)
			write := func() {
				if _, err := f.WriteAt(patch, off); err != nil {
					panic(err)
				}
			}
			for i := 0; i < 8; i++ {
				write()
			}
			before := cl.Metrics().RMWs
			r0, w0 := parityMoved(c)
			allocs, heap := measureAllocs(50, write)
			if got := cl.Metrics().RMWs - before; got != 51 {
				t.Fatalf("%d of 51 writes took the read-modify-write path", got)
			}
			// The parity region of the update is its two pieces' in-unit
			// ranges, 16 KiB in all: each parity unit moves that much each
			// way, not its whole 64 KiB.
			r1, w1 := parityMoved(c)
			want := int64(len(patch) * f.Geometry().PU())
			if rd, wr := (r1-r0)/51, (w1-w0)/51; rd != want || wr != want {
				t.Fatalf("16 KiB RMW moves %d parity bytes in and %d out per write, want %d each", rd, wr, want)
			}
			t.Logf("16 KiB RMW WriteAt: %.1f allocs/op, %.0f B/op", allocs, heap)
			if !raceEnabled && heap > rmwWriteBytesBudget {
				t.Fatalf("16 KiB RMW WriteAt allocates %.0f B/op, budget %d: a pooled buffer is not coming back", heap, rmwWriteBytesBudget)
			}
			got := make([]byte, len(ref))
			if _, err := f.ReadAt(got, 0); err != nil || !bytes.Equal(got, ref) {
				t.Fatalf("read back after pool reuse: err %v, equal %v", err, bytes.Equal(got, ref))
			}
			if problems, err := recovery.Verify(cl, f); err != nil || len(problems) > 0 {
				t.Fatalf("parity after pooled RMWs: %v %v", err, problems)
			}
		})
	}
}

// Budgets for one warm, unaligned 1 MiB RAID5 ReadAt through the complete
// stack on an untimed cluster: six Read RPCs, pooled frames and
// pooled responses at both ends, the bytes landed in the caller's buffer. The
// payload is allocated zero times, so what remains is per-RPC bookkeeping:
// a fixed count, and bytes that do not scale with the read.
const (
	readAtAllocBudget = 220
	// Heap bytes allocated per byte read. One payload-sized allocation per
	// read would be 1.0; the bookkeeping is about 0.01.
	readAtBytesPerByteBudget = 0.05
)

func TestReadAtAllocs(t *testing.T) {
	c := newCluster(t, 6)
	cl := c.NewClient()
	const su = 64 << 10
	f, err := cl.Create("ralloc", 6, su, wire.Raid5)
	if err != nil {
		t.Fatal(err)
	}
	ref := pattern(4<<20, 3)
	if _, err := f.WriteAt(ref, 0); err != nil {
		t.Fatal(err)
	}
	const off = 3*su + 12345 // neither unit- nor stripe-aligned
	p := make([]byte, 1<<20)
	read := func() {
		if _, err := f.ReadAt(p, off); err != nil {
			panic(err)
		}
	}
	// Warm the pools: every buffer class this read uses gets populated.
	for i := 0; i < 8; i++ {
		read()
	}
	if !bytes.Equal(p, ref[off:off+len(p)]) {
		t.Fatal("ReadAt returned wrong bytes")
	}

	avg, heap := measureAllocs(50, read)
	perByte := heap / float64(len(p))
	t.Logf("1 MiB ReadAt: %.1f allocs/op, %.4f B allocated per byte read", avg, perByte)
	if avg > readAtAllocBudget {
		t.Fatalf("1 MiB ReadAt allocates %.1f/op, budget %d", avg, readAtAllocBudget)
	}
	if !raceEnabled && perByte > readAtBytesPerByteBudget {
		t.Fatalf("1 MiB ReadAt allocates %.4f B per byte read, budget %.2f: a payload is being allocated again",
			perByte, readAtBytesPerByteBudget)
	}
	if !bytes.Equal(p, ref[off:off+len(p)]) {
		t.Fatal("ReadAt returned wrong bytes after pool reuse")
	}
}

// Budgets for the same unaligned 1 MiB ReadAt of an RS(4,2) file with one
// server down. The read is one round — the live servers' Reads beside one
// ReadParity per parity server — and each dead piece is decoded straight into
// the caller's buffer from the data units the read already holds and the
// parity responses, so there is no unit-sized temporary buffer. The decode
// that allocated a 64 KiB unit per dead piece and copied it out, after a
// second round of survivor reads, cost 0.27 B/B and 350 allocs/op in this
// test; this one costs about 0.012 and 215.
const (
	degradedReadAtAllocBudget        = 260
	degradedReadAtBytesPerByteBudget = 0.05
)

func TestDegradedReadAtAllocs(t *testing.T) {
	c := newCluster(t, 6)
	cl := c.NewClient()
	const su = 64 << 10
	f, err := cl.CreateParity("dalloc", 6, su, wire.ReedSolomon, 2)
	if err != nil {
		t.Fatal(err)
	}
	ref := pattern(4<<20, 9)
	if _, err := f.WriteAt(ref, 0); err != nil {
		t.Fatal(err)
	}
	c.StopServer(2)
	cl.MarkDown(2)
	const off = 3*su + 12345 // neither unit- nor stripe-aligned
	p := make([]byte, 1<<20)
	read := func() {
		if _, err := f.ReadAt(p, off); err != nil {
			panic(err)
		}
	}
	for i := 0; i < 8; i++ {
		read()
	}
	if !bytes.Equal(p, ref[off:off+len(p)]) {
		t.Fatal("degraded ReadAt returned wrong bytes")
	}

	before := cl.Metrics().DegradedReads
	avg, heap := measureAllocs(50, read)
	if got := cl.Metrics().DegradedReads - before; got != 51 {
		t.Fatalf("%d of 51 reads took the degraded path", got)
	}
	perByte := heap / float64(len(p))
	t.Logf("degraded 1 MiB ReadAt: %.1f allocs/op, %.4f B allocated per byte read", avg, perByte)
	if avg > degradedReadAtAllocBudget {
		t.Fatalf("degraded 1 MiB ReadAt allocates %.1f/op, budget %d", avg, degradedReadAtAllocBudget)
	}
	if !raceEnabled && perByte > degradedReadAtBytesPerByteBudget {
		t.Fatalf("degraded 1 MiB ReadAt allocates %.4f B per byte read, budget %.2f: a decode is allocating its unit again",
			perByte, degradedReadAtBytesPerByteBudget)
	}
	if !bytes.Equal(p, ref[off:off+len(p)]) {
		t.Fatal("degraded ReadAt returned wrong bytes after pool reuse")
	}
}

// overflowWriteAllocBudget bounds one warm 16 KiB Hybrid WriteAt of a
// partial stripe through the complete stack, for each of the three cases of
// TestOverflowWriteAllocs: two or three requests, each one WriteData whose
// pieces go out from the caller's buffer, so what is counted is per-request
// bookkeeping on both ends of the pipes. The three read 28, 38 and 40
// allocs/op (31, 44 and 46 under the race detector); with a request per copy
// per server, and a net.Buffers allocated for every frame with a payload,
// they read 40, 66 and 79.
const overflowWriteAllocBudget = 60

// TestOverflowWriteAllocs holds a Hybrid partial-stripe write to one request
// per server it touches, a server's overflow piece and its overflow-mirror
// piece travelling as one two-part WriteData, and to an allocation budget:
// 16 KiB written within one unit, across a unit boundary and across a
// stripe boundary, whose head and tail are two overflow portions sent
// together. A request per copy per server sent 2, 4 and 4.
func TestOverflowWriteAllocs(t *testing.T) {
	c := newCluster(t, 6)
	cl := c.NewClient()
	var rc rpcCounter
	counted := rc.client(c)
	const su = 64 << 10
	f, err := cl.Create("ovalloc", 6, su, wire.Hybrid)
	if err != nil {
		t.Fatal(err)
	}
	fc, err := counted.Open("ovalloc")
	if err != nil {
		t.Fatal(err)
	}
	ss := f.Geometry().StripeSize()
	ref := pattern(int(2*ss), 3)
	mustWrite(t, f, ref, 0)
	patch := pattern(16<<10, 13)
	for _, tc := range []struct {
		name               string
		off                int64
		portions, requests int64
	}{
		{"within a unit", 1000, 1, 2},
		{"across a unit", su - 5000, 1, 3},
		{"across a stripe", ss - 5000, 2, 3},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var requests int64
			for _, kv := range strings.Fields(rc.count(func() { mustWrite(t, fc, patch, tc.off) })) {
				n, err := strconv.ParseInt(kv[strings.IndexByte(kv, '=')+1:], 10, 64)
				if err != nil {
					t.Fatal(err)
				}
				requests += n
			}
			if requests != tc.requests {
				t.Fatalf("a 16 KiB write %s sends %d requests, want one per server touched: %d", tc.name, requests, tc.requests)
			}
			write := func() {
				if _, err := f.WriteAt(patch, tc.off); err != nil {
					panic(err)
				}
			}
			for i := 0; i < 8; i++ {
				write()
			}
			before := cl.Metrics().OverflowWrites
			allocs, _ := measureAllocs(50, write)
			if got := cl.Metrics().OverflowWrites - before; got != 51*tc.portions {
				t.Fatalf("%d overflow portions in 51 writes, want %d", got, 51*tc.portions)
			}
			t.Logf("16 KiB Hybrid WriteAt %s: %.1f allocs/op", tc.name, allocs)
			if allocs > overflowWriteAllocBudget {
				t.Fatalf("16 KiB Hybrid WriteAt %s allocates %.1f/op, budget %d", tc.name, allocs, overflowWriteAllocBudget)
			}
			copy(ref[tc.off:], patch)
			checkRead(t, f, ref, 0)
		})
	}
}
