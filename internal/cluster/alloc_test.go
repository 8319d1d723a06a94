package cluster

import (
	"bytes"
	"os"
	"runtime/metrics"
	"testing"

	"csar/internal/recovery"
	"csar/internal/wire"
)

// TestMain turns pool poison on for every scenario in this package — the
// fault, crash, resync, RS and migration suites included — so a payload
// buffer recycled while anything still reads it corrupts data the scenarios
// already verify byte for byte, on the Direct and the Pipe transport alike.
func TestMain(m *testing.M) {
	wire.SetPoolPoison(true)
	os.Exit(m.Run())
}

// measureAllocs runs op runs times after one warm-up call and returns the
// allocations per call and the heap bytes allocated per call.
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
// handling, and response decode — measured on the untimed Pipe transport.
// The count includes the per-request server goroutines and both directions
// of framing, so it is deliberately far above zero, but a data-path change
// that starts copying or re-allocating per unit blows well past it. The
// payload itself is gathered and its parity computed straight into pooled
// buffers the frames own, so the bytes allocated do not scale with the
// write: one payload-sized allocation per write would be 1.0 B/B.
const (
	fullStripeWriteAllocBudget        = 220
	fullStripeWriteBytesPerByteBudget = 0.05
)

// allocSchemes are the two shapes of the one parity engine the budgets hold
// for: RAID5's single XOR unit and RS(4,2)'s two coefficient rows, both on
// six servers.
var allocSchemes = []struct {
	name   string
	scheme wire.Scheme
	parity int
}{{"raid5", wire.Raid5, 0}, {"rs42", wire.ReedSolomon, 2}}

func TestFullStripeWriteAllocs(t *testing.T) {
	for _, tc := range allocSchemes {
		t.Run(tc.name, func(t *testing.T) {
			c := newPipeCluster(t, 6)
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
			before := cl.Metrics().FullStripes
			allocs, heap := measureAllocs(50, write)
			if got := cl.Metrics().FullStripes - before; got != 51 {
				t.Fatalf("%d of 51 writes took the full-stripe path", got)
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
// The old parity (64 KiB a unit), the old data and the new data all sit in
// pooled buffers that go back when the write has succeeded, so what is left
// is the bookkeeping of five to eight RPCs, about 16 KiB. Holding on to the parity response alone would add
// 64 KiB per write; before the buffers were returned a write cost 123 KiB.
const rmwWriteBytesBudget = 32 << 10

func TestRMWWriteAllocs(t *testing.T) {
	for _, tc := range allocSchemes {
		t.Run(tc.name, func(t *testing.T) {
			c := newPipeCluster(t, 6)
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
			allocs, heap := measureAllocs(50, write)
			if got := cl.Metrics().RMWs - before; got != 51 {
				t.Fatalf("%d of 51 writes took the read-modify-write path", got)
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
// stack on the untimed Pipe transport: six Read RPCs, pooled frames and
// pooled responses at both ends, one merge into the caller's buffer. The
// payload is allocated zero times, so what remains is per-RPC bookkeeping:
// a fixed count, and bytes that do not scale with the read.
const (
	readAtAllocBudget = 220
	// Heap bytes allocated per byte read. One payload-sized allocation per
	// read would be 1.0; the bookkeeping is about 0.01.
	readAtBytesPerByteBudget = 0.05
)

func TestReadAtAllocs(t *testing.T) {
	c := newPipeCluster(t, 6)
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
