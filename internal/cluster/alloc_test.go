package cluster

import (
	"bytes"
	"os"
	"runtime/metrics"
	"testing"

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

// fullStripeWriteAllocBudget bounds the allocations of one full-stripe
// RAID5 WriteAt through the complete stack — portion planning, batched
// multi-span marshaling, pooled RPC framing on both ends of every pipe,
// server handling, and response decode. It is a whole-path regression
// budget measured on the untimed Pipe transport: the count includes the
// per-request server goroutines and both directions of framing, so it is
// deliberately far above zero, but a data-path change that starts copying
// or re-allocating per unit blows well past it and fails CI.
const fullStripeWriteAllocBudget = 300

func TestFullStripeWriteAllocs(t *testing.T) {
	c := newPipeCluster(t, 6)
	cl := c.NewClient()
	const su = 4096
	f, err := cl.Create("alloc", 6, su, wire.Raid5)
	if err != nil {
		t.Fatal(err)
	}
	stripe := make([]byte, 5*su)
	for i := range stripe {
		stripe[i] = byte(i * 7)
	}
	// Warm the path (file metadata, pools, server-side state) first.
	for i := 0; i < 8; i++ {
		if _, err := f.WriteAt(stripe, 0); err != nil {
			t.Fatal(err)
		}
	}
	avg := testing.AllocsPerRun(50, func() {
		if _, err := f.WriteAt(stripe, 0); err != nil {
			panic(err)
		}
	})
	t.Logf("full-stripe WriteAt: %.1f allocs/op", avg)
	if avg > fullStripeWriteAllocBudget {
		t.Fatalf("full-stripe WriteAt allocates %.1f/op, budget %d", avg, fullStripeWriteAllocBudget)
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

	const runs = 50
	sample := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}
	metrics.Read(sample)
	before := sample[0].Value.Uint64()
	avg := testing.AllocsPerRun(runs, read)
	metrics.Read(sample)
	perByte := float64(sample[0].Value.Uint64()-before) / float64((runs+1)*len(p)) // AllocsPerRun warms up once
	t.Logf("1 MiB ReadAt: %.1f allocs/op, %.4f B allocated per byte read", avg, perByte)
	if avg > readAtAllocBudget {
		t.Fatalf("1 MiB ReadAt allocates %.1f/op, budget %d", avg, readAtAllocBudget)
	}
	// The race detector makes sync.Pool drop a quarter of all puts on
	// purpose, so under -race payload buffers do get re-allocated; the byte
	// budget is a property of the normal build.
	if !raceEnabled && perByte > readAtBytesPerByteBudget {
		t.Fatalf("1 MiB ReadAt allocates %.4f B per byte read, budget %.2f: a payload is being allocated again",
			perByte, readAtBytesPerByteBudget)
	}
	if !bytes.Equal(p, ref[off:off+len(p)]) {
		t.Fatal("ReadAt returned wrong bytes after pool reuse")
	}
}
