package cluster

import (
	"bytes"
	"testing"
	"time"

	"csar/internal/client"
	"csar/internal/recovery"
	"csar/internal/simnet"
	"csar/internal/simtime"
	"csar/internal/wire"
)

// newTimedPipeCluster builds a cluster on a modeled network
// dominated by per-message latency, so round-trip overlap (or its absence)
// is directly visible in elapsed time.
func newTimedPipeCluster(t *testing.T, n int) *Cluster {
	t.Helper()
	cfg := DefaultConfig(n)
	cfg.Clock = &simtime.Clock{Scale: 100 * time.Millisecond} // 1 sim-s = 100ms wall
	// 80 sim-ms per hop (8ms wall) keeps the latency term far above host
	// scheduling noise even under the race detector on one core.
	cfg.Net = simnet.Params{Latency: 80 * time.Millisecond, BandwidthBPS: 1e9}
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)
	return c
}

// TestPipelinedStripeWritesOverlap proves the pipelining win the write
// overhaul claims: N writes to independent stripes issued through a bounded
// window must overlap their round trips, finishing in well under the serial
// sum of the same N writes. The network model is latency-dominated (20 sim-ms
// per hop, negligible transfer time), so overlap — not bandwidth — is the
// only way to go faster.
func TestPipelinedStripeWritesOverlap(t *testing.T) {
	c := newTimedPipeCluster(t, 4)
	cl := c.NewClient()
	const su = 64 << 10
	const stripes = 8
	stripe := pattern(4*su, 3)

	fSerial, err := cl.Create("serial", 4, su, wire.Raid0)
	if err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	for i := 0; i < stripes; i++ {
		if _, err := fSerial.WriteAt(stripe, int64(i)*int64(len(stripe))); err != nil {
			t.Fatal(err)
		}
	}
	serial := time.Since(start)

	fPipe, err := cl.Create("pipelined", 4, su, wire.Raid0)
	if err != nil {
		t.Fatal(err)
	}
	win := client.NewWindow(stripes)
	start = time.Now()
	for i := 0; i < stripes; i++ {
		off := int64(i) * int64(len(stripe))
		win.Go(func() error {
			_, err := fPipe.WriteAt(stripe, off)
			return err
		})
	}
	if err := win.Wait(); err != nil {
		t.Fatal(err)
	}
	pipelined := time.Since(start)

	t.Logf("serial %v, pipelined %v", serial, pipelined)
	if pipelined >= serial*2/3 {
		t.Fatalf("pipelined writes did not overlap: %v vs serial %v", pipelined, serial)
	}

	// Overlap must not have corrupted anything: both files read back intact.
	got := make([]byte, stripes*len(stripe))
	if _, err := fPipe.ReadAt(got, 0); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < stripes; i++ {
		if !bytes.Equal(got[i*len(stripe):(i+1)*len(stripe)], stripe) {
			t.Fatalf("stripe %d corrupted by pipelined write", i)
		}
	}
}

// TestSameStripeWritesSerializeThroughParityLock drives the other half of
// the pipelining contract: writes to the SAME stripe must not overlap their
// read-modify-write windows. Sixteen disjoint partial writes to one RAID5
// stripe race through a deep window; the parity lock forces each RMW's
// read-old/write-new/update-parity sequence to complete before the next
// begins, so the final parity must be consistent and every patch intact.
func TestSameStripeWritesSerializeThroughParityLock(t *testing.T) {
	c := newCluster(t, 4)
	cl := c.NewClient()
	const su = 4096
	f, err := cl.Create("contended", 4, su, wire.Raid5)
	if err != nil {
		t.Fatal(err)
	}
	// Lay down a base stripe so every racing write is a partial RMW.
	base := pattern(3*su, 1)
	if _, err := f.WriteAt(base, 0); err != nil {
		t.Fatal(err)
	}

	const patches = 16
	const psize = (3 * su) / patches // disjoint, sub-unit patches
	win := client.NewWindow(patches)
	want := append([]byte{}, base...)
	for i := 0; i < patches; i++ {
		p := pattern(psize, byte(10+i))
		copy(want[i*psize:], p)
		off := int64(i * psize)
		win.Go(func() error {
			_, err := f.WriteAt(p, off)
			return err
		})
	}
	if err := win.Wait(); err != nil {
		t.Fatal(err)
	}

	got := make([]byte, len(want))
	if _, err := f.ReadAt(got, 0); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("racing same-stripe writes lost a patch")
	}
	problems, err := recovery.Verify(cl, f)
	if err != nil {
		t.Fatal(err)
	}
	if len(problems) > 0 {
		t.Fatalf("parity inconsistent after racing same-stripe writes: %v", problems)
	}
}
