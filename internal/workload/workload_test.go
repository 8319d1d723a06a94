package workload

import (
	"testing"

	"csar"
)

func env(t *testing.T, servers int, scheme csar.Scheme, su int64) Env {
	t.Helper()
	c, err := csar.NewCluster(csar.ClusterOptions{Servers: servers})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)
	return Env{Cluster: c, Scheme: scheme, StripeUnit: su}
}

func TestFullStripeWrite(t *testing.T) {
	for _, scheme := range []csar.Scheme{csar.Raid0, csar.Raid1, csar.Raid5, csar.Hybrid} {
		e := env(t, 5, scheme, 4096)
		n, err := FullStripeWrite(e, "fs", 1<<20, 4)
		if err != nil {
			t.Fatalf("%v: %v", scheme, err)
		}
		if n == 0 || n%e.StripeSize() != 0 {
			t.Fatalf("%v: wrote %d bytes", scheme, n)
		}
	}
}

func TestSmallBlockWrite(t *testing.T) {
	e := env(t, 5, csar.Hybrid, 4096)
	n, err := SmallBlockWrite(e, "sb", 1<<19)
	if err != nil {
		t.Fatal(err)
	}
	if n == 0 {
		t.Fatal("no bytes written")
	}
	// Small-block overwrites under Hybrid land in overflow.
	cl := e.Cluster.NewClient()
	f, err := cl.Open("sb")
	if err != nil {
		t.Fatal(err)
	}
	_, byStore, err := f.StorageBytes()
	if err != nil {
		t.Fatal(err)
	}
	if byStore[3] == 0 {
		t.Fatal("hybrid small-block writes produced no overflow data")
	}
}

func TestContention(t *testing.T) {
	e := env(t, 6, csar.Raid5, 2048)
	n, err := Contention(e, "cont", 5, 4)
	if err != nil {
		t.Fatal(err)
	}
	if n != 5*4*2048 {
		t.Fatalf("wrote %d", n)
	}
	// Parity must be consistent after contended locked writes.
	cl := e.Cluster.NewClient()
	f, _ := cl.Open("cont")
	problems, err := cl.Verify(f)
	if err != nil {
		t.Fatal(err)
	}
	if len(problems) > 0 {
		t.Fatalf("inconsistent: %v", problems)
	}
}

func TestPerfWriteRead(t *testing.T) {
	e := env(t, 4, csar.Raid1, 4096)
	w, err := PerfWrite(e, "perf", 3, 128<<10)
	if err != nil {
		t.Fatal(err)
	}
	if w != 3*128<<10 {
		t.Fatalf("wrote %d", w)
	}
	r, err := PerfRead(e, "perf", 3, 128<<10)
	if err != nil {
		t.Fatal(err)
	}
	if r != w {
		t.Fatalf("read %d", r)
	}
}

func TestBTIO(t *testing.T) {
	for _, scheme := range []csar.Scheme{csar.Raid5, csar.Hybrid} {
		e := env(t, 5, scheme, 4096)
		class := BTIOClass{Name: "T", Bytes: 2 << 20, Steps: 4}
		n, err := BTIO(e, "btio", 4, class)
		if err != nil {
			t.Fatalf("%v: %v", scheme, err)
		}
		if n == 0 {
			t.Fatalf("%v: nothing written", scheme)
		}
		// Overwrite pass (pre-existing file).
		e.Cluster.DropCaches()
		n2, err := BTIO(e, "btio", 4, class)
		if err != nil {
			t.Fatalf("%v overwrite: %v", scheme, err)
		}
		if n2 != n {
			t.Fatalf("%v overwrite wrote %d vs %d", scheme, n2, n)
		}
		cl := e.Cluster.NewClient()
		f, _ := cl.Open("btio")
		problems, err := cl.Verify(f)
		if err != nil {
			t.Fatal(err)
		}
		if len(problems) > 0 {
			t.Fatalf("%v: inconsistent after BTIO: %v", scheme, problems[:1])
		}
	}
}

func TestBTIOScaled(t *testing.T) {
	step := BTIOClassB.Bytes / int64(BTIOClassB.Steps)
	c := BTIOClassB.Scaled(16)
	if c.Steps != 2 || c.Bytes != 2*step || c.Name != "B" {
		t.Fatalf("scaled class = %+v", c)
	}
	// Per-step size (and therefore per-write request size) is preserved.
	if c.Bytes/int64(c.Steps) != step {
		t.Fatalf("step size changed: %d vs %d", c.Bytes/int64(c.Steps), step)
	}
	if BTIOClassA.Scaled(1).Bytes != 419<<20 {
		t.Fatal("unscaled class changed")
	}
	if got := BTIOClassB.Scaled(8).Steps; got != 5 {
		t.Fatalf("div=8 steps=%d want 5", got)
	}
}

func TestFlashIO(t *testing.T) {
	e := env(t, 4, csar.Hybrid, 16<<10)
	n, err := FlashIO(e, "flash", 4, 2<<20)
	if err != nil {
		t.Fatal(err)
	}
	if n < 2<<20 {
		t.Fatalf("wrote %d", n)
	}
}

func TestCactus(t *testing.T) {
	e := env(t, 4, csar.Raid5, 64<<10)
	n, err := Cactus(e, "cactus", 3, 6<<20)
	if err != nil {
		t.Fatal(err)
	}
	if n != 3*6<<20 {
		t.Fatalf("wrote %d", n)
	}
}

func TestHartreeFock(t *testing.T) {
	e := env(t, 4, csar.Raid1, 16<<10)
	n, err := HartreeFock(e, "hf", 1<<20, 0)
	if err != nil {
		t.Fatal(err)
	}
	if n != 1<<20 {
		t.Fatalf("wrote %d", n)
	}
}

func TestStorageOrderingAcrossSchemes(t *testing.T) {
	// Table 2's qualitative shape on a mostly-large-write workload
	// (Cactus): raid0 < raid5 <= hybrid < raid1.
	totals := map[csar.Scheme]int64{}
	for _, scheme := range []csar.Scheme{csar.Raid0, csar.Raid1, csar.Raid5, csar.Hybrid} {
		e := env(t, 5, scheme, 64<<10)
		if _, err := Cactus(e, "c", 2, 8<<20); err != nil {
			t.Fatal(err)
		}
		totals[scheme] = e.Cluster.TotalStorage()
	}
	if !(totals[csar.Raid0] < totals[csar.Raid5] &&
		totals[csar.Raid5] <= totals[csar.Hybrid] &&
		totals[csar.Hybrid] < totals[csar.Raid1]) {
		t.Fatalf("storage ordering violated: %v", totals)
	}
}

func TestFlashStorageStripeUnitEffect(t *testing.T) {
	// Table 2's FLASH rows: with a large stripe unit the Hybrid scheme's
	// unit-granular overflow slots make it use MORE storage than RAID1;
	// with a small stripe unit it uses less.
	run := func(scheme csar.Scheme, su int64) int64 {
		e := env(t, 5, scheme, su)
		if _, err := FlashIO(e, "f", 4, 4<<20); err != nil {
			t.Fatal(err)
		}
		return e.Cluster.TotalStorage()
	}
	storage := func(su int64) (hybrid, raid1 int64) {
		hybrid, raid1 = run(csar.Hybrid, su), run(csar.Raid1, su)
		// The layout is planned from the seeded streams before the ranks
		// run, so the rows do not depend on how the ranks interleave.
		if again := run(csar.Hybrid, su); again != hybrid {
			t.Fatalf("%dK stripe unit: hybrid stored %d bytes, then %d: the layout depends on scheduling", su>>10, hybrid, again)
		}
		if again := run(csar.Raid1, su); again != raid1 {
			t.Fatalf("%dK stripe unit: raid1 stored %d bytes, then %d: the layout depends on scheduling", su>>10, raid1, again)
		}
		t.Logf("%dK stripe unit: hybrid %d, raid1 %d", su>>10, hybrid, raid1)
		return
	}
	h64, r64 := storage(64 << 10)
	if h64 <= r64 {
		t.Fatalf("64K stripe unit: hybrid %d should exceed raid1 %d (fragmentation)", h64, r64)
	}
	h8, r8 := storage(8 << 10)
	if h8 >= r8 {
		t.Fatalf("8K stripe unit: hybrid %d should undercut raid1 %d", h8, r8)
	}
}
