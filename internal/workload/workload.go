// Package workload generates the I/O request streams of every benchmark and
// application in the paper's evaluation (Section 6):
//
//   - the full-stripe and one-block write microbenchmarks (Figure 4);
//   - the parity-lock contention microbenchmark (Figure 3);
//   - ROMIO's perf concurrent-write benchmark (Figure 5);
//   - NAS BTIO (full-mpiio) checkpointing (Figures 6 and 7);
//   - FLASH I/O, Cactus BenchIO and Hartree-Fock (Figure 8 and Table 2).
//
// The generators reproduce the request mix the paper reports at the PVFS
// layer (sizes, alignment, concurrency), not the applications' numerics:
// the redundancy schemes react only to the offset/size/concurrency stream.
package workload

import (
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"csar"
)

// Env binds a workload to a cluster and file configuration.
type Env struct {
	Cluster *csar.Cluster
	Scheme  csar.Scheme
	// StripeUnit is the file stripe unit (default 64 KiB).
	StripeUnit int64
	// FileServers is the number of servers files stripe over (0 = all).
	FileServers int
	// ParityUnits is the RS(k, m) parity count for the ReedSolomon scheme
	// (0 = 2); ignored for other schemes.
	ParityUnits int
}

func (e Env) fileOpts() csar.FileOptions {
	return csar.FileOptions{
		Servers:     e.servers(),
		StripeUnit:  e.stripeUnit(),
		Scheme:      e.Scheme,
		ParityUnits: e.parityUnits(),
	}
}

// parityUnits returns the effective parity-unit count of the env's files:
// RS files default to m = 2, every other scheme takes none.
func (e Env) parityUnits() int {
	if e.Scheme != csar.ReedSolomon {
		return 0
	}
	if e.ParityUnits > 0 {
		return e.ParityUnits
	}
	return 2
}

func (e Env) servers() int {
	if e.FileServers > 0 {
		return e.FileServers
	}
	return e.Cluster.Servers()
}

func (e Env) stripeUnit() int64 {
	if e.StripeUnit > 0 {
		return e.StripeUnit
	}
	return csar.DefaultStripeUnit
}

// StripeSize returns the data bytes per parity stripe for the env's layout.
// For single-server layouts (no parity possible) it degenerates to one
// stripe unit so chunked workloads still have a sensible granule.
func (e Env) StripeSize() int64 {
	w := e.servers() - 1
	if e.Scheme == csar.ReedSolomon {
		w = e.servers() - e.parityUnits()
	}
	if w < 1 {
		w = 1
	}
	return int64(w) * e.stripeUnit()
}

// openOrCreate opens name if it exists, otherwise creates it.
func (e Env) openOrCreate(cl *csar.Client, name string) (*csar.File, error) {
	if f, err := cl.Open(name); err == nil {
		return f, nil
	}
	return cl.Create(name, e.fileOpts())
}

// fill returns a deterministic payload of n bytes.
func fill(n int64, seed byte) []byte {
	p := make([]byte, n)
	for i := range p {
		p[i] = byte(i)*31 + seed
	}
	return p
}

// FullStripeWrite is the Figure 4(a) microbenchmark: a single client writes
// totalBytes sequentially in chunks of chunkStripes whole stripes — the
// best case for RAID5 and the worst for RAID1's doubled client traffic.
func FullStripeWrite(e Env, name string, totalBytes int64, chunkStripes int) (int64, error) {
	cl := e.Cluster.NewClient()
	f, err := cl.Create(name, e.fileOpts())
	if err != nil {
		return 0, err
	}
	chunk := int64(chunkStripes) * e.StripeSize()
	if chunk <= 0 {
		return 0, fmt.Errorf("workload: non-positive chunk")
	}
	total := totalBytes - totalBytes%chunk
	if total == 0 {
		total = chunk
	}
	buf := fill(chunk, 1)
	for off := int64(0); off < total; off += chunk {
		if _, err := f.WriteAt(buf, off); err != nil {
			return 0, err
		}
	}
	if err := f.Sync(); err != nil {
		return 0, err
	}
	return total, nil
}

// SmallBlockWrite is the Figure 4(b) microbenchmark: a single client
// creates a large file, then overwrites it in one-block (stripe-unit)
// chunks — every write is a partial-stripe update, and because the file
// was just created the old data and parity are in the servers' caches.
func SmallBlockWrite(e Env, name string, totalBytes int64) (int64, error) {
	cl := e.Cluster.NewClient()
	f, err := cl.Create(name, e.fileOpts())
	if err != nil {
		return 0, err
	}
	su := e.stripeUnit()
	total := totalBytes - totalBytes%su
	if total == 0 {
		total = su
	}
	// Create the file first (large sequential write), as the paper does.
	big := fill(total, 2)
	if _, err := f.WriteAt(big, 0); err != nil {
		return 0, err
	}
	// Then overwrite one block at a time.
	buf := fill(su, 3)
	for off := int64(0); off < total; off += su {
		if _, err := f.WriteAt(buf, off); err != nil {
			return 0, err
		}
	}
	if err := f.Sync(); err != nil {
		return 0, err
	}
	return total, nil
}

// Contention is the Figure 3 microbenchmark: `clients` clients repeatedly
// write distinct blocks of the same RAID5 stripe, serializing on the
// stripe's parity lock. The file must stripe over clients+1 servers so the
// stripe has exactly `clients` data blocks. Returns total bytes written.
func Contention(e Env, name string, clients, rounds int) (int64, error) {
	setup := e.Cluster.NewClient()
	if _, err := setup.Create(name, e.fileOpts()); err != nil {
		return 0, err
	}
	su := e.stripeUnit()
	var wrote atomic.Int64
	var wg sync.WaitGroup
	errs := make([]error, clients)
	for w := 0; w < clients; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			cl := e.Cluster.NewClient()
			f, err := cl.Open(name)
			if err != nil {
				errs[w] = err
				return
			}
			buf := fill(su, byte(w))
			for round := 0; round < rounds; round++ {
				if _, err := f.WriteAt(buf, int64(w)*su); err != nil {
					errs[w] = err
					return
				}
				wrote.Add(su)
			}
		}(w)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return 0, err
		}
	}
	return wrote.Load(), nil
}

// PerfWrite is the write phase of ROMIO's perf benchmark (Figure 5b): each
// of `ranks` clients concurrently writes one buffer of bufBytes at offset
// rank*bufBytes, then the file is flushed (the paper reports post-flush
// numbers). Returns total bytes written.
func PerfWrite(e Env, name string, ranks int, bufBytes int64) (int64, error) {
	setup := e.Cluster.NewClient()
	if _, err := setup.Create(name, e.fileOpts()); err != nil {
		return 0, err
	}
	err := csar.RunParallel(ranks, func(r *csar.Rank) error {
		cl := e.Cluster.NewClient()
		f, err := cl.Open(name)
		if err != nil {
			return err
		}
		buf := fill(bufBytes, byte(r.ID()))
		if _, err := f.WriteAt(buf, int64(r.ID())*bufBytes); err != nil {
			return err
		}
		r.Barrier()
		if r.ID() == 0 {
			return f.Sync()
		}
		return nil
	})
	return int64(ranks) * bufBytes, err
}

// PerfRead is the read phase of ROMIO's perf benchmark (Figure 5a): each
// rank reads back its buffer. Redundancy is never read during normal
// operation, so all schemes should perform alike.
func PerfRead(e Env, name string, ranks int, bufBytes int64) (int64, error) {
	err := csar.RunParallel(ranks, func(r *csar.Rank) error {
		cl := e.Cluster.NewClient()
		f, err := cl.Open(name)
		if err != nil {
			return err
		}
		buf := make([]byte, bufBytes)
		_, err = f.ReadAt(buf, int64(r.ID())*bufBytes)
		return err
	})
	return int64(ranks) * bufBytes, err
}

// BTIOClass selects the NAS BTIO problem size. The byte totals are the
// paper's reported RAID0 storage for each class (Table 2), scaled by the
// harness.
type BTIOClass struct {
	Name  string
	Bytes int64
	Steps int
}

// The BTIO classes. BT performs 40 checkpoint dumps over its run.
var (
	BTIOClassA = BTIOClass{"A", 419 << 20, 40}
	BTIOClassB = BTIOClass{"B", 1698 << 20, 40}
	BTIOClassC = BTIOClass{"C", 6802 << 20, 40}
)

// Scaled shrinks the class for fast runs by reducing the number of
// checkpoint steps while keeping each step at its paper-scale size — the
// per-write request sizes and alignment, which drive the experiments'
// behaviour, stay exactly as in the full benchmark.
func (c BTIOClass) Scaled(div int64) BTIOClass {
	if div <= 1 {
		return c
	}
	step := c.Bytes / int64(c.Steps)
	steps := int(int64(c.Steps) / div)
	if steps < 2 {
		steps = 2
	}
	c.Steps = steps
	c.Bytes = step * int64(steps)
	return c
}

// BTIO reproduces the btio-full-mpiio access pattern: `ranks` ranks
// checkpoint a shared solution array in `Steps` collective writes. ROMIO's
// collective buffering (in csar.RunParallel's CollectiveWrite) merges each
// rank's contribution so the file system sees mostly ~4 MB writes whose
// starting offsets are not stripe-aligned — each causing one or two
// partial-stripe writes (Section 6.5). The same function serves the
// initial-write and overwrite experiments: it opens the file if it exists.
func BTIO(e Env, name string, ranks int, class BTIOClass) (int64, error) {
	stepBytes := class.Bytes / int64(class.Steps)
	// Keep the per-step region deliberately unaligned, as in the real
	// benchmark where the solution array size is not a stripe multiple.
	if stepBytes%e.StripeSize() == 0 {
		stepBytes -= 8
	}
	per := stepBytes / int64(ranks)
	if per <= 0 {
		return 0, fmt.Errorf("workload: BTIO step too small for %d ranks", ranks)
	}
	var total atomic.Int64
	err := csar.RunParallel(ranks, func(r *csar.Rank) error {
		cl := e.Cluster.NewClient()
		// Rank 0 creates (or opens) the checkpoint file; the others open it
		// after the barrier, as MPI_File_open with MPI_MODE_CREATE does.
		var f *csar.File
		var err error
		if r.ID() == 0 {
			f, err = e.openOrCreate(cl, name)
		}
		r.Barrier()
		if r.ID() != 0 {
			f, err = cl.Open(name)
		}
		if err != nil {
			return err
		}
		r.Barrier()
		buf := fill(per, byte(r.ID()+1))
		for step := 0; step < class.Steps; step++ {
			base := int64(step) * stepBytes
			off := base + int64(r.ID())*per
			if err := r.CollectiveWrite(f, []csar.Req{{Off: off, Data: buf}}); err != nil {
				return err
			}
			total.Add(per)
		}
		r.Barrier()
		if r.ID() == 0 {
			return f.Sync()
		}
		return nil
	})
	return total.Load(), err
}

// FlashIO reproduces the FLASH I/O benchmark's request mix at the PVFS
// layer: a large number of small records — the paper reports 46% (4
// processes) to 37% (24 processes) of requests under 2 KB — with the rest
// between 100 KB and 300 KB (Sections 6.6 and 6.7). The stream models
// HDF5's on-disk layout: each dataset is a handful of small header and
// attribute records followed by the variable's bulk data, with the bulk
// aligned to the next stripe-unit boundary (HDF5 chunk alignment). The
// isolated small records are what fragment the Hybrid scheme's
// unit-granular overflow slots when the stripe unit is large — the effect
// behind FLASH's Table 2 rows. Requests are independent writes, not
// collectively buffered, matching the paper's observation of small and
// medium requests at the PVFS layer.
func FlashIO(e Env, name string, ranks int, totalBytes int64) (int64, error) {
	setup := e.Cluster.NewClient()
	if _, err := setup.Create(name, e.fileOpts()); err != nil {
		return 0, err
	}
	smallPerDataset := 3 // ~43% of requests under 2 KB, as with 4 processes
	if ranks > 8 {
		smallPerDataset = 2 // ~33%, approaching the 24-process mix
	}
	su := e.stripeUnit()

	// The file layout is planned before any rank runs: the ranks advance in
	// lockstep, record by record, each taking its next record's extent from
	// the shared layout cursor (as HDF5 allocates datasets) with sizes drawn
	// from its own seeded stream. Handing out offsets while the ranks race
	// would make the layout — and with it Table 2's FLASH rows — depend on
	// goroutine scheduling.
	type record struct{ off, n int64 }
	plans := make([][]record, ranks)
	rngs := make([]*rand.Rand, ranks)
	for r := range rngs {
		rngs[r] = rand.New(rand.NewSource(int64(r) + 42))
	}
	var cursor, total int64
	for total < totalBytes {
		// Per dataset: header and attribute records — small, the first
		// aligned, so they sit apart from the bulk — then the variable's
		// bulk data, 4 medium records, the first chunk-aligned.
		for i := 0; i < smallPerDataset+4; i++ {
			for r := 0; r < ranks; r++ {
				n := 256 + rngs[r].Int63n(2<<10-256)
				if i >= smallPerDataset {
					n = 100<<10 + rngs[r].Int63n(200<<10)
				}
				if i == 0 || i == smallPerDataset {
					if rem := cursor % su; rem != 0 {
						cursor += su - rem
					}
				}
				plans[r] = append(plans[r], record{cursor, n})
				cursor += n
				total += n
			}
		}
	}

	err := csar.RunParallel(ranks, func(r *csar.Rank) error {
		cl := e.Cluster.NewClient()
		f, err := cl.Open(name)
		if err != nil {
			return err
		}
		for _, rec := range plans[r.ID()] {
			if _, err := f.WriteAt(fill(rec.n, byte(r.ID())), rec.off); err != nil {
				return err
			}
		}
		r.Barrier()
		if r.ID() == 0 {
			return f.Sync()
		}
		return nil
	})
	return total, err
}

// Cactus reproduces the Cactus/BenchIO checkpoint: each of `ranks` nodes
// writes perRank bytes of checkpoint data in 4 MB chunks into its own
// region of a shared file (Section 6.6).
func Cactus(e Env, name string, ranks int, perRank int64) (int64, error) {
	setup := e.Cluster.NewClient()
	if _, err := setup.Create(name, e.fileOpts()); err != nil {
		return 0, err
	}
	const chunk = 4 << 20
	var total atomic.Int64
	err := csar.RunParallel(ranks, func(r *csar.Rank) error {
		cl := e.Cluster.NewClient()
		f, err := cl.Open(name)
		if err != nil {
			return err
		}
		base := int64(r.ID()) * perRank
		for off := int64(0); off < perRank; off += chunk {
			n := int64(chunk)
			if off+n > perRank {
				n = perRank - off
			}
			if _, err := f.WriteAt(fill(n, byte(r.ID())), base+off); err != nil {
				return err
			}
			total.Add(n)
		}
		r.Barrier()
		if r.ID() == 0 {
			return f.Sync()
		}
		return nil
	})
	return total.Load(), err
}

// HartreeFock reproduces the argos phase of the Hartree-Fock code: a
// sequential application writing ~150 MB in 16 KB requests through the
// PVFS kernel module. The kernel crossing adds a fixed per-call overhead
// that levels the four schemes to within a few percent (Section 6.6);
// kernelOverhead models it (the paper's effect size corresponds to
// roughly half a millisecond per call).
func HartreeFock(e Env, name string, totalBytes int64, kernelOverhead time.Duration) (int64, error) {
	cl := e.Cluster.NewClient()
	f, err := cl.Create(name, e.fileOpts())
	if err != nil {
		return 0, err
	}
	const req = 16 << 10
	total := totalBytes - totalBytes%req
	if total == 0 {
		total = req
	}
	buf := fill(req, 9)
	for off := int64(0); off < total; off += req {
		e.Cluster.ModelDelay(kernelOverhead)
		if _, err := f.WriteAt(buf, off); err != nil {
			return 0, err
		}
	}
	if err := f.Sync(); err != nil {
		return 0, err
	}
	return total, nil
}
