// Benchmarks mirroring the paper's evaluation, one per table and figure.
// Each benchmark runs a reduced version of the corresponding experiment and
// reports the modeled bandwidth as sim-MB/s (or, for the untimed engine
// benchmarks, real throughput). The full-size experiments with the paper's
// sweeps are generated by cmd/csar-bench; see EXPERIMENTS.md.
package csar_test

import (
	"fmt"
	"testing"
	"time"

	"csar"
	"csar/internal/client"
	"csar/internal/workload"
)

// benchScale is the time compression used by the modeled benchmarks: small
// enough to keep iterations fast, large enough that modeled time dominates.
const benchScale = 100 * time.Millisecond

func benchCluster(b *testing.B, servers int, timed bool) *csar.Cluster {
	b.Helper()
	opts := csar.ClusterOptions{Servers: servers}
	if timed {
		opts.Model = csar.DefaultModel(benchScale)
		opts.Model.ServerCacheBytes = 64 << 20
	}
	c, err := csar.NewCluster(opts)
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(c.Close)
	return c
}

// reportSimBW reports modeled bandwidth for a timed run.
func reportSimBW(b *testing.B, c *csar.Cluster, bytes int64, start time.Time) {
	b.Helper()
	sim := c.SimElapsed(start).Seconds()
	if sim > 0 {
		b.ReportMetric(float64(bytes)/1e6/sim, "sim-MB/s")
	}
}

var benchSchemes = []csar.Scheme{csar.Raid0, csar.Raid1, csar.Raid5, csar.Hybrid}

// ablatedCase is one sub-benchmark of a figure that measures an ablation: a
// scheme, run on a cluster whose parity engine has the given ablation.
type ablatedCase struct {
	name   string
	scheme csar.Scheme
	ablate client.Ablation
}

// BenchmarkFig3LockContention is Figure 3: five clients writing distinct
// blocks of one RAID5 stripe, serializing on the parity lock.
func BenchmarkFig3LockContention(b *testing.B) {
	for _, bc := range []ablatedCase{
		{"raid0", csar.Raid0, 0}, {"raid5-nolock", csar.Raid5, client.AblateLock}, {"raid5", csar.Raid5, 0},
	} {
		b.Run(bc.name, func(b *testing.B) {
			c := benchCluster(b, 6, true)
			c.Internal().Ablation = bc.ablate
			e := workload.Env{Cluster: c, Scheme: bc.scheme, StripeUnit: 64 << 10}
			var bytes int64
			start := time.Now()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				n, err := workload.Contention(e, fmt.Sprintf("f%d", i), 5, 16)
				if err != nil {
					b.Fatal(err)
				}
				bytes += n
			}
			b.StopTimer()
			reportSimBW(b, c, bytes, start)
		})
	}
}

// BenchmarkFig4aFullStripeWrite is Figure 4a: a single client writing whole
// stripes to 7 I/O servers.
func BenchmarkFig4aFullStripeWrite(b *testing.B) {
	for _, bc := range []ablatedCase{
		{"raid0", csar.Raid0, 0}, {"raid1", csar.Raid1, 0}, {"raid5", csar.Raid5, 0},
		{"hybrid", csar.Hybrid, 0}, {"raid5-npc", csar.Raid5, client.AblateCompute},
	} {
		b.Run(bc.name, func(b *testing.B) {
			c := benchCluster(b, 7, true)
			c.Internal().Ablation = bc.ablate
			e := workload.Env{Cluster: c, Scheme: bc.scheme, StripeUnit: 64 << 10}
			var bytes int64
			start := time.Now()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				n, err := workload.FullStripeWrite(e, fmt.Sprintf("f%d", i), 8<<20, 4)
				if err != nil {
					b.Fatal(err)
				}
				bytes += n
			}
			b.StopTimer()
			reportSimBW(b, c, bytes, start)
		})
	}
}

// BenchmarkFig4bSmallWrite is Figure 4b: one-block writes into a freshly
// created file (cache-warm read-modify-writes for RAID5).
func BenchmarkFig4bSmallWrite(b *testing.B) {
	for _, scheme := range benchSchemes {
		b.Run(scheme.String(), func(b *testing.B) {
			c := benchCluster(b, 7, true)
			e := workload.Env{Cluster: c, Scheme: scheme, StripeUnit: 64 << 10}
			var bytes int64
			start := time.Now()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				n, err := workload.SmallBlockWrite(e, fmt.Sprintf("f%d", i), 2<<20)
				if err != nil {
					b.Fatal(err)
				}
				bytes += n
			}
			b.StopTimer()
			reportSimBW(b, c, bytes, start)
		})
	}
}

// BenchmarkFig5PerfWrite is Figure 5b: ROMIO perf, four clients writing
// 4 MB each at rank offsets, flushed.
func BenchmarkFig5PerfWrite(b *testing.B) {
	for _, scheme := range benchSchemes {
		b.Run(scheme.String(), func(b *testing.B) {
			c := benchCluster(b, 8, true)
			e := workload.Env{Cluster: c, Scheme: scheme, StripeUnit: 64 << 10}
			var bytes int64
			start := time.Now()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				n, err := workload.PerfWrite(e, fmt.Sprintf("f%d", i), 4, 4<<20)
				if err != nil {
					b.Fatal(err)
				}
				bytes += n
			}
			b.StopTimer()
			reportSimBW(b, c, bytes, start)
		})
	}
}

// BenchmarkFig6BTIO is Figures 6/7: collective checkpointing, initial write
// followed by an uncached overwrite.
func BenchmarkFig6BTIO(b *testing.B) {
	class := workload.BTIOClass{Name: "bench", Bytes: 16 << 20, Steps: 2}
	for _, scheme := range benchSchemes {
		b.Run(scheme.String(), func(b *testing.B) {
			c := benchCluster(b, 8, true)
			e := workload.Env{Cluster: c, Scheme: scheme, StripeUnit: 64 << 10}
			var bytes int64
			start := time.Now()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				n, err := workload.BTIO(e, fmt.Sprintf("f%d", i), 4, class)
				if err != nil {
					b.Fatal(err)
				}
				c.DropCaches()
				n2, err := workload.BTIO(e, fmt.Sprintf("f%d", i), 4, class)
				if err != nil {
					b.Fatal(err)
				}
				bytes += n + n2
			}
			b.StopTimer()
			reportSimBW(b, c, bytes, start)
		})
	}
}

// BenchmarkFig8Flash is the FLASH I/O slice of Figure 8: the small-write
// heavy application where Hybrid's advantage over RAID5 is largest.
func BenchmarkFig8Flash(b *testing.B) {
	for _, scheme := range benchSchemes {
		b.Run(scheme.String(), func(b *testing.B) {
			c := benchCluster(b, 8, true)
			e := workload.Env{Cluster: c, Scheme: scheme, StripeUnit: 64 << 10}
			var bytes int64
			start := time.Now()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				n, err := workload.FlashIO(e, fmt.Sprintf("f%d", i), 4, 4<<20)
				if err != nil {
					b.Fatal(err)
				}
				bytes += n
			}
			b.StopTimer()
			reportSimBW(b, c, bytes, start)
		})
	}
}

// BenchmarkTab2Storage is Table 2: bytes stored per scheme for a mixed
// workload, reported as the overhead ratio over the data size.
func BenchmarkTab2Storage(b *testing.B) {
	for _, scheme := range benchSchemes {
		b.Run(scheme.String(), func(b *testing.B) {
			var ratio float64
			for i := 0; i < b.N; i++ {
				c := benchCluster(b, 8, false)
				e := workload.Env{Cluster: c, Scheme: scheme, StripeUnit: 64 << 10}
				n, err := workload.Cactus(e, fmt.Sprintf("f%d", i), 2, 4<<20)
				if err != nil {
					b.Fatal(err)
				}
				ratio = float64(c.TotalStorage()) / float64(n)
			}
			b.ReportMetric(ratio, "storage-ratio")
		})
	}
}

// BenchmarkEngineWrite measures the raw (untimed) engine throughput of each
// scheme through the full client/server stack — real work, no model.
func BenchmarkEngineWrite(b *testing.B) {
	for _, scheme := range benchSchemes {
		b.Run(scheme.String(), func(b *testing.B) {
			c := benchCluster(b, 5, false)
			cl := c.NewClient()
			f, err := cl.Create("f", csar.FileOptions{Scheme: scheme})
			if err != nil {
				b.Fatal(err)
			}
			buf := make([]byte, 1<<20)
			b.SetBytes(int64(len(buf)))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := f.WriteAt(buf, int64(i%16)<<20); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkEngineUnalignedWrite stresses the partial-stripe paths (RMW for
// RAID5, overflow for Hybrid) with unaligned 100 KB writes.
func BenchmarkEngineUnalignedWrite(b *testing.B) {
	for _, scheme := range benchSchemes {
		b.Run(scheme.String(), func(b *testing.B) {
			c := benchCluster(b, 5, false)
			cl := c.NewClient()
			f, err := cl.Create("f", csar.FileOptions{Scheme: scheme})
			if err != nil {
				b.Fatal(err)
			}
			buf := make([]byte, 100_000)
			b.SetBytes(int64(len(buf)))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := f.WriteAt(buf, int64(i%64)*100_001); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkEngineRead measures read throughput (identical across schemes,
// as in Figure 5a — redundancy is never read during normal operation).
func BenchmarkEngineRead(b *testing.B) {
	for _, scheme := range benchSchemes {
		b.Run(scheme.String(), func(b *testing.B) {
			c := benchCluster(b, 5, false)
			cl := c.NewClient()
			f, err := cl.Create("f", csar.FileOptions{Scheme: scheme})
			if err != nil {
				b.Fatal(err)
			}
			if _, err := f.WriteAt(make([]byte, 16<<20), 0); err != nil {
				b.Fatal(err)
			}
			buf := make([]byte, 1<<20)
			b.SetBytes(int64(len(buf)))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := f.ReadAt(buf, int64(i%16)<<20); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkDegradedRead measures reconstruction-path reads with one server
// down.
func BenchmarkDegradedRead(b *testing.B) {
	for _, scheme := range []csar.Scheme{csar.Raid1, csar.Raid5, csar.Hybrid} {
		b.Run(scheme.String(), func(b *testing.B) {
			c := benchCluster(b, 5, false)
			cl := c.NewClient()
			f, err := cl.Create("f", csar.FileOptions{Scheme: scheme})
			if err != nil {
				b.Fatal(err)
			}
			if _, err := f.WriteAt(make([]byte, 8<<20), 0); err != nil {
				b.Fatal(err)
			}
			c.StopServer(2)
			cl.MarkDown(2)
			buf := make([]byte, 1<<20)
			b.SetBytes(int64(len(buf)))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := f.ReadAt(buf, int64(i%8)<<20); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkRebuild measures reconstructing a replaced server's stores.
func BenchmarkRebuild(b *testing.B) {
	for _, scheme := range []csar.Scheme{csar.Raid1, csar.Raid5, csar.Hybrid} {
		b.Run(scheme.String(), func(b *testing.B) {
			c := benchCluster(b, 5, false)
			cl := c.NewClient()
			f, err := cl.Create("f", csar.FileOptions{Scheme: scheme})
			if err != nil {
				b.Fatal(err)
			}
			if _, err := f.WriteAt(make([]byte, 4<<20), 0); err != nil {
				b.Fatal(err)
			}
			b.SetBytes(4 << 20)
			b.ResetTimer()
			var rebuilding time.Duration
			for i := 0; i < b.N; i++ {
				c.StopServer(1)
				c.ReplaceServer(1)
				start := time.Now()
				if err := cl.Rebuild(f, 1); err != nil {
					b.Fatal(err)
				}
				rebuilding += time.Since(start)
			}
			// File bytes re-protected per second of rebuild time alone,
			// excluding the per-iteration replace overhead.
			b.ReportMetric(float64(4<<20)*float64(b.N)/rebuilding.Seconds()/1e6, "rebuild-MB/s")
		})
	}
}
