package bench

import (
	"fmt"
	"io"
	"time"

	"csar"
	"csar/internal/client"
	"csar/internal/workload"
)

func init() {
	register(Experiment{"fig1", "Figure 1: time to fill a disk to capacity", fig1})
	register(Experiment{"fig3", "Figure 3: parity-lock overhead under contention", fig3})
	register(Experiment{"fig4a", "Figure 4a: large (full-stripe) write bandwidth", fig4a})
	register(Experiment{"fig4b", "Figure 4b: small (one-block) write bandwidth", fig4b})
	register(Experiment{"writebuf", "Section 5.2: server write-buffering ablation", writeBuf})
}

// fig1 reproduces the motivation figure: disk capacity has grown much
// faster than disk bandwidth, so the time to fill a disk to capacity grew
// roughly tenfold over fifteen years. The data points are representative
// commodity drives from Dahlin's technology-trend tables, which the paper
// cites as its source.
func fig1(cfg Config, w io.Writer) error {
	drives := []struct {
		year     int
		capacity float64 // MB
		bw       float64 // MB/s
	}{
		{1983, 30, 0.6},
		{1987, 344, 1.3},
		{1990, 672, 2.0},
		{1993, 1370, 3.5},
		{1996, 4300, 7.0},
		{1999, 18200, 15.0},
		{2002, 73400, 35.0},
	}
	t := &Table{
		Title:  "Figure 1: time to fill a disk to capacity over the years",
		Header: []string{"year", "capacity(MB)", "bandwidth(MB/s)", "fill-time(min)"},
	}
	first, last := 0.0, 0.0
	for _, d := range drives {
		minutes := d.capacity / d.bw / 60
		if first == 0 {
			first = minutes
		}
		last = minutes
		t.AddRow(fmt.Sprintf("%d", d.year), fmt.Sprintf("%.0f", d.capacity),
			fmt.Sprintf("%.1f", d.bw), fmt.Sprintf("%.1f", minutes))
	}
	t.Notes = append(t.Notes, fmt.Sprintf(
		"fill time grew %.0fx across the period (the paper reports ~10x over 15 years)", last/first))
	_, err := t.WriteTo(w)
	return err
}

// fig3 reproduces the locking-overhead microbenchmark: five clients write
// distinct blocks of one RAID5 stripe (six servers, so a stripe has five
// data blocks). R5-NOLOCK transfers the same bytes without the lock; the
// paper measures locking at about 20% at five clients.
func fig3(cfg Config, w io.Writer) error {
	const servers = 6
	const clients = 5
	const su = 64 << 10
	rounds := int(cfg.scaled(4096, 64))

	t := &Table{
		Title:  fmt.Sprintf("Figure 3: %d clients writing distinct blocks of one stripe (MB/s)", clients),
		Header: []string{"scheme", "MB/s"},
	}
	var r5, nolock float64
	for _, col := range []column{{"raid0", csar.Raid0, 0}, r5NoLock, {"raid5", csar.Raid5, 0}} {
		bw, err := cfg.runTimedPoint("fig3", col.name, servers, func(cl *csar.Cluster) (int64, error) {
			return workload.Contention(col.env(cl, su), "f", clients, rounds)
		})
		if err != nil {
			return err
		}
		label := col.name
		switch col.name {
		case r5NoLock.name:
			label = "r5-no-lock"
			nolock = bw
		case "raid5":
			r5 = bw
		}
		t.AddRow(label, mb(bw))
	}
	if nolock > 0 {
		t.Notes = append(t.Notes, fmt.Sprintf(
			"locking overhead: %.0f%% (paper: ~20%%)", (1-r5/nolock)*100))
	}
	_, err := t.WriteTo(w)
	return err
}

// sweepServers runs one single-client workload across server counts and
// scheme columns and renders the Figure 4 style table (rows = #iod). A cell
// whose layout the resolver refuses at that server count is left blank.
func sweepServers(cfg Config, w io.Writer, name, title string, cols []column,
	run func(e workload.Env) (int64, error)) error {
	t := &Table{Title: title, Header: []string{"#iod"}}
	for _, col := range cols {
		t.Header = append(t.Header, col.name)
	}
	for n := 1; n <= cfg.MaxServers-1; n++ {
		row := []string{fmt.Sprintf("%d", n)}
		for _, col := range cols {
			if _, err := workload.Layout(col.scheme, n, 64<<10); err != nil {
				row = append(row, "-")
				continue
			}
			bw, err := cfg.runTimedPoint(name, col.name, n, func(cl *csar.Cluster) (int64, error) {
				return run(col.env(cl, 64<<10))
			})
			if err != nil {
				return err
			}
			row = append(row, mb(bw))
		}
		t.AddRow(row...)
	}
	_, err := t.WriteTo(w)
	return err
}

// fig4a: a single client writes whole stripes — RAID1 flattens early (its
// client link carries 2x the bytes), RAID5 and Hybrid track RAID0 minus
// the parity fraction, and RAID5-npc isolates the parity-computation cost.
func fig4a(cfg Config, w io.Writer) error {
	total := cfg.scaled(1<<30, 8<<20) // 1 GB of paper-scale traffic
	return sweepServers(cfg, w, "fig4a",
		"Figure 4a: full-stripe writes, single client (MB/s)",
		[]column{{"raid0", csar.Raid0, 0}, {"raid1", csar.Raid1, 0}, {"raid5", csar.Raid5, 0},
			{"hybrid", csar.Hybrid, 0}, {"raid5-npc", csar.Raid5, client.AblateCompute}, {"rs", csar.ReedSolomon, 0}},
		func(e workload.Env) (int64, error) {
			chunkStripes := int((4 << 20) / e.StripeSize())
			if chunkStripes < 1 {
				chunkStripes = 1
			}
			return workload.FullStripeWrite(e, "f", total, chunkStripes)
		})
}

// fig4b: one-block writes into a just-created file — RAID5 pays the
// read-modify-write (from cache here), RAID1 and Hybrid just write twice.
func fig4b(cfg Config, w io.Writer) error {
	total := cfg.scaled(256<<20, 4<<20)
	return sweepServers(cfg, w, "fig4b",
		"Figure 4b: one-block writes, single client (MB/s)",
		[]column{{"raid0", csar.Raid0, 0}, {"raid1", csar.Raid1, 0}, {"raid5", csar.Raid5, 0},
			{"hybrid", csar.Hybrid, 0}, {"rs", csar.ReedSolomon, 0}},
		func(e workload.Env) (int64, error) {
			return workload.SmallBlockWrite(e, "f", total)
		})
}

// writeBuf reproduces the Section 5.2 problem and fix: unaligned writes to
// a pre-existing, uncached file. Without server write buffering, the data
// is written in receive-chunk pieces whose boundary pages force
// read-before-write from disk.
func writeBuf(cfg Config, w io.Writer) error {
	const servers = 4
	total := cfg.scaled(256<<20, 8<<20)
	t := &Table{
		Title:  "Section 5.2: overwrite of an uncached file, with/without write buffering (MB/s)",
		Header: []string{"write-buffering", "raid0 MB/s"},
	}
	for _, buffering := range []bool{false, true} {
		buffering := buffering
		cl, err := csar.NewCluster(csar.ClusterOptions{
			Servers:        servers,
			Model:          cfg.model(),
			WriteBuffering: &buffering,
		})
		if err != nil {
			return err
		}
		e := env(cl, csar.Raid0, 64<<10)
		// Create the file, flush, and evict it: the overwrite then hits
		// uncached pages.
		if _, err := workload.FullStripeWrite(e, "f", total, 16); err != nil {
			cl.Close()
			return err
		}
		cl.DropCaches()
		start := time.Now()
		n, err := unalignedOverwrite(cl, "f", total)
		if err != nil {
			cl.Close()
			return err
		}
		sim := cl.SimElapsed(start)
		cl.Close()
		label := "off"
		if buffering {
			label = "on"
		}
		t.AddRow(label, mb(float64(n)/1e6/sim.Seconds()))
	}
	t.Notes = append(t.Notes,
		"the paper observed degraded overwrite bandwidth until the write-buffer fix; 'on' is CSAR's default")
	_, err := t.WriteTo(w)
	return err
}

// unalignedOverwrite rewrites an existing file in 1 MiB chunks starting at
// a deliberately page-unaligned offset.
func unalignedOverwrite(cl *csar.Cluster, name string, total int64) (int64, error) {
	c := cl.NewClient()
	f, err := c.Open(name)
	if err != nil {
		return 0, err
	}
	const chunk = 1 << 20
	buf := make([]byte, chunk)
	var n int64
	for off := int64(13); off+chunk <= total; off += chunk {
		if _, err := f.WriteAt(buf, off); err != nil {
			return 0, err
		}
		n += chunk
	}
	if err := f.Sync(); err != nil {
		return 0, err
	}
	return n, nil
}
