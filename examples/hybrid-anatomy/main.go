// Hybrid anatomy: dissects how the Hybrid scheme handles a single
// unaligned write — the per-write adaptive decision that is the paper's
// core contribution. It prints the write plan (which byte ranges go down
// the RAID5 full-stripe path and which to the mirrored overflow region),
// performs the write, and shows the resulting server-side state, including
// the automatic migration back to RAID5 when a later full-stripe write
// supersedes the overflow data.
//
//	go run ./examples/hybrid-anatomy
package main

import (
	"fmt"
	"log"

	"csar"
	"csar/internal/core"
	"csar/internal/raid"
	"csar/internal/wire"
)

func main() {
	const servers = 4
	const su = 64 << 10 // stripe unit
	l, err := raid.Resolve(wire.FileRef{Servers: servers, StripeUnit: su, Scheme: wire.Hybrid})
	if err != nil {
		log.Fatal(err)
	}
	g := l.Geometry
	ss := g.StripeSize()
	fmt.Printf("layout: %d servers, %d KB stripe unit -> %d KB per parity stripe\n\n",
		servers, su>>10, ss>>10)

	// The write every checkpointing benchmark in the paper produces: large
	// but not stripe-aligned.
	off := int64(100_000)
	length := int64(600_000)
	fmt.Printf("write: [%d, %d) — %d KB starting mid-stripe\n\n", off, off+length, length>>10)

	plan := core.PlanWrite(g, l.Shape, off, length)
	fmt.Println("hybrid write plan (Section 4's per-write rule):")
	for _, pt := range plan.Portions {
		var how string
		switch pt.Mode {
		case core.ModeFullStripe:
			how = fmt.Sprintf("RAID5: data in place + parity on server %d...",
				g.ParityServerOf(g.StripeOf(pt.Span.Off)))
		case core.ModeOverflow:
			how = "RAID1-style: data + mirror into the overflow regions (no read, no lock)"
		}
		fmt.Printf("  [%8d, %8d) %7d KB  %-12s %s\n",
			pt.Span.Off, pt.Span.End(), pt.Span.Len>>10, pt.Mode, how)
	}

	// Compare with what plain RAID5 would have to do.
	fmt.Println("\nplain RAID5 would instead read-modify-write the partial stripes:")
	for _, s := range core.PartialStripes(g, off, length) {
		fmt.Printf("  stripe %d: lock parity on server %d, read old data+parity, write back\n",
			s, g.ParityServerOf(s))
	}

	// Now actually do it and inspect the servers.
	cluster, err := csar.NewCluster(csar.ClusterOptions{Servers: servers})
	if err != nil {
		log.Fatal(err)
	}
	defer cluster.Close()
	client := cluster.NewClient()
	f, err := client.Create("anatomy", csar.FileOptions{Scheme: csar.Hybrid, StripeUnit: su})
	if err != nil {
		log.Fatal(err)
	}
	payload := make([]byte, length)
	for i := range payload {
		payload[i] = byte(i)
	}
	if _, err := f.WriteAt(payload, off); err != nil {
		log.Fatal(err)
	}
	_, by, err := f.StorageBytes()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nafter the write, across all servers (KB): data=%d parity=%d overflow=%d ov-mirror=%d\n",
		by[0]>>10, by[2]>>10, by[3]>>10, by[4]>>10)

	// A later full-stripe write covering the whole area migrates the
	// overflow data back to RAID5 automatically.
	aligned := make([]byte, 4*ss)
	if _, err := f.WriteAt(aligned, 0); err != nil {
		log.Fatal(err)
	}
	fmt.Println("\nafter a full-stripe overwrite of the same region:")
	for i := 0; i < servers; i++ {
		resp, err := client.InternalClient().ServerCaller(i).Call(
			&wire.OverflowDump{File: f.Internal().Ref()})
		if err != nil {
			log.Fatal(err)
		}
		dump := resp.(*wire.OverflowDumpResp)
		fmt.Printf("  server %d overflow table: %d live extents\n", i, len(dump.Extents))
	}
	fmt.Println("\n(the head/tail extents were invalidated by the full-stripe write —")
	fmt.Println(" the data migrated back to RAID5, exactly as Section 4 describes)")

	problems, err := client.Verify(f)
	if err != nil {
		log.Fatal(err)
	}
	if len(problems) > 0 {
		log.Fatalf("inconsistent: %v", problems)
	}
	fmt.Println("\nfile verified consistent")
}
