// Quickstart: start an in-process CSAR cluster, write a file under each
// redundancy scheme, read it back, and compare what each scheme stores.
//
//	go run ./examples/quickstart
package main

import (
	"bytes"
	"fmt"
	"log"

	"csar"
)

func main() {
	// A five-server cluster, functional mode (no performance model).
	cluster, err := csar.NewCluster(csar.ClusterOptions{Servers: 5})
	if err != nil {
		log.Fatal(err)
	}
	defer cluster.Close()
	client := cluster.NewClient()

	// One megabyte of recognizable data.
	payload := make([]byte, 1<<20)
	for i := range payload {
		payload[i] = byte(uint32(i) * 2654435761)
	}

	fmt.Println("scheme   stored(KB)  overhead  notes")
	for _, scheme := range []csar.Scheme{csar.Raid0, csar.Raid1, csar.Raid5, csar.Hybrid} {
		name := "demo-" + scheme.String()
		f, err := client.Create(name, csar.FileOptions{
			Scheme:     scheme,
			StripeUnit: 64 << 10,
		})
		if err != nil {
			log.Fatal(err)
		}

		// An aligned bulk write plus an unaligned small overwrite — the mix
		// the Hybrid scheme adapts to per write.
		if _, err := f.WriteAt(payload, 0); err != nil {
			log.Fatal(err)
		}
		if _, err := f.WriteAt([]byte("hello, adaptive redundancy"), 100_000); err != nil {
			log.Fatal(err)
		}
		if err := f.Sync(); err != nil {
			log.Fatal(err)
		}

		// Read back and verify.
		got := make([]byte, len(payload))
		if _, err := f.ReadAt(got, 0); err != nil {
			log.Fatal(err)
		}
		want := append([]byte(nil), payload...)
		copy(want[100_000:], "hello, adaptive redundancy")
		if !bytes.Equal(got, want) {
			log.Fatalf("%v: read-back mismatch", scheme)
		}

		// What did redundancy cost?
		total, by, err := f.StorageBytes()
		if err != nil {
			log.Fatal(err)
		}
		note := ""
		if by[3] > 0 {
			note = fmt.Sprintf("overflow holds %d KB (partial-stripe writes)", by[3]>>10)
		}
		fmt.Printf("%-8s %9d  %7.2fx  %s\n",
			scheme, total>>10, float64(total)/float64(len(want)), note)

		// And is it self-consistent? (mirror equality / parity correctness)
		problems, err := client.Verify(f)
		if err != nil {
			log.Fatal(err)
		}
		if len(problems) > 0 {
			log.Fatalf("%v: inconsistent: %v", scheme, problems)
		}
	}
	fmt.Println("\nall schemes verified consistent")
}
