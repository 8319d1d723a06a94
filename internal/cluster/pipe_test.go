package cluster

import (
	"bytes"
	"sync"
	"testing"

	"csar/internal/recovery"
	"csar/internal/wire"
)

// TestPipeTransportFailureLifecycle runs the failure workflow through the
// real RPC stack (framing, multiplexing, reused handler goroutines): degraded
// reads and writes, rebuild, verification.
func TestPipeTransportFailureLifecycle(t *testing.T) {
	for _, scheme := range redundantSchemes {
		t.Run(scheme.String(), func(t *testing.T) {
			c := newCluster(t, 4)
			cl := c.NewClient()
			f, err := cl.Create("p", 4, 4096, scheme)
			if err != nil {
				t.Fatal(err)
			}
			ref := pattern(100_000, 1)
			f.WriteAt(ref, 0)

			c.StopServer(1)
			cl.MarkDown(1)
			got := make([]byte, len(ref))
			if _, err := f.ReadAt(got, 0); err != nil {
				t.Fatalf("degraded read over rpc: %v", err)
			}
			if !bytes.Equal(got, ref) {
				t.Fatal("degraded read over rpc returned wrong data")
			}
			patch := pattern(5000, 9)
			if _, err := f.WriteAt(patch, 7777); err != nil {
				t.Fatalf("degraded write over rpc: %v", err)
			}
			copy(ref[7777:], patch)

			c.ReplaceServer(1)
			if err := recovery.Rebuild(cl, f, 1); err != nil {
				t.Fatalf("rebuild over rpc: %v", err)
			}
			cl.MarkUp(1)
			if _, err := f.ReadAt(got, 0); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, ref) {
				t.Fatal("contents wrong after rebuild over rpc")
			}
			problems, err := recovery.Verify(cl, f)
			if err != nil {
				t.Fatal(err)
			}
			if len(problems) > 0 {
				t.Fatalf("inconsistent after rpc lifecycle: %v", problems)
			}
		})
	}
}

// TestPipeTransportConcurrentClients drives parity-lock contention through
// real connections: many clients, one stripe, consistency at the end.
func TestPipeTransportConcurrentClients(t *testing.T) {
	c := newCluster(t, 6)
	setup := c.NewClient()
	const su = 4096
	f, err := setup.Create("shared", 6, su, wire.Raid5)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteAt(make([]byte, 5*su), 0); err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	errs := make([]error, 5)
	for w := 0; w < 5; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			cl := c.NewClient()
			fw, err := cl.Open("shared")
			if err != nil {
				errs[w] = err
				return
			}
			for round := 0; round < 5; round++ {
				if _, err := fw.WriteAt(pattern(su, byte(w+round)), int64(w)*su); err != nil {
					errs[w] = err
					return
				}
			}
		}(w)
	}
	wg.Wait()
	for w, err := range errs {
		if err != nil {
			t.Fatalf("writer %d: %v", w, err)
		}
	}
	problems, err := recovery.Verify(setup, f)
	if err != nil {
		t.Fatal(err)
	}
	if len(problems) > 0 {
		t.Fatalf("parity inconsistent over rpc: %v", problems)
	}
}

// TestPipeTransportStoppedServerSurfacesError checks that calls to a
// stopped server fail cleanly through the rpc stack rather than hanging.
func TestPipeTransportStoppedServerSurfacesError(t *testing.T) {
	c := newCluster(t, 3)
	cl := c.NewClient()
	f, err := cl.Create("x", 3, 4096, wire.Raid0)
	if err != nil {
		t.Fatal(err)
	}
	f.WriteAt(pattern(50_000, 2), 0)
	c.StopServer(0)
	if _, err := f.ReadAt(make([]byte, 50_000), 0); err == nil {
		t.Fatal("read through stopped server succeeded")
	}
	c.RestartServer(0)
	if _, err := f.ReadAt(make([]byte, 50_000), 0); err != nil {
		t.Fatalf("after restart: %v", err)
	}
}
