package csar_test

import (
	"bytes"
	"net"
	"os"
	"reflect"
	"strings"
	"testing"
	"time"

	"csar"
	"csar/internal/meta"
	"csar/internal/rpc"
	"csar/internal/server"
	"csar/internal/simdisk"
)

// startTCPCluster brings up n loopback-TCP I/O daemons (served through the
// traced handler, as csar-iod does) plus a manager, and returns the manager
// address plus the server handles.
func startTCPCluster(t *testing.T, n int) (mgrAddr string, srvs []*server.Server) {
	t.Helper()
	addrs := make([]string, n)
	srvs = make([]*server.Server, n)
	for i := 0; i < n; i++ {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { ln.Close() })
		addrs[i] = ln.Addr().String()
		srv := server.New(i, simdisk.New(nil, simdisk.Params{PageSize: 4096}), server.DefaultOptions())
		srvs[i] = srv
		go func() {
			for {
				conn, err := ln.Accept()
				if err != nil {
					return
				}
				go rpc.ServeConnTraced(conn, srv.HandleTraced, nil, nil) //nolint:errcheck
			}
		}()
	}
	mln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { mln.Close() })
	mgr := meta.New(n, addrs)
	go func() {
		for {
			conn, err := mln.Accept()
			if err != nil {
				return
			}
			go rpc.ServeConn(conn, mgr.Handle, nil, nil) //nolint:errcheck
		}
	}()
	return mln.Addr().String(), srvs
}

func countFDs(t *testing.T) int {
	t.Helper()
	ents, err := os.ReadDir("/proc/self/fd")
	if err != nil {
		t.Skipf("no /proc/self/fd on this platform: %v", err)
	}
	return len(ents)
}

// TestDialCloseNoFDLeak is the regression test for the csar-mgr background
// loops: they Dial a short-lived client every tick, so Client.Close must
// release every descriptor the dial and the per-server lazy connections
// opened. Before Close existed the loops leaked one connection set per
// tick and a long-lived manager ran out of fds.
func TestDialCloseNoFDLeak(t *testing.T) {
	mgrAddr, _ := startTCPCluster(t, 3)

	// One warm-up pass so any lazy global state (resolver etc.) is counted
	// in the baseline.
	pass := func() {
		cl, err := csar.Dial(mgrAddr)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := cl.List(); err != nil {
			t.Fatal(err)
		}
		// Touch every iod so the lazy per-server connections actually open.
		if _, err := cl.StorageTotals(); err != nil {
			t.Fatal(err)
		}
		if err := cl.Close(); err != nil {
			t.Fatal(err)
		}
	}
	pass()

	before := countFDs(t)
	for i := 0; i < 30; i++ {
		pass()
	}
	// The iods run in this process and close their end of a connection only
	// once they have read its EOF, so give the last passes' sockets a moment
	// to go; allow tiny slack, but 30 passes × 4 conns would leak ~120 fds.
	after := countFDs(t)
	for deadline := time.Now().Add(2 * time.Second); after > before+4 && time.Now().Before(deadline); after = countFDs(t) {
		time.Sleep(10 * time.Millisecond)
	}
	if after > before+4 {
		t.Fatalf("fd leak across dial/close passes: %d before, %d after", before, after)
	}
}

// TestStatsOverLiveCluster drives real I/O through a 4-iod TCP deployment
// and checks the observability pipeline end to end: the client's own op
// histograms fill, its Stats carry every Metrics counter under the field's
// tag, every server answers the Stats RPC with nonzero per-RPC histograms,
// and the merged view renders.
func TestStatsOverLiveCluster(t *testing.T) {
	mgrAddr, _ := startTCPCluster(t, 4)
	cl, err := csar.Dial(mgrAddr)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close() //nolint:errcheck

	f, err := cl.Create("obs", csar.FileOptions{Scheme: csar.Raid5, StripeUnit: 4096})
	if err != nil {
		t.Fatal(err)
	}
	full := bytes.Repeat([]byte("stripe! "), 3*4096/8) // whole stripes (3 data units)
	if _, err := f.WriteAt(full, 0); err != nil {
		t.Fatal(err)
	}
	small := []byte("partial")
	if _, err := f.WriteAt(small, 0); err != nil { // RMW path
		t.Fatal(err)
	}
	got := make([]byte, len(full))
	if _, err := f.ReadAt(got, 0); err != nil {
		t.Fatal(err)
	}
	hf, err := cl.Create("obs-hybrid", csar.FileOptions{Scheme: csar.Hybrid, StripeUnit: 4096})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := hf.WriteAt(small, 0); err != nil { // overflow path
		t.Fatal(err)
	}

	// Client side: per-op and per-path histograms must have counts.
	own := cl.Stats()
	for _, name := range []string{"op_write", "op_read", "op_write_full_stripe", "op_write_rmw"} {
		if h, ok := own.Hist(name); !ok || h.Count == 0 {
			t.Errorf("client histogram %s has no observations", name)
		}
	}
	if h, ok := own.Hist("rpc_write_data"); !ok || h.Count == 0 {
		t.Errorf("client rpc histogram rpc_write_data has no observations; have %v", histNames(own))
	}
	// Client counters: Stats and Metrics read the one counter set.
	m := cl.Metrics()
	mv, mt := reflect.ValueOf(m), reflect.TypeOf(m)
	for i := 0; i < mt.NumField(); i++ {
		tag := mt.Field(i).Tag.Get("obs")
		if got, want := own.Counter(tag), mv.Field(i).Int(); got != want {
			t.Errorf("client Stats counter %q = %d, Metrics().%s = %d", tag, got, mt.Field(i).Name, want)
		}
	}
	if m.FullStripes == 0 || m.RMWs == 0 || m.OverflowWrites == 0 || m.Reads == 0 || m.Writes == 0 {
		t.Errorf("path counters not all counted: %+v", m)
	}

	// Server side: all four answer Stats with requests and rpc histograms.
	srvStats := cl.ServerStats()
	if len(srvStats) != 4 {
		t.Fatalf("ServerStats returned %d entries, want 4", len(srvStats))
	}
	for i, sr := range srvStats {
		if sr.Requests <= 0 {
			t.Fatalf("server %d: Requests = %d (unreachable?)", i, sr.Requests)
		}
		snap := csar.StatsOfServer(sr)
		if v := counterValue(snap.Counters, "bytes_in"); v == 0 {
			t.Errorf("server %d: bytes_in counter is zero", i)
		}
		any := false
		for _, h := range snap.Hists {
			if strings.HasPrefix(h.Name, "rpc_") && h.Count > 0 {
				any = true
				break
			}
		}
		if !any {
			t.Errorf("server %d: no nonzero rpc_* histogram in Stats reply", i)
		}
	}

	// The merged view must aggregate across servers.
	var snaps []csar.Stats
	for _, sr := range srvStats {
		snaps = append(snaps, csar.StatsOfServer(sr))
	}
	merged := csar.MergeStats(snaps...)
	if h, ok := merged.Hist("rpc_write_data"); !ok || h.Count == 0 {
		t.Error("merged server stats lost the rpc_write_data histogram")
	}
}

func histNames(s csar.Stats) []string {
	names := make([]string, len(s.Hists))
	for i, h := range s.Hists {
		names[i] = h.Name
	}
	return names
}

func counterValue(kvs []csar.KV, name string) int64 {
	for _, kv := range kvs {
		if kv.Name == name {
			return kv.Value
		}
	}
	return 0
}
