package main

import (
	"fmt"
	"net"
	"os"
	"path/filepath"
	"runtime/metrics"
	"sort"
	"time"

	"csar/internal/extent"
	"csar/internal/gf256"
	"csar/internal/meta"
	"csar/internal/obs"
	"csar/internal/raid"
	"csar/internal/rpc"
	"csar/internal/wire"
)

// Probes time one layer's public functions directly, single-threaded, with no
// cluster: the ceiling a kernel or codec sets, next to which the share of a
// workload's time that layer takes can be read. They do not depend on the
// workload or the seed.

// perCall runs fn repeatedly for about budget and returns nanoseconds per
// call: the median over batches, so a stolen time slice does not set it.
func perCall(budget time.Duration, fn func()) float64 {
	batch := 1
	for {
		start := time.Now()
		for i := 0; i < batch; i++ {
			fn()
		}
		if d := time.Since(start); d >= budget/16 || batch >= 1<<20 {
			break
		}
		batch *= 2
	}
	var perOp []float64
	for deadline := time.Now().Add(budget); len(perOp) < 3 || time.Now().Before(deadline); {
		start := time.Now()
		for i := 0; i < batch; i++ {
			fn()
		}
		perOp = append(perOp, float64(time.Since(start))/float64(batch))
	}
	return median(perOp)
}

// gbps converts bytes moved per call and ns per call to GB/s (10^9).
func gbps(bytes int, nsPerCall float64) float64 { return ratio(float64(bytes), nsPerCall) }

func units(n int, seed byte) [][]byte {
	out := make([][]byte, n)
	for i := range out {
		out[i] = make([]byte, stripeUnit)
		for j := range out[i] {
			out[i][j] = byte(j)*31 + seed + byte(i)
		}
	}
	return out
}

func probeKernels(budget time.Duration, out map[string]float64) error {
	d := units(5, 1)
	dst := make([]byte, stripeUnit)
	out["raid.xor_gbps"] = gbps(stripeUnit, perCall(budget, func() { raid.XORInto(dst, d[0]) }))
	out["raid.parity_gbps"] = gbps(5*stripeUnit, perCall(budget, func() { raid.Parity(dst, d...) }))

	out["gf256.muladd_gbps"] = gbps(stripeUnit, perCall(budget, func() { gf256.MulAddSlice(0x57, dst, d[0]) }))
	code, err := gf256.NewRS(4, 2)
	if err != nil {
		return err
	}
	parity := units(2, 0)
	out["gf256.rs_encode_gbps"] = gbps(4*stripeUnit, perCall(budget, func() { code.EncodeInto(parity, d[:4]) }))
	code.EncodeInto(parity, d[:4])
	var recErr error
	out["gf256.rs_reconstruct_gbps"] = gbps(4*stripeUnit, perCall(budget, func() {
		stripe := [][]byte{d[0], nil, d[2], d[3], parity[0], parity[1]} // data unit 1 lost
		if err := code.Reconstruct(stripe); err != nil {
			recErr = err
		}
	}))
	return recErr
}

func probeWire(budget time.Duration, out map[string]float64) error {
	msg := &wire.WriteData{Spans: []wire.Span{{Off: 0, Len: stripeUnit}}, Data: units(1, 3)[0]}
	out["wire.marshal_ns_per_frame"] = perCall(budget, func() {
		fr := wire.MarshalFrame(msg, 1)
		fr.Free()
	})
	body := wire.Marshal(msg)
	var decErr error
	allocs := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}
	metrics.Read(allocs)
	before := allocs[0].Value.Uint64()
	calls := 0
	out["wire.unmarshal_ns_per_frame"] = perCall(budget, func() {
		calls++
		if _, err := wire.Unmarshal(body); err != nil {
			decErr = err
		}
	})
	metrics.Read(allocs)
	out["wire.unmarshal_alloc_b_per_b"] = ratio(float64(allocs[0].Value.Uint64()-before), float64(calls*stripeUnit))
	return decErr
}

// probeRPC measures the transport alone: a handler that does nothing, over
// one loopback TCP connection.
func probeRPC(budget time.Duration, out map[string]float64) error {
	ep, err := listen("127.0.0.1:0", func(conn net.Conn) {
		rpc.ServeConn(conn, func(wire.Msg) (wire.Msg, error) { return &wire.OK{}, nil }, nil, nil) //nolint:errcheck // ends with conn
	})
	if err != nil {
		return err
	}
	defer ep.stop()
	conn, err := net.Dial("tcp", ep.addr)
	if err != nil {
		return err
	}
	cli := rpc.NewClient(conn, nil, nil)
	defer cli.Close() //nolint:errcheck // probe teardown

	var rtts []int64
	var callErr error
	for deadline := time.Now().Add(budget); len(rtts) < 200 || time.Now().Before(deadline); {
		start := time.Now()
		if _, err := cli.Call(&wire.Ping{}); err != nil {
			callErr = err
		}
		rtts = append(rtts, int64(time.Since(start)))
	}
	sort.Slice(rtts, func(i, j int) bool { return rtts[i] < rtts[j] })
	out["rpc.echo_rtt_p50_us"] = float64(percentile(rtts, 50)) / 1e3
	out["rpc.echo_rtt_p99_us"] = float64(percentile(rtts, tailPercentile(len(rtts), 99))) / 1e3

	big := &wire.WriteData{Spans: []wire.Span{{Off: 0, Len: mib}}, Data: make([]byte, mib)}
	ns := perCall(budget, func() {
		if _, err := cli.Call(big); err != nil {
			callErr = err
		}
	})
	out["rpc.stream_mbps"] = ratio(mib, ns) * 1e3
	return callErr
}

func probeExtent(budget time.Duration, out map[string]float64) {
	const slots = 4096
	var m extent.Map
	for i := int64(0); i < slots; i++ {
		m.Insert(i*8192, 4096, i*4096)
	}
	i := int64(0)
	// Overwriting a slot that is already mapped is the Hybrid steady state:
	// the map stays at 4096 extents.
	out["extent.insert_ns"] = perCall(budget, func() {
		i = (i + 1237) % slots
		m.Insert(i*8192, 4096, i*4096)
	})
	var hits int64
	out["extent.lookup_ns"] = perCall(budget, func() {
		i = (i + 1237) % slots
		m.Lookup(i*8192+1024, 16<<10, func(_, _, n int64) { hits += n }, nil)
	})
}

// probeMeta times Manager.Handle(&wire.Create{}) on a persistent manager with
// no RPC in front of it, and reads the WAL's size per create off the file.
// Compaction is off so the file holds every record.
func probeMeta(budget time.Duration, out map[string]float64) error {
	dir, err := os.MkdirTemp("", "csar-benchmark-probe-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir) //nolint:errcheck // probe teardown
	path := filepath.Join(dir, "meta.json")
	m, err := meta.NewPersistent(numServers, nil, path)
	if err != nil {
		return err
	}
	defer m.Close() //nolint:errcheck // probe teardown
	m.SetWALCompactBytes(0)
	var durs []int64
	for deadline := time.Now().Add(budget); len(durs) < 200 || time.Now().Before(deadline); {
		req := &wire.Create{Name: fmt.Sprintf("probe-%07d", len(durs)), Servers: numServers,
			StripeUnit: stripeUnit, Scheme: wire.Hybrid}
		start := time.Now()
		if _, err := m.Handle(req); err != nil {
			return err
		}
		durs = append(durs, int64(time.Since(start)))
	}
	sort.Slice(durs, func(i, j int) bool { return durs[i] < durs[j] })
	out["meta.handle_create_p50_us"] = float64(percentile(durs, 50)) / 1e3
	st, err := os.Stat(path + ".wal")
	if err != nil {
		return err
	}
	out["meta.wal_bytes_per_create"] = ratio(float64(st.Size()), float64(len(durs)))
	return nil
}

func runProbes(budget time.Duration) (map[string]float64, error) {
	out := make(map[string]float64)
	if err := probeKernels(budget, out); err != nil {
		return nil, fmt.Errorf("kernel probe: %w", err)
	}
	if err := probeWire(budget, out); err != nil {
		return nil, fmt.Errorf("wire probe: %w", err)
	}
	if err := probeRPC(budget, out); err != nil {
		return nil, fmt.Errorf("rpc probe: %w", err)
	}
	probeExtent(budget, out)
	if err := probeMeta(budget, out); err != nil {
		return nil, fmt.Errorf("meta probe: %w", err)
	}
	var h obs.Histogram
	out["obs.observe_ns"] = perCall(budget, func() { h.Observe(137 * time.Microsecond) })
	return out, nil
}
