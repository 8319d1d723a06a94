package obs

import (
	"encoding/json"
	"io"
	"math/rand"
	"net"
	"net/http"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestHistogramConcurrentObserve is the property test from the issue:
// concurrent Observe calls never lose counts, and percentile estimates stay
// within one power-of-two bucket of the exact value computed from the same
// observations sorted. Run under -race by `make obs`.
func TestHistogramConcurrentObserve(t *testing.T) {
	const (
		goroutines = 16
		perG       = 2000
	)
	rng := rand.New(rand.NewSource(42))
	obs := make([][]time.Duration, goroutines)
	var all []time.Duration
	for g := range obs {
		obs[g] = make([]time.Duration, perG)
		for i := range obs[g] {
			// Log-uniform durations from ns to ~1s, plus occasional zeros.
			d := time.Duration(0)
			if rng.Intn(50) != 0 {
				d = time.Duration(1 + rng.Int63n(int64(1)<<uint(1+rng.Intn(30))))
			}
			obs[g][i] = d
			all = append(all, d)
		}
	}

	var h Histogram
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(ds []time.Duration) {
			defer wg.Done()
			for _, d := range ds {
				h.Observe(d)
			}
		}(obs[g])
	}
	wg.Wait()

	s := h.Snapshot()
	if want := int64(goroutines * perG); s.Count != want {
		t.Fatalf("lost counts: Count = %d, want %d", s.Count, want)
	}
	var wantSum time.Duration
	var wantMax time.Duration
	for _, d := range all {
		wantSum += d
		if d > wantMax {
			wantMax = d
		}
	}
	if s.Sum != wantSum {
		t.Errorf("Sum = %v, want %v", s.Sum, wantSum)
	}
	if s.Max != wantMax {
		t.Errorf("Max = %v, want %v", s.Max, wantMax)
	}

	sort.Slice(all, func(i, j int) bool { return all[i] < all[j] })
	for _, q := range []float64{0.5, 0.9, 0.95, 0.99, 1.0} {
		rank := int(q * float64(len(all)))
		if rank < 1 {
			rank = 1
		}
		exact := all[rank-1]
		got := s.Quantile(q)
		// The estimate is the upper bound of the exact value's bucket, so it
		// must be >= exact and within the same power-of-two bucket.
		if got < exact {
			t.Errorf("Quantile(%v) = %v underestimates exact %v", q, got, exact)
		}
		if got > BucketUpper(bucketOf(exact)) {
			t.Errorf("Quantile(%v) = %v beyond bucket of exact %v (upper %v)",
				q, got, exact, BucketUpper(bucketOf(exact)))
		}
	}
}

func TestHistogramBuckets(t *testing.T) {
	cases := []struct {
		d      time.Duration
		bucket int
	}{
		{-5, 0},
		{0, 0},
		{1, 1},
		{2, 2},
		{3, 2},
		{4, 3},
		{1023, 10},
		{1024, 11},
	}
	for _, c := range cases {
		if got := bucketOf(c.d); got != c.bucket {
			t.Errorf("bucketOf(%d) = %d, want %d", c.d, got, c.bucket)
		}
		if up := BucketUpper(bucketOf(c.d)); c.d > up {
			t.Errorf("BucketUpper(bucketOf(%d)) = %d < observation", c.d, up)
		}
	}
	if BucketUpper(1) != 1 || BucketUpper(2) != 3 || BucketUpper(3) != 7 {
		t.Errorf("BucketUpper small buckets wrong: %d %d %d",
			BucketUpper(1), BucketUpper(2), BucketUpper(3))
	}
}

func TestQuantileEmptyAndSingle(t *testing.T) {
	var h Histogram
	if q := h.Snapshot().Quantile(0.99); q != 0 {
		t.Errorf("empty Quantile = %v, want 0", q)
	}
	h.Observe(100 * time.Microsecond)
	s := h.Snapshot()
	for _, q := range []float64{0.01, 0.5, 1} {
		got := s.Quantile(q)
		if got < 100*time.Microsecond || got > BucketUpper(bucketOf(100*time.Microsecond)) {
			t.Errorf("single-sample Quantile(%v) = %v", q, got)
		}
	}
}

func TestRegistrySnapshotAndMerge(t *testing.T) {
	r1 := NewRegistry()
	r1.Hist("op_read").Observe(time.Millisecond)
	r1.Hist("op_read").Observe(3 * time.Millisecond)
	r1.Counter("bytes_in").Add(100)
	r1.RegisterGauge("locks_held", func() int64 { return 2 })

	r2 := NewRegistry()
	r2.Hist("op_read").Observe(2 * time.Millisecond)
	r2.Hist("op_write").Observe(time.Millisecond)
	r2.Counter("bytes_in").Add(50)
	r2.Counter("bytes_out").Add(7)
	r2.RegisterGauge("locks_held", func() int64 { return 1 })

	m := Merge(r1.Snapshot(), r2.Snapshot())
	if h, ok := m.Hist("op_read"); !ok || h.Count != 3 || h.Sum != 6*time.Millisecond {
		t.Errorf("merged op_read = %+v ok=%v", h, ok)
	}
	if h, ok := m.Hist("op_write"); !ok || h.Count != 1 {
		t.Errorf("merged op_write = %+v ok=%v", h, ok)
	}
	if m.Counter("bytes_in") != 150 || m.Counter("bytes_out") != 7 {
		t.Errorf("merged counters: bytes_in=%d bytes_out=%d",
			m.Counter("bytes_in"), m.Counter("bytes_out"))
	}
	var gauge int64
	for _, kv := range m.Gauges {
		if kv.Name == "locks_held" {
			gauge = kv.Value
		}
	}
	if gauge != 3 {
		t.Errorf("merged gauge locks_held = %d, want 3", gauge)
	}
	// Sorted output, so snapshots are stable for table rendering.
	if !sort.SliceIsSorted(m.Hists, func(i, j int) bool { return m.Hists[i].Name < m.Hists[j].Name }) {
		t.Error("merged hists not sorted")
	}
}

// TestCounterSet: a counter set's fields are its registry's counters, under
// their tags, rendered as Prometheus counters; LoadCounters copies them; and
// a field the helper cannot publish fails construction.
func TestCounterSet(t *testing.T) {
	type set struct {
		Hits   int64 `obs:"hits"`
		Misses int64 `obs:"misses"`
	}
	r := NewRegistry()
	c := NewCounters[set](r)
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 1000; j++ {
				atomic.AddInt64(&c.Hits, 1)
			}
		}()
	}
	wg.Wait()
	atomic.AddInt64(&c.Misses, 2)
	if got := LoadCounters(c); got != (set{Hits: 4000, Misses: 2}) {
		t.Errorf("LoadCounters = %+v", got)
	}
	s := r.Snapshot()
	if s.Counter("hits") != 4000 || s.Counter("misses") != 2 || len(s.Gauges) != 0 {
		t.Errorf("snapshot = %+v", s)
	}
	var b strings.Builder
	WriteProm(&b, s)
	if !strings.Contains(b.String(), "# TYPE csar_hits counter\ncsar_hits 4000\n") {
		t.Errorf("prom output:\n%s", b.String())
	}

	mustPanic := func(name string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s: NewCounters did not panic", name)
			}
		}()
		f()
	}
	mustPanic("untagged", func() { NewCounters[struct{ N int64 }](nil) })
	mustPanic("int32", func() {
		NewCounters[struct {
			N int32 `obs:"n"`
		}](nil)
	})
	mustPanic("unexported", func() {
		NewCounters[struct {
			n int64 `obs:"n"`
		}](nil)
	})
}

func TestTraceIDsUniqueAndNonZero(t *testing.T) {
	seen := make(map[uint64]bool)
	for i := 0; i < 10000; i++ {
		id := NewTraceID()
		if id == 0 {
			t.Fatal("zero trace ID")
		}
		if seen[id] {
			t.Fatalf("duplicate trace ID %#x after %d draws", id, i)
		}
		seen[id] = true
	}
}

func TestWriteProm(t *testing.T) {
	r := NewRegistry()
	r.Hist("rpc_read").Observe(100 * time.Microsecond)
	r.Hist("rpc_read").Observe(200 * time.Microsecond)
	r.Counter("bytes_in").Add(42)
	r.RegisterGauge("locks_held", func() int64 { return 5 })

	var b strings.Builder
	WriteProm(&b, r.Snapshot())
	out := b.String()
	for _, want := range []string{
		"# TYPE csar_bytes_in counter",
		"csar_bytes_in 42",
		"# TYPE csar_locks_held gauge",
		"csar_locks_held 5",
		"# TYPE csar_rpc_read histogram",
		`csar_rpc_read_bucket{le="+Inf"} 2`,
		"csar_rpc_read_count 2",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("prom output missing %q:\n%s", want, out)
		}
	}
}

func TestServeDebugEndpoints(t *testing.T) {
	r := NewRegistry()
	r.Hist("op_write").Observe(time.Millisecond)
	r.Counter("bytes_out").Add(9)
	closer, err := ServeDebug("127.0.0.1:0", r, func() map[string]any {
		return map[string]any{"index": 3}
	})
	if err != nil {
		t.Fatal(err)
	}
	defer closer.Close()
	addr := closer.(net.Listener).Addr().String()

	get := func(path string) string {
		resp, err := http.Get("http://" + addr + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s: status %d", path, resp.StatusCode)
		}
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		return string(body)
	}

	if m := get("/metrics"); !strings.Contains(m, "csar_op_write_count 1") ||
		!strings.Contains(m, "csar_bytes_out 9") {
		t.Errorf("/metrics missing expected series:\n%s", m)
	}
	var status map[string]any
	if err := json.Unmarshal([]byte(get("/statusz")), &status); err != nil {
		t.Fatalf("/statusz not JSON: %v", err)
	}
	if status["index"] != float64(3) {
		t.Errorf("/statusz index = %v, want 3", status["index"])
	}
	if _, ok := status["histograms"].(map[string]any)["op_write"]; !ok {
		t.Errorf("/statusz missing op_write histogram: %v", status)
	}
	if p := get("/debug/pprof/cmdline"); p == "" {
		t.Error("/debug/pprof/cmdline empty")
	}
}

func BenchmarkObserve(b *testing.B) {
	var h Histogram
	b.RunParallel(func(pb *testing.PB) {
		d := 123 * time.Microsecond
		for pb.Next() {
			h.Observe(d)
			d += time.Nanosecond
		}
	})
	b.ReportMetric(float64(h.Snapshot().Count), "observations")
}
