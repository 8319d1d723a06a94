// Package obs is the shared observability layer of the CSAR reproduction:
// lock-free latency histograms, named counters and gauges, a registry that
// snapshots them, and the trace IDs that correlate a client operation with
// the server-side work it caused.
//
// The paper's evaluation is entirely about where time goes — full-stripe vs
// read-modify-write vs overflow paths, parity-lock waits, server write
// buffering — so every layer of this implementation (client, I/O daemon,
// scrub and recovery passes, the bench harness) records into the same
// primitives. Histograms use power-of-two buckets: an observation of d
// nanoseconds lands in bucket bits.Len64(d), so recording is one atomic add
// with no locks, and a percentile estimate is accurate to within one bucket
// (a factor of two), which is plenty to tell a 100µs RPC from a 10ms one.
package obs

import (
	crand "crypto/rand"
	"encoding/binary"
	"fmt"
	"math"
	"math/bits"
	"reflect"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// NumBuckets is the number of histogram buckets: bucket i holds
// observations whose nanosecond count has bit length i, i.e. durations in
// [2^(i-1), 2^i). Bucket 0 holds zero-duration observations (an untimed
// clock, or sub-nanosecond noise). 64 bit lengths + the zero bucket.
const NumBuckets = 65

// Histogram is a lock-free latency histogram with power-of-two buckets.
// Observe is safe for concurrent use and never loses counts; Snapshot may
// run concurrently with observers (it reads atomically per field, so a
// snapshot taken mid-burst can be off by in-flight observations but is
// never corrupt).
type Histogram struct {
	counts [NumBuckets]atomic.Int64
	sum    atomic.Int64 // total nanoseconds observed
	max    atomic.Int64 // largest single observation, nanoseconds
}

// bucketOf maps a duration to its bucket index.
func bucketOf(d time.Duration) int {
	if d <= 0 {
		return 0
	}
	return bits.Len64(uint64(d))
}

// BucketUpper returns the inclusive upper bound of bucket i in nanoseconds:
// the largest duration that lands in it.
func BucketUpper(i int) time.Duration {
	if i <= 0 {
		return 0
	}
	if i >= 64 {
		return time.Duration(int64(^uint64(0) >> 1))
	}
	return time.Duration(int64(1)<<uint(i) - 1)
}

// Observe records one duration.
func (h *Histogram) Observe(d time.Duration) {
	if d < 0 {
		d = 0
	}
	h.counts[bucketOf(d)].Add(1)
	h.sum.Add(int64(d))
	for {
		cur := h.max.Load()
		if int64(d) <= cur || h.max.CompareAndSwap(cur, int64(d)) {
			return
		}
	}
}

// HistSnap is a point-in-time copy of one histogram, named.
type HistSnap struct {
	Name    string
	Count   int64
	Sum     time.Duration
	Max     time.Duration
	Buckets [NumBuckets]int64
}

// Snapshot copies the histogram's current state.
func (h *Histogram) Snapshot() HistSnap {
	var s HistSnap
	for i := range h.counts {
		n := h.counts[i].Load()
		s.Buckets[i] = n
		s.Count += n
	}
	s.Sum = time.Duration(h.sum.Load())
	s.Max = time.Duration(h.max.Load())
	return s
}

// Quantile estimates the q-th quantile (0 < q <= 1) as the upper bound of
// the bucket where the cumulative count crosses q·Count — within one
// power-of-two bucket of the exact value. Zero when the histogram is empty.
func (s HistSnap) Quantile(q float64) time.Duration {
	if s.Count == 0 {
		return 0
	}
	// Nearest-rank: ceil(q·N). Truncating instead would drop the slowest
	// sample from p99 at small counts (int64(0.99*5) = 4 of 5).
	rank := int64(math.Ceil(q * float64(s.Count)))
	if rank < 1 {
		rank = 1
	}
	if rank > s.Count {
		rank = s.Count
	}
	var cum int64
	for i := 0; i < NumBuckets; i++ {
		cum += s.Buckets[i]
		if cum >= rank {
			return BucketUpper(i)
		}
	}
	return s.Max
}

// P50, P95 and P99 are the quantiles every stats consumer wants.
func (s HistSnap) P50() time.Duration { return s.Quantile(0.50) }
func (s HistSnap) P95() time.Duration { return s.Quantile(0.95) }
func (s HistSnap) P99() time.Duration { return s.Quantile(0.99) }

// Mean returns the average observation; zero when empty.
func (s HistSnap) Mean() time.Duration {
	if s.Count == 0 {
		return 0
	}
	return s.Sum / time.Duration(s.Count)
}

// TrimmedBuckets returns a copy of the bucket counts with trailing empty
// buckets elided (nil when the histogram is empty) — the compact form the
// Stats RPC ships.
func (s HistSnap) TrimmedBuckets() []int64 {
	last := -1
	for i := NumBuckets - 1; i >= 0; i-- {
		if s.Buckets[i] != 0 {
			last = i
			break
		}
	}
	if last < 0 {
		return nil
	}
	return append([]int64(nil), s.Buckets[:last+1]...)
}

// SnapFromDump rebuilds a histogram snapshot from its shipped form (the
// inverse of TrimmedBuckets plus the scalar fields). Sum and Max are
// nanoseconds. Buckets beyond NumBuckets are ignored.
func SnapFromDump(name string, count, sum, max int64, buckets []int64) HistSnap {
	h := HistSnap{
		Name:  name,
		Count: count,
		Sum:   time.Duration(sum),
		Max:   time.Duration(max),
	}
	for i, v := range buckets {
		if i >= NumBuckets {
			break
		}
		h.Buckets[i] = v
	}
	return h
}

// merge folds o into s (same name or the caller doesn't care).
func (s *HistSnap) merge(o HistSnap) {
	s.Count += o.Count
	s.Sum += o.Sum
	if o.Max > s.Max {
		s.Max = o.Max
	}
	for i := range s.Buckets {
		s.Buckets[i] += o.Buckets[i]
	}
}

// Counter is a handle on one named monotonic count in a registry.
type Counter struct{ v *int64 }

// Add increments the counter by n.
func (c Counter) Add(n int64) { atomic.AddInt64(c.v, n) }

// NewCounters allocates a counter set: a struct T whose every field is an
// int64 tagged `obs:"name"`. Any other field panics here, at construction.
// The set is allocated whole, so each field is 64-bit aligned on every
// platform and is updated in place with atomic.AddInt64. With a non-nil
// registry, every field is published in it as the counter named by its tag.
func NewCounters[T any](r *Registry) *T {
	set := new(T)
	v := reflect.ValueOf(set).Elem()
	for i := 0; i < v.NumField(); i++ {
		f := v.Type().Field(i)
		name := f.Tag.Get("obs")
		if f.Type != reflect.TypeOf(int64(0)) || name == "" || !f.IsExported() {
			panic(fmt.Sprintf("obs: counter set %v: field %s is not an exported int64 tagged obs:\"name\"", v.Type(), f.Name))
		}
		if r != nil {
			r.mu.Lock()
			r.counters[name] = v.Field(i).Addr().Interface().(*int64)
			r.mu.Unlock()
		}
	}
	return set
}

// LoadCounters returns a copy of a counter set made by NewCounters, read
// with one atomic load per field.
func LoadCounters[T any](set *T) T {
	var out T
	src, dst := reflect.ValueOf(set).Elem(), reflect.ValueOf(&out).Elem()
	for i := 0; i < src.NumField(); i++ {
		dst.Field(i).SetInt(atomic.LoadInt64(src.Field(i).Addr().Interface().(*int64)))
	}
	return out
}

// KV is one named value in a snapshot (a counter or an evaluated gauge).
type KV struct {
	Name  string
	Value int64
}

// Snapshot is a point-in-time copy of a registry: counters, evaluated
// gauges, and histograms, each sorted by name.
type Snapshot struct {
	Counters []KV
	Gauges   []KV
	Hists    []HistSnap
}

// Hist returns the named histogram snapshot and whether it exists.
func (s Snapshot) Hist(name string) (HistSnap, bool) {
	for _, h := range s.Hists {
		if h.Name == name {
			return h, true
		}
	}
	return HistSnap{}, false
}

// Counter returns the named counter's value (zero if absent).
func (s Snapshot) Counter(name string) int64 {
	for _, kv := range s.Counters {
		if kv.Name == name {
			return kv.Value
		}
	}
	return 0
}

// Merge combines snapshots from several sources (e.g. every client a bench
// harness created): same-name histograms and counters are summed, gauges
// are summed too (they are point-in-time, but summing per-source levels is
// the aggregate level).
func Merge(snaps ...Snapshot) Snapshot {
	hists := map[string]*HistSnap{}
	counters := map[string]int64{}
	gauges := map[string]int64{}
	for _, s := range snaps {
		for _, h := range s.Hists {
			if cur, ok := hists[h.Name]; ok {
				cur.merge(h)
			} else {
				hh := h
				hists[h.Name] = &hh
			}
		}
		for _, kv := range s.Counters {
			counters[kv.Name] += kv.Value
		}
		for _, kv := range s.Gauges {
			gauges[kv.Name] += kv.Value
		}
	}
	var out Snapshot
	for _, h := range hists {
		out.Hists = append(out.Hists, *h)
	}
	for n, v := range counters {
		out.Counters = append(out.Counters, KV{n, v})
	}
	for n, v := range gauges {
		out.Gauges = append(out.Gauges, KV{n, v})
	}
	sort.Slice(out.Hists, func(i, j int) bool { return out.Hists[i].Name < out.Hists[j].Name })
	sort.Slice(out.Counters, func(i, j int) bool { return out.Counters[i].Name < out.Counters[j].Name })
	sort.Slice(out.Gauges, func(i, j int) bool { return out.Gauges[i].Name < out.Gauges[j].Name })
	return out
}

// Registry holds a process's (or one subsystem's) named instruments.
// Hist and Counter get-or-create, so callers keep no instrument handles of
// their own; the name is the identity. NewCounters publishes a counter
// set's fields into the same counters map.
type Registry struct {
	mu       sync.Mutex
	hists    map[string]*Histogram
	counters map[string]*int64
	gauges   map[string]func() int64
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		hists:    make(map[string]*Histogram),
		counters: make(map[string]*int64),
		gauges:   make(map[string]func() int64),
	}
}

// Hist returns the named histogram, creating it on first use.
func (r *Registry) Hist(name string) *Histogram {
	r.mu.Lock()
	defer r.mu.Unlock()
	h := r.hists[name]
	if h == nil {
		h = &Histogram{}
		r.hists[name] = h
	}
	return h
}

// Counter returns the named counter, creating it on first use.
func (r *Registry) Counter(name string) Counter {
	r.mu.Lock()
	defer r.mu.Unlock()
	v := r.counters[name]
	if v == nil {
		v = new(int64)
		r.counters[name] = v
	}
	return Counter{v}
}

// Kind is a one-byte kind with a name, such as a wire message kind.
type Kind interface {
	~uint8
	String() string
}

// KindHists is r's histograms named prefix + kind, indexed by kind. Each is
// created the first time its kind is looked up, so a kind never seen has
// none; later lookups take no lock.
type KindHists[K Kind] struct {
	r      *Registry
	prefix string
	h      [256]atomic.Pointer[Histogram]
}

// NewKindHists returns an empty table of r's histograms named prefix + kind.
func NewKindHists[K Kind](r *Registry, prefix string) *KindHists[K] {
	return &KindHists[K]{r: r, prefix: prefix}
}

// Of returns kind k's histogram, creating it on first use.
func (t *KindHists[K]) Of(k K) *Histogram {
	h := t.h[k].Load()
	if h == nil {
		h = t.r.Hist(t.prefix + k.String()) // get-or-create: a racing lookup gets the same one
		t.h[k].Store(h)
	}
	return h
}

// RegisterGauge installs a gauge: fn is evaluated at every Snapshot (and
// /metrics render), so it must be cheap and safe to call from any
// goroutine. Re-registering a name replaces the function.
func (r *Registry) RegisterGauge(name string, fn func() int64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.gauges[name] = fn
}

// Snapshot captures every instrument, sorted by name. Gauge functions run
// outside the registry lock (they may take their own locks).
func (r *Registry) Snapshot() Snapshot {
	r.mu.Lock()
	hists := make(map[string]*Histogram, len(r.hists))
	for n, h := range r.hists {
		hists[n] = h
	}
	counters := make(map[string]*int64, len(r.counters))
	for n, c := range r.counters {
		counters[n] = c
	}
	gauges := make(map[string]func() int64, len(r.gauges))
	for n, fn := range r.gauges {
		gauges[n] = fn
	}
	r.mu.Unlock()

	var s Snapshot
	for n, h := range hists {
		hs := h.Snapshot()
		hs.Name = n
		s.Hists = append(s.Hists, hs)
	}
	for n, v := range counters {
		s.Counters = append(s.Counters, KV{n, atomic.LoadInt64(v)})
	}
	for n, fn := range gauges {
		s.Gauges = append(s.Gauges, KV{n, fn()})
	}
	sort.Slice(s.Hists, func(i, j int) bool { return s.Hists[i].Name < s.Hists[j].Name })
	sort.Slice(s.Counters, func(i, j int) bool { return s.Counters[i].Name < s.Counters[j].Name })
	sort.Slice(s.Gauges, func(i, j int) bool { return s.Gauges[i].Name < s.Gauges[j].Name })
	return s
}

// traceBase is a per-process random base for trace IDs; mixing a counter
// into it keeps IDs unique within the process, and the 64-bit random base
// keeps two processes' sequences from colliding in practice.
var (
	traceBase    uint64
	traceCounter atomic.Uint64
	traceOnce    sync.Once
)

// NewTraceID returns a fresh non-zero operation trace ID. A trace ID is
// minted at the client once per logical operation (one ReadAt or WriteAt),
// rides the wire header of every RPC the operation issues, and shows up in
// server-side slow-op logs — the correlation handle between a slow user
// write and the parity-lock wait that caused it. Zero means "untraced".
func NewTraceID() uint64 {
	traceOnce.Do(func() {
		var b [8]byte
		if _, err := crand.Read(b[:]); err == nil {
			traceBase = binary.LittleEndian.Uint64(b[:])
		} else {
			traceBase = uint64(time.Now().UnixNano())
		}
	})
	for {
		// The golden-ratio stride walks the whole 2^64 space before repeating.
		id := traceBase + traceCounter.Add(1)*0x9E3779B97F4A7C15
		if id != 0 {
			return id
		}
	}
}

// Span times one traced operation: mint it at the operation's entry point,
// thread Trace through the RPCs, and hand Elapsed (or the caller's own
// simulated-time measurement) to a histogram at the end.
type Span struct {
	Trace uint64
	Start time.Time
}

// StartSpan begins a traced operation.
func StartSpan() Span { return Span{Trace: NewTraceID(), Start: time.Now()} }

// Elapsed returns the wall time since the span started. Callers running
// under a simulated clock should convert Start with their clock instead.
func (s Span) Elapsed() time.Duration { return time.Since(s.Start) }
