package main

import (
	"bufio"
	"errors"
	"fmt"
	"net"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"csar/internal/client"
	"csar/internal/rpc"
	"csar/internal/storage"
	"csar/internal/wire"
)

// The traced pass records every span from this file, around the calls into
// each layer; nothing outside benchmark/ has a hook. Three wrappers see the
// traffic: tracedPool (a client.Caller around the rpc.Clients of one client's
// connections to one peer), wrapHandler (around Server.HandleTraced and
// Manager.Handle) and tracedBackend (under each server, counters only). The
// driver's own per-operation timings are the root spans. Spans stay in
// memory; analyse() reduces them after the window.

// mgrIndex is the peer index of the manager in spans (iods are 0..5).
const mgrIndex = -1

// Phases of a pass. Wrappers record only outside phaseOff, so set-up,
// warm-up and the oracle leave no spans.
const (
	phaseOff int32 = iota
	phaseWindow
	phaseRebuild
)

// span is one timed call at a layer boundary. Times are nanoseconds since
// tracer.base. For an RPC span who is the client and peer the server; for a
// handler span who is the server. An RPC span and the handler span it caused
// carry the same wire trace ID (non-zero for every RPC of a ReadAt/WriteAt).
type span struct {
	start, end int64
	trace      uint64
	kind       wire.Kind
	phase      int8
	who, peer  int16
	lock       bool // a ReadParity that takes the parity lock
	failed     bool
	req, resp  int64 // frame bytes on the wire, RPC spans only
}

func (s span) dur() int64 { return s.end - s.start }

// timeDriven reports the RPC kinds a timer issues, not an operation: their
// number depends on how long the run took, so the exact counts leave them
// out and client.timed_rpcs counts them.
func timeDriven(k wire.Kind) bool { return k == wire.KRenewLease || k == wire.KHealth }

// storageCounters is one server's storage traffic. Busy time sums call
// durations (concurrent calls count twice).
type storageCounters struct {
	reads, writes         atomic.Int64
	readBytes, writeBytes atomic.Int64
	busyNs                atomic.Int64
}

type spanLog struct {
	mu    sync.Mutex
	spans []span
}

func (l *spanLog) add(s span) {
	l.mu.Lock()
	l.spans = append(l.spans, s)
	l.mu.Unlock()
}

type tracer struct {
	base    time.Time
	phase   atomic.Int32
	rpcs    [2]spanLog              // per client
	handler [numServers + 1]spanLog // per iod; the manager is last
	storage [numServers]storageCounters
}

func newTracer() *tracer { return &tracer{base: time.Now()} }

func (tr *tracer) now() int64 { return int64(time.Since(tr.base)) }

func (tr *tracer) handlerLog(peer int) *spanLog {
	if peer == mgrIndex {
		return &tr.handler[numServers]
	}
	return &tr.handler[peer]
}

// frameBytes is what one message costs on the wire: the frame body plus the
// 8-byte length and sequence prefix rpc puts before it.
func frameBytes(m wire.Msg, trace uint64) int64 {
	fr := wire.MarshalFrame(m, trace)
	n := int64(8 + fr.BodyLen())
	fr.Free()
	return n
}

// wrapHandler records one handler span per request served by peer.
func (tr *tracer) wrapHandler(peer int, h rpc.TracedHandler) rpc.TracedHandler {
	log := tr.handlerLog(peer)
	return func(req wire.Msg, trace uint64) (wire.Msg, error) {
		ph := tr.phase.Load()
		if ph == phaseOff {
			return h(req, trace)
		}
		start := tr.now()
		resp, err := h(req, trace)
		log.add(span{start: start, end: tr.now(), trace: trace, kind: req.Kind(),
			phase: int8(ph), who: int16(peer), failed: err != nil})
		return resp, err
	}
}

// tracedPool is the traced pass's stand-in for net.go's unexported
// redialCaller: the same lazily dialled round-robin pool of rpc.Clients to
// one peer, with a span recorded around every call.
type tracedPool struct {
	tr           *tracer
	client, peer int
	addr         string
	next         atomic.Uint32

	mu    sync.Mutex
	conns []*rpc.Client
}

var _ client.Caller = (*tracedPool)(nil)

func (tr *tracer) newPool(clientID, peer int, addr string, conns int) *tracedPool {
	return &tracedPool{tr: tr, client: clientID, peer: peer, addr: addr, conns: make([]*rpc.Client, conns)}
}

func (p *tracedPool) get() (*rpc.Client, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	slot := int(p.next.Add(1) % uint32(len(p.conns)))
	if p.conns[slot] != nil {
		return p.conns[slot], nil
	}
	conn, err := net.Dial("tcp", p.addr)
	if err != nil {
		return nil, fmt.Errorf("benchmark: dial %s: %v: %w", p.addr, err, wire.ErrUnavailable)
	}
	p.conns[slot] = rpc.NewClient(conn, nil, nil)
	return p.conns[slot], nil
}

func (p *tracedPool) drop(failed *rpc.Client) {
	p.mu.Lock()
	for i, c := range p.conns {
		if c == failed {
			failed.Close() //nolint:errcheck // already broken
			p.conns[i] = nil
		}
	}
	p.mu.Unlock()
}

func (p *tracedPool) Call(m wire.Msg) (wire.Msg, error) { return p.CallTraced(m, 0, 0) }

func (p *tracedPool) CallTimeout(m wire.Msg, timeout time.Duration) (wire.Msg, error) {
	return p.CallTraced(m, 0, timeout)
}

func (p *tracedPool) CallTraced(m wire.Msg, trace uint64, timeout time.Duration) (wire.Msg, error) {
	cli, err := p.get()
	if err != nil {
		return nil, err
	}
	ph := p.tr.phase.Load()
	var start int64
	if ph != phaseOff {
		start = p.tr.now()
	}
	resp, err := cli.CallTraced(m, trace, timeout)
	if ph != phaseOff {
		s := span{start: start, end: p.tr.now(), trace: trace, kind: m.Kind(), phase: int8(ph),
			who: int16(p.client), peer: int16(p.peer), failed: err != nil, req: frameBytes(m, trace)}
		if rp, ok := m.(*wire.ReadParity); ok {
			s.lock = rp.Lock
		}
		if resp != nil {
			s.resp = frameBytes(resp, 0)
		}
		p.tr.rpcs[p.client].add(s)
	}
	if err != nil && errors.Is(err, rpc.ErrClosed) {
		p.drop(cli)
	}
	return resp, err
}

func (p *tracedPool) Close() error {
	p.mu.Lock()
	defer p.mu.Unlock()
	var first error
	for i, c := range p.conns {
		if c == nil {
			continue
		}
		if err := c.Close(); err != nil && first == nil {
			first = err
		}
		p.conns[i] = nil
	}
	return first
}

// tracedBackend counts the storage calls a server makes.
type tracedBackend struct {
	storage.Backend
	st *storageCounters
}

func (b *tracedBackend) Open(name string) storage.File {
	return &tracedFile{File: b.Backend.Open(name), st: b.st}
}

type tracedFile struct {
	storage.File
	st *storageCounters
}

func (f *tracedFile) ReadAt(p []byte, off int64) (int, error) {
	start := time.Now()
	n, err := f.File.ReadAt(p, off)
	f.st.busyNs.Add(int64(time.Since(start)))
	f.st.reads.Add(1)
	f.st.readBytes.Add(int64(n))
	return n, err
}

func (f *tracedFile) WriteAt(p []byte, off int64) (int, error) {
	start := time.Now()
	n, err := f.File.WriteAt(p, off)
	f.st.busyNs.Add(int64(time.Since(start)))
	f.st.writes.Add(1)
	f.st.writeBytes.Add(int64(n))
	return n, err
}

// ReadAtDirect keeps the cache-bypassing read the server looks for on its
// store (checksum sweeps) reachable through the wrapper.
func (f *tracedFile) ReadAtDirect(p []byte, off int64) (int, error) {
	if dr, ok := f.File.(interface {
		ReadAtDirect(p []byte, off int64) (int, error)
	}); ok {
		return dr.ReadAtDirect(p, off)
	}
	return f.File.ReadAt(p, off)
}

// storageTotals is a point-in-time sum of the per-server storage counters.
type storageTotals struct {
	reads, writes, readBytes, writeBytes, busyNs int64
}

func (tr *tracer) storageSnapshot() storageTotals {
	var t storageTotals
	for i := range tr.storage {
		s := &tr.storage[i]
		t.reads += s.reads.Load()
		t.writes += s.writes.Load()
		t.readBytes += s.readBytes.Load()
		t.writeBytes += s.writeBytes.Load()
		t.busyNs += s.busyNs.Load()
	}
	return t
}

func (a storageTotals) sub(b storageTotals) storageTotals {
	return storageTotals{a.reads - b.reads, a.writes - b.writes, a.readBytes - b.readBytes,
		a.writeBytes - b.writeBytes, a.busyNs - b.busyNs}
}

// interval is a half-open time range in nanoseconds.
type interval struct{ start, end int64 }

// union returns the total length covered by the intervals and the number of
// disjoint groups they form once overlapping and touching ones are merged.
// It sorts ivs in place.
func union(ivs []interval) (covered int64, groups int) {
	if len(ivs) == 0 {
		return 0, 0
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].start < ivs[j].start })
	cur := ivs[0]
	for _, iv := range ivs[1:] {
		if iv.start <= cur.end {
			if iv.end > cur.end {
				cur.end = iv.end
			}
			continue
		}
		covered += cur.end - cur.start
		groups++
		cur = iv
	}
	return covered + cur.end - cur.start, groups + 1
}

// selfTime is a span's duration minus the part of it its children cover:
// children are clipped to the parent and overlapping children count once.
func selfTime(parent interval, children []interval) int64 {
	clipped := make([]interval, 0, len(children))
	for _, c := range children {
		if c.start < parent.start {
			c.start = parent.start
		}
		if c.end > parent.end {
			c.end = parent.end
		}
		if c.end > c.start {
			clipped = append(clipped, c)
		}
	}
	covered, _ := union(clipped)
	return parent.end - parent.start - covered
}

// opSpan is one driver-level operation (a ReadAt, WriteAt, Create or
// Rebuild) of one client; a client runs one at a time.
type opSpan struct {
	client     int
	start, end int64
}

// traceSummary is what analyse() reduces one phase's spans to.
type traceSummary struct {
	ops          int
	rpcs         int   // RPCs attributed to ops, time-driven kinds excluded
	timedRPCs    int   // renew_lease and health
	opSelfNs     int64 // Σ op span − union of its RPC spans
	rpcRounds    int   // Σ disjoint RPC groups per op
	rpcUnionNs   int64 // Σ union of each op's RPC spans
	rpcSumNs     int64 // Σ RPC span durations
	reqBytes     int64 // to iods only
	respBytes    int64
	iodRPCs      int
	handlerCalls int   // on iods
	handlerSumNs int64 // on iods
	allHandlerNs int64 // iods and manager, for rpc self time
	handlerFails int
	busyMax      float64 // busiest iod's share of the phase it spent in handlers
	busyMean     float64
	lockWaitsNs  []int64 // client-side duration of each locking ReadParity
	readParityNs []int64 // handler duration of each ReadParity
	spans        int
}

// analyse attributes RPC spans to the operation of the same client whose
// interval contains their start (a client runs one operation at a time, so
// this is the causal parent) and reduces one phase to its summary.
func (tr *tracer) analyse(phase int32, ops []opSpan, phaseLen int64) traceSummary {
	var s traceSummary
	s.ops = len(ops)
	s.spans = len(ops)
	for c := range tr.rpcs {
		var mine []opSpan
		for _, o := range ops {
			if o.client == c {
				mine = append(mine, o)
			}
		}
		sort.Slice(mine, func(i, j int) bool { return mine[i].start < mine[j].start })
		log := &tr.rpcs[c]
		log.mu.Lock()
		spans := make([]span, 0, len(log.spans))
		for _, sp := range log.spans {
			if int32(sp.phase) == phase {
				spans = append(spans, sp)
			}
		}
		log.mu.Unlock()
		sort.Slice(spans, func(i, j int) bool { return spans[i].start < spans[j].start })
		s.spans += len(spans)
		next := 0
		var children []interval
		for _, o := range mine {
			children = children[:0]
			for next < len(spans) && spans[next].start < o.start {
				next++ // between operations: only time-driven traffic lands here
			}
			for ; next < len(spans) && spans[next].start <= o.end; next++ {
				sp := spans[next]
				if timeDriven(sp.kind) {
					continue
				}
				children = append(children, interval{sp.start, sp.end})
				s.rpcs++
				s.rpcSumNs += sp.dur()
				if sp.peer != mgrIndex {
					s.iodRPCs++
					s.reqBytes += sp.req
					s.respBytes += sp.resp
				}
				if sp.lock {
					s.lockWaitsNs = append(s.lockWaitsNs, sp.dur())
				}
			}
			s.opSelfNs += selfTime(interval{o.start, o.end}, children)
			covered, groups := union(children)
			s.rpcUnionNs += covered
			s.rpcRounds += groups
		}
		for _, sp := range spans {
			if timeDriven(sp.kind) {
				s.timedRPCs++
			}
		}
	}
	var busySum float64
	for i := range tr.handler {
		log := &tr.handler[i]
		log.mu.Lock()
		var ivs []interval
		for _, sp := range log.spans {
			if int32(sp.phase) != phase {
				continue
			}
			s.spans++
			if timeDriven(sp.kind) {
				continue
			}
			s.allHandlerNs += sp.dur()
			if i == numServers {
				continue // the manager: counted for rpc self time only
			}
			ivs = append(ivs, interval{sp.start, sp.end})
			s.handlerCalls++
			s.handlerSumNs += sp.dur()
			if sp.failed {
				s.handlerFails++
			}
			if sp.kind == wire.KReadParity {
				s.readParityNs = append(s.readParityNs, sp.dur())
			}
		}
		log.mu.Unlock()
		if i == numServers || phaseLen <= 0 {
			continue
		}
		covered, _ := union(ivs)
		busy := float64(covered) / float64(phaseLen)
		busySum += busy
		if busy > s.busyMax {
			s.busyMax = busy
		}
	}
	s.busyMean = busySum / numServers
	return s
}

// dump writes every recorded span as one JSON object per line, RPC spans
// first, then handler spans; see README.md for the fields.
func (tr *tracer) dump(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	write := func(layer string, log *spanLog) {
		log.mu.Lock()
		defer log.mu.Unlock()
		for _, s := range log.spans {
			fmt.Fprintf(w, `{"layer":%q,"phase":%d,"kind":%q,"who":%d,"peer":%d,"trace":"%016x","start_ns":%d,"end_ns":%d,"req_b":%d,"resp_b":%d,"failed":%v}`+"\n",
				layer, s.phase, s.kind.String(), s.who, s.peer, s.trace, s.start, s.end, s.req, s.resp, s.failed)
		}
	}
	for i := range tr.rpcs {
		write("rpc", &tr.rpcs[i])
	}
	for i := range tr.handler {
		write("handler", &tr.handler[i])
	}
	if err := w.Flush(); err != nil {
		f.Close() //nolint:errcheck // reporting the write error
		return err
	}
	return f.Close()
}
