package main

import (
	"bytes"
	"errors"
	"fmt"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"runtime/metrics"
	"sync"
	"syscall"
	"time"

	"csar"
	"csar/internal/client"
	"csar/internal/meta"
	"csar/internal/recovery"
	"csar/internal/wire"
)

// deadServer is the server read_degraded_rs42 stops, marks down and rebuilds.
const deadServer = 2

// scale is how much work one run does. The full scale comes from -seconds
// and the frozen rates; -smoke and the tests shrink it.
type scale struct {
	passes  int             // fresh-cluster passes per untraced run; the run reports their median
	ops     [numClients]int // measured operations per client, per pass
	warm    [numClients]int // untimed warm-up operations before them
	fileDiv int64           // files are workload.file / fileDiv bytes
	probe   time.Duration   // time budget of one layer probe
}

// passesPerRun is how many times an untraced run repeats the whole pass —
// fresh cluster, set-up, warm-up, window, oracle — reporting each metric's
// median over the passes. On this shared 2-core box one window's throughput
// moves ±5% with whatever else the host is doing; the median of five holds
// still where one window five times as long does not.
const passesPerRun = 5

// fullScale is the scale of a real run: -seconds of measured window split
// evenly over the passes, each after 0.3 s worth of warm-up.
func fullScale(w *workload, seconds int) scale {
	sc := scale{passes: passesPerRun, fileDiv: 1, probe: 120 * time.Millisecond}
	for c, r := range w.roles {
		sc.ops[c] = r.rate * seconds / passesPerRun
		sc.warm[c] = r.rate * 3 / 10
	}
	return sc
}

// smokeScale runs every code path on a few hundred operations.
func smokeScale(w *workload) scale {
	sc := scale{passes: 2, fileDiv: 8, probe: 2 * time.Millisecond}
	for c := range w.roles {
		sc.ops[c] = 100
		sc.warm[c] = 10
	}
	return sc
}

// sample is one measured operation: when it started (ns since the pass's
// base), how long it took and whether it succeeded with the right bytes.
type sample struct {
	start, dur int64
	ok         bool
}

// procCounters is a point-in-time reading of whole-process costs.
type procCounters struct {
	cpuNs      int64 // user + system, getrusage
	allocBytes uint64
	allocObjs  uint64
	gcCPUSec   float64
	totCPUSec  float64
}

var procSamples = []metrics.Sample{
	{Name: "/gc/heap/allocs:bytes"},
	{Name: "/gc/heap/allocs:objects"},
	{Name: "/cpu/classes/gc/total:cpu-seconds"},
	{Name: "/cpu/classes/total:cpu-seconds"},
}

func readProc() procCounters {
	var ru syscall.Rusage
	syscall.Getrusage(syscall.RUSAGE_SELF, &ru) //nolint:errcheck // RUSAGE_SELF cannot fail
	s := append([]metrics.Sample(nil), procSamples...)
	metrics.Read(s)
	return procCounters{
		cpuNs:      ru.Utime.Nano() + ru.Stime.Nano(),
		allocBytes: s[0].Value.Uint64(),
		allocObjs:  s[1].Value.Uint64(),
		gcCPUSec:   s[2].Value.Float64(),
		totCPUSec:  s[3].Value.Float64(),
	}
}

// heapWatcher samples live heap bytes during the window; proc.heap_peak_mb is
// the largest reading. runtime/metrics does not stop the world.
type heapWatcher struct {
	stop chan struct{}
	done chan struct{}
	peak uint64
}

func watchHeap() *heapWatcher {
	h := &heapWatcher{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(h.done)
		s := []metrics.Sample{{Name: "/memory/classes/heap/objects:bytes"}}
		t := time.NewTicker(20 * time.Millisecond)
		defer t.Stop()
		for {
			metrics.Read(s)
			if v := s[0].Value.Uint64(); v > h.peak {
				h.peak = v
			}
			select {
			case <-h.stop:
				return
			case <-t.C:
			}
		}
	}()
	return h
}

func (h *heapWatcher) finish() uint64 {
	close(h.stop)
	<-h.done
	return h.peak
}

// pass is one fresh cluster taken through set-up, warm-up, the measured
// window, the rebuild phase (one workload), the oracle and tear-down.
type pass struct {
	w  *workload
	sc scale
	tr *tracer // nil on an untraced pass

	// Inputs, all derived from the seed before any timing starts.
	ops   [numClients][]op
	pools [numClients][]byte
	ref   [numClients][]byte // expected contents of client c's file

	cl    *cluster
	files [numClients]*client.File
	base  time.Time // sample times count from here; the tracer's base on a traced pass

	mu sync.Mutex // guards res.attempted, res.failed, res.problems

	res passResult
}

// passResult is everything a pass measured, still in raw form.
type passResult struct {
	setupS    float64
	samples   [numClients][]sample
	windowNs  int64 // barrier to the last primary client finishing
	attempted int
	failed    int
	problems  []string // what the oracle found, for the operator

	userBytes      int64 // bytes read or written by measured operations
	logicalBytes   int64 // Σ file sizes at quiesce
	allocatedBytes int64 // Σ bytes materialised on all stores at quiesce

	client     clientCounters // window only
	proc       procCounters   // window only
	heapPeak   uint64
	walAppends int64

	rebuildNs    int64
	rebuiltBytes int64

	window  traceSummary
	rebuild traceSummary
	storage storageTotals
}

func (p *pass) fileBytes() int64 { return p.w.file / p.sc.fileDiv }

func (p *pass) fileName(c int) string { return fmt.Sprintf("bench-%d", c) }

// owner is the client whose file client c works on.
func (p *pass) owner(c int) int {
	if p.w.shared {
		return 0
	}
	return c
}

func newPass(w *workload, seed int64, sc scale, tr *tracer) *pass {
	p := &pass{w: w, sc: sc, tr: tr}
	for c, r := range w.roles {
		p.ops[c] = genOps(seed, r, c, p.fileBytes(), sc.warm[c]+sc.ops[c])
		if r.kind == opWrite {
			p.pools[c] = genBytes(seed, r.list, c, "pool", poolBytes+r.opBytes)
		}
		if p.owner(c) == c {
			p.ref[c] = genBytes(seed, w.name, c, "preload", int(p.fileBytes()))
		}
	}
	return p
}

// setup builds the cluster and brings it to the state the window starts from:
// listeners up, clients dialled, files created, preloaded with whole-stripe
// writes and synced. Only this — system work, not input generation — is
// setup_s.
func (p *pass) setup() error {
	cl, err := newCluster(p.tr, p.w.persistentMeta)
	if err != nil {
		return err
	}
	p.cl = cl
	stripe := int64(stripeRAID5)
	if p.w.scheme == wire.ReedSolomon {
		stripe = stripeRS42
	}
	for c := 0; c < numClients; c++ {
		m, err := cl.dial()
		if err != nil {
			return err
		}
		if p.owner(c) != c {
			if p.files[c], err = m.Open(p.fileName(p.owner(c))); err != nil {
				return err
			}
			continue
		}
		f, err := m.CreateParity(p.fileName(c), numServers, stripeUnit, p.w.scheme, p.w.parity)
		if err != nil {
			return err
		}
		p.files[c] = f
		for off := int64(0); off < p.fileBytes(); off += 4 * stripe {
			end := min(off+4*stripe, p.fileBytes())
			if _, err := f.WriteAt(p.ref[c][off:end], off); err != nil {
				return fmt.Errorf("preload: %w", err)
			}
		}
		if err := f.Sync(); err != nil {
			return err
		}
	}
	return nil
}

// teardown closes everything the pass started and returns the heap to the
// operating system, so the next cluster in this process starts as the first
// one did. (A prototype that kept earlier files alive ran the next workload
// at a quarter of its speed from heap growth alone.)
func (p *pass) teardown() error {
	if p.cl == nil {
		return nil
	}
	err := p.cl.close()
	p.cl = nil
	p.files = [numClients]*client.File{}
	runtime.GC()
	debug.FreeOSMemory()
	return err
}

func (p *pass) now() int64 { return int64(time.Since(p.base)) }

// replay runs ops on client c, one after another. rec, when not nil, takes
// one sample per op. Reads of a file nobody is writing are compared with the
// reference as they complete, after the latency clock has stopped.
func (p *pass) replay(c int, ops []op, rec []sample) {
	m := p.cl.clients[c]
	f := p.files[c]
	var buf []byte
	if p.w.roles[c].kind == opRead {
		buf = make([]byte, p.w.roles[c].opBytes)
	}
	compare := !p.w.shared
	ref := p.ref[p.owner(c)]
	for i, o := range ops {
		start := p.now()
		var ok bool
		switch o.kind {
		case opWrite:
			n, err := f.WriteAt(p.pools[c][o.src:o.src+o.n], o.off)
			ok = err == nil && n == int(o.n)
		case opRead:
			n, err := f.ReadAt(buf[:o.n], o.off)
			ok = err == nil && n == int(o.n)
		case opCreate:
			_, err := m.CreateParity(createName(c, o.off), numServers, stripeUnit, p.w.scheme, p.w.parity)
			ok = err == nil
		}
		dur := p.now() - start
		if ok && o.kind == opRead && compare {
			ok = bytes.Equal(buf[:o.n], ref[o.off:o.off+int64(o.n)])
		}
		if rec != nil {
			rec[i] = sample{start: start, dur: dur, ok: ok}
		} else {
			p.check(ok, "client %d: warm-up op %d failed", c, i)
		}
	}
}

// check counts one attempt — a measured operation, a rebuild or an oracle
// comparison — and, when it did not hold, one failure.
func (p *pass) check(ok bool, format string, args ...any) bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.res.attempted++
	if !ok {
		p.res.failed++
		if len(p.res.problems) < 20 {
			p.res.problems = append(p.res.problems, fmt.Sprintf(format, args...))
		}
	}
	return ok
}

// eachClient runs fn for every client concurrently and waits for all.
func eachClient(fn func(c int)) {
	var wg sync.WaitGroup
	for c := 0; c < numClients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			fn(c)
		}(c)
	}
	wg.Wait()
}

// The client.Metrics fields the ledger reports, as indices into
// clientCounters.
const (
	cReads = iota
	cDegradedReads
	cFullStripes
	cRMWs
	cOverflows
	cMirrors
	cRetries
	cTimeouts
	cBreakerTrips
	cLeaseRenewals
	numCounters
)

type clientCounters [numCounters]int64

// sumMetrics adds the reported counters up over all clients.
func sumMetrics(clients []*client.Client) clientCounters {
	var t clientCounters
	for _, c := range clients {
		m := c.Metrics()
		one := clientCounters{m.Reads, m.DegradedReads, m.FullStripes, m.RMWs, m.OverflowWrites,
			m.MirrorWrites, m.Retries, m.Timeouts, m.BreakerTrips, m.LeaseRenewals}
		for i, v := range one {
			t[i] += v
		}
	}
	return t
}

// since is the counters' growth from before to a.
func (a clientCounters) since(before clientCounters) clientCounters {
	for i := range a {
		a[i] -= before[i]
	}
	return a
}

func (a procCounters) sub(b procCounters) procCounters {
	return procCounters{a.cpuNs - b.cpuNs, a.allocBytes - b.allocBytes, a.allocObjs - b.allocObjs,
		a.gcCPUSec - b.gcCPUSec, a.totCPUSec - b.totCPUSec}
}

// walAppends reads the manager's WAL append counter through the public Stats
// RPC.
func (p *pass) walAppends() int64 {
	var n int64
	for _, r := range p.cl.clients[0].ManagerStats() {
		for _, kv := range r.Counters {
			if kv.Name == "meta_wal_appends" {
				n += kv.Value
			}
		}
	}
	return n
}

// window is the warm-up and the measured window.
func (p *pass) window() {
	if p.w.rebuilds > 0 { // the degraded-read workload
		p.cl.stopServer(deadServer)
		for _, m := range p.cl.clients {
			m.MarkDown(deadServer)
		}
	}
	eachClient(func(c int) { p.replay(c, p.ops[c][:p.sc.warm[c]], nil) })

	for c := range p.res.samples {
		p.res.samples[c] = make([]sample, p.sc.ops[c])
	}
	metricsBefore := sumMetrics(p.cl.clients)
	walBefore := p.walAppends()
	var storageBefore storageTotals
	if p.tr != nil {
		storageBefore = p.tr.storageSnapshot()
	}
	runtime.GC() // every window starts from a collected heap
	heap := watchHeap()
	procBefore := readProc()
	if p.tr != nil {
		p.tr.phase.Store(phaseWindow)
	}

	var ends [numClients]int64
	start := p.now()
	eachClient(func(c int) {
		p.replay(c, p.ops[c][p.sc.warm[c]:], p.res.samples[c])
		ends[c] = p.now()
	})

	if p.tr != nil {
		p.tr.phase.Store(phaseOff)
	}
	p.res.proc = readProc().sub(procBefore)
	p.res.heapPeak = heap.finish()
	var last int64
	for c, end := range ends {
		last = max(last, end-start)
		if p.w.primary(c) {
			p.res.windowNs = max(p.res.windowNs, end-start)
		}
	}
	p.res.client = sumMetrics(p.cl.clients).since(metricsBefore)
	p.res.walAppends = p.walAppends() - walBefore
	var opSpans []opSpan
	for c, ss := range p.res.samples {
		for i, s := range ss {
			p.check(s.ok, "client %d: measured op %d failed", c, i)
			p.res.userBytes += int64(p.ops[c][p.sc.warm[c]+i].n)
			opSpans = append(opSpans, opSpan{client: c, start: s.start, end: s.start + s.dur})
		}
	}
	if p.tr != nil {
		p.res.storage = p.tr.storageSnapshot().sub(storageBefore)
		p.res.window = p.tr.analyse(phaseWindow, opSpans, last)
	}
}

// rebuildPhase replaces the dead server with a blank one and has each client
// rebuild its file onto it, w.rebuilds times over.
func (p *pass) rebuildPhase() {
	var opSpans []opSpan
	for r := 0; r < p.w.rebuilds; r++ {
		if r > 0 {
			p.cl.stopServer(deadServer)
		}
		if err := p.cl.replaceServer(deadServer); !p.check(err == nil, "rebuild %d: %v", r, err) {
			return
		}
		// The clients' pooled connections to the dead server are broken and
		// are only replaced when a call finds them so. Rebuild's writes are
		// not retried, so spend one throw-away call per pooled connection
		// first — what an operator's health check does before a rebuild.
		for _, m := range p.cl.clients {
			for i := 0; i < csar.DefaultConnsPerServer; i++ {
				m.ServerCaller(deadServer).Call(&wire.Health{}) //nolint:errcheck // flushing broken connections
			}
		}
		if p.tr != nil {
			p.tr.phase.Store(phaseRebuild)
		}
		var spans [numClients]opSpan
		start := p.now()
		eachClient(func(c int) {
			spans[c] = opSpan{client: c, start: p.now()}
			err := recovery.Rebuild(p.cl.clients[c], p.files[c], deadServer)
			spans[c].end = p.now()
			p.check(err == nil, "rebuild %d of client %d: %v", r, c, err)
		})
		p.res.rebuildNs += p.now() - start
		if p.tr != nil {
			p.tr.phase.Store(phaseOff)
		}
		opSpans = append(opSpans, spans[:]...)
		p.res.rebuiltBytes += p.cl.iods[deadServer].disk.AllocatedBytes()
	}
	for _, m := range p.cl.clients {
		m.MarkUp(deadServer)
	}
	if p.tr != nil {
		p.res.rebuild = p.tr.analyse(phaseRebuild, opSpans, p.res.rebuildNs)
	}
}

// oracle checks the program's outputs: every file is read back whole and
// compared with a reference the op lists were applied to, and its redundancy
// invariants are verified; created names must all be listed.
func (p *pass) oracle() {
	for c, r := range p.w.roles {
		if r.kind != opWrite {
			continue
		}
		ref := p.ref[p.owner(c)]
		for _, o := range p.ops[c] {
			copy(ref[o.off:o.off+int64(o.n)], p.pools[c][o.src:o.src+o.n])
		}
	}
	eachClient(func(c int) {
		f := p.files[c]
		ref := p.ref[p.owner(c)]
		if !p.check(f.Size() == int64(len(ref)), "client %d: file size %d, want %d", c, f.Size(), len(ref)) {
			return
		}
		buf := make([]byte, mib)
		for off := int64(0); off < int64(len(ref)); off += mib {
			want := ref[off:min(off+mib, int64(len(ref)))]
			n, err := f.ReadAt(buf[:len(want)], off)
			if !p.check(err == nil && n == len(want) && bytes.Equal(buf[:n], want),
				"client %d: read-back differs from the reference in [%d,%d) (n=%d err=%v)", c, off, off+int64(len(want)), n, err) {
				return
			}
		}
		if p.owner(c) != c {
			return // the owner verifies the shared file
		}
		problems, err := recovery.Verify(p.cl.clients[c], f)
		p.check(err == nil && len(problems) == 0, "client %d: verify: %v %v", c, err, problems)
	})
	for c := 0; c < numClients; c++ {
		if p.owner(c) == c {
			p.res.logicalBytes += p.files[c].Size()
		}
	}
	p.res.allocatedBytes = p.cl.allocatedBytes()
	if p.w.roles[0].kind == opCreate {
		names, err := p.cl.clients[0].List()
		p.check(err == nil, "list: %v", err)
		p.checkNames(names, "list")
	}
}

func (p *pass) checkNames(names []string, where string) {
	have := make(map[string]bool, len(names))
	for _, n := range names {
		have[n] = true
	}
	missing := ""
	for c := range p.w.roles {
		for _, o := range p.ops[c] {
			if n := createName(c, o.off); !have[n] && missing == "" {
				missing = n
			}
		}
	}
	p.check(missing == "", "%s: created file %s is missing", where, missing)
}

// reopenMeta restarts the persistent manager from its directory and checks
// that every acknowledged create survived. Killing a process keeps the page
// cache, so this proves the log replays, not that each append reached disk.
func (p *pass) reopenMeta() {
	// Stop the listener first: nothing may reach the manager while it is
	// swapped.
	p.cl.mgrEP.stop()
	err := p.cl.mgr.Close()
	p.cl.mgr = nil
	if !p.check(err == nil, "closing manager: %v", err) {
		return
	}
	m, err := meta.NewPersistent(numServers, nil, filepath.Join(p.cl.tmpDir, "meta.json"))
	if !p.check(err == nil, "reopening manager: %v", err) {
		return
	}
	p.cl.mgr = m // closed with the cluster
	resp, err := m.Handle(&wire.List{})
	if p.check(err == nil, "list after manager restart: %v", err) {
		p.checkNames(resp.(*wire.ListResp).Names, "after manager restart")
	}
}

// run takes the pass from nothing to a torn-down cluster. The cluster is
// closed on every path, including a failed set-up or oracle.
func (p *pass) run() (err error) {
	defer func() { err = errors.Join(err, p.teardown()) }()
	start := time.Now()
	p.base = start
	if p.tr != nil {
		p.base = p.tr.base
	}
	if err := p.setup(); err != nil {
		return fmt.Errorf("%s: set-up: %w", p.w.name, err)
	}
	p.res.setupS = time.Since(start).Seconds()
	p.window()
	if p.w.rebuilds > 0 {
		p.rebuildPhase()
	}
	p.oracle()
	if p.w.persistentMeta {
		p.reopenMeta()
	}
	return nil
}
