// Package scrub implements CSAR's online integrity scrubber: a background
// pass that walks a file stripe by stripe, cross-checks every redundant copy
// against the data it protects, and repairs silent corruption in place —
// while the file stays online and foreground writers keep going.
//
// The scrubber compares checksums, not bytes. Each I/O server computes
// CRC32C sums over its local stores (the ChecksumRange request), so the
// modeled network carries a few words per stripe unit instead of the unit
// itself; full blocks are read back only for ranges whose checksums
// disagree. The RAID5/Hybrid parity fast path never ships data at all:
// CRC32 is affine over GF(2), so the checksum the parity block *should*
// have is computed from the data units' checksums alone (xorSum).
//
// What a mismatch means depends on history. A checksum Journal carries
// last-known-good evidence between passes: the copy still matching the
// checksum it had when everything last agreed wins, and the other is
// repaired. Without evidence the scrubber applies the conservative default
// of md-raid's repair mode — the data copy is assumed good and the
// redundancy (mirror, parity, overflow mirror) is regenerated from it.
// Repairs that would overwrite the primary data copy are additionally
// gated behind Options.RepairData, because a wrong guess there loses user
// bytes rather than redundancy.
//
// Scrubbing is safe concurrently with foreground writes: byte-level stripe
// verification takes the same parity lock the read-modify-write path uses,
// transient disagreements (a write landing between two reads) are detected
// by double-reading and skipped, and journal entries are dropped on any
// mismatch so stale evidence can never outvote data a writer just wrote.
// The scrubber's own disk traffic is metered by a token-bucket rate limiter
// driven by simulated time, so a throttled scrub steals a bounded, settable
// share of the disks from foreground I/O.
package scrub

import (
	"bytes"
	"errors"
	"fmt"
	"hash/crc32"
	"sync"
	"sync/atomic"
	"time"

	"csar/internal/client"
	"csar/internal/raid"
	"csar/internal/simtime"
	"csar/internal/wire"
)

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// ErrCanceled is returned by Run when Options.Cancel fires mid-pass. The
// report still covers everything scrubbed up to that point.
var ErrCanceled = errors.New("scrub: canceled")

// allRange covers any store offset; used to checksum a whole overflow table.
const allRange = int64(1) << 62

// batchStripes is how many stripe rows of checksums are fetched from every
// server in one round trip.
const batchStripes int64 = 4

// Options tunes one scrub pass.
type Options struct {
	// RateLimit caps the scrubber's store I/O in bytes per second of
	// simulated time (wall time when the client is untimed). Zero or
	// negative means unlimited.
	RateLimit float64
	// Journal carries last-known-good checksums between passes of the same
	// file, enabling evidence-based repair decisions. Nil disables them:
	// every mismatch falls back to regenerating redundancy from data.
	Journal *Journal
	// RepairData allows the scrubber to overwrite the primary data copy
	// when the evidence says the data — not the redundancy — is corrupt.
	// Off by default; such mismatches are then reported as unrepairable.
	RepairData bool
	// Cancel, when closed, stops the pass at the next batch boundary; Run
	// then returns its partial report with ErrCanceled. Nil never cancels.
	Cancel <-chan struct{}
}

// Counts summarizes one redundancy kind's scrub outcome.
type Counts struct {
	Checked      int64 // units / stripes / overflow pairs examined
	Mismatched   int64 // found inconsistent at the byte level
	Repaired     int64 // repaired in place
	Unrepairable int64 // left inconsistent (repair gated off or impossible)
}

func (c *Counts) add(o Counts) {
	c.Checked += o.Checked
	c.Mismatched += o.Mismatched
	c.Repaired += o.Repaired
	c.Unrepairable += o.Unrepairable
}

// Report is the outcome of one scrub pass over one file.
type Report struct {
	Scheme        wire.Scheme
	BytesScrubbed int64 // store bytes examined (checksummed or read back)
	Mirror        Counts
	Parity        Counts
	Overflow      Counts
	// IntentSkips counts stripes the pass left unexamined because their
	// parity server holds a write intent for them: an RMW is in flight (or
	// died and awaits replay), so data and parity legitimately disagree and
	// "repairing" the stripe would destroy the evidence replay needs.
	IntentSkips int64
	Problems    []string // human-readable notes on every mismatch
}

// Totals sums the per-kind counts.
func (r *Report) Totals() Counts {
	var t Counts
	t.add(r.Mirror)
	t.add(r.Parity)
	t.add(r.Overflow)
	return t
}

// Clean reports whether the pass found no mismatches.
func (r *Report) Clean() bool { return r.Totals().Mismatched == 0 }

func (r *Report) String() string {
	t := r.Totals()
	return fmt.Sprintf("scrub %v: %d checked, %d mismatched, %d repaired, %d unrepairable (%d bytes scrubbed)",
		r.Scheme, t.Checked, t.Mismatched, t.Repaired, t.Unrepairable, r.BytesScrubbed)
}

// Run performs one scrub pass over f and repairs what it safely can. It
// returns a report even when it fails partway (the counts cover the part
// that ran). A RAID0 file has no redundancy to check and yields an empty
// report.
func Run(c *client.Client, f *client.File, opts Options) (*Report, error) {
	g := f.Geometry()
	ref := f.Ref()
	rep := &Report{Scheme: ref.Scheme}
	for i := 0; i < g.Servers; i++ {
		if c.Down(i) {
			return rep, fmt.Errorf("scrub: server %d is down; rebuild it before scrubbing", i)
		}
	}
	size := f.Size()
	// Raid0 stores no redundancy, and Raid5NPC deliberately writes
	// uncomputed parity (a CPU-cost ablation): neither has an invariant a
	// scrub could check, let alone repair.
	if size == 0 || ref.Scheme == wire.Raid0 || ref.Scheme == wire.Raid5NPC {
		return rep, nil
	}
	defer c.ObserveSince("scrub_pass", time.Now())
	s := &scrubber{
		c:    c,
		f:    f,
		g:    g,
		ref:  ref,
		size: size,
		su:   g.StripeUnit,
		opts: opts,
		lim:  c.PassLimiter(opts.RateLimit),
		zero: crc32.Checksum(make([]byte, g.StripeUnit), castagnoli),
		rep:  rep,
	}
	var err error
	switch {
	case ref.Scheme == wire.Raid1:
		err = s.scrubMirrors()
	case ref.Scheme.UsesParity():
		err = s.scrubParity()
		if err == nil && ref.Scheme == wire.Hybrid {
			err = s.scrubOverflow()
		}
	}
	rep.BytesScrubbed = s.bytes.Load()
	t := rep.Totals()
	// Bytes were noted incrementally by throttle (so a long pass shows live
	// progress in Metrics); only the outcome counts remain.
	c.NoteScrub(0, t.Mismatched, t.Repaired, t.Unrepairable)
	c.NoteIntentSkips(rep.IntentSkips)
	return rep, err
}

type scrubber struct {
	c    *client.Client
	f    *client.File
	g    raid.Geometry
	ref  wire.FileRef
	size int64
	su   int64
	opts Options
	lim  *simtime.Limiter
	zero uint32 // CRC32C of one all-zero stripe unit

	bytes atomic.Int64 // store bytes examined; atomic: sums() runs per-server goroutines
	rep   *Report
}

func (s *scrubber) call(idx int, m wire.Msg) (wire.Msg, error) {
	return s.c.ServerCaller(idx).Call(m)
}

// throttle charges n store bytes against the rate limiter, then the report
// and the client's live scrub metrics — after the wait, so the metrics
// reflect transfers the limiter has let through, not reservations.
func (s *scrubber) throttle(n int64) {
	s.lim.Acquire(n)
	s.bytes.Add(n)
	s.c.NoteScrub(n, 0, 0, 0)
}

// canceled reports whether Options.Cancel has fired.
func (s *scrubber) canceled() bool {
	select {
	case <-s.opts.Cancel:
		return true
	default:
		return false
	}
}

func (s *scrubber) problemf(format string, args ...any) {
	s.rep.Problems = append(s.rep.Problems, fmt.Sprintf(format, args...))
}

func crcOf(p []byte) uint32 { return crc32.Checksum(p, castagnoli) }

// xorSum returns the CRC32C the XOR of the checksummed blocks must have.
// CRC32 is affine over GF(2): crc(x) = L(x) ⊕ c with L linear and
// c = crc(zeros), so crc(⊕dᵢ) = ⊕crc(dᵢ) ⊕ ((k+1) mod 2)·c for k blocks.
func xorSum(sums []uint32, zero uint32) uint32 {
	var x uint32
	for _, s := range sums {
		x ^= s
	}
	if len(sums)%2 == 0 {
		x ^= zero
	}
	return x
}

// eachServer runs fn for every server concurrently and joins the errors.
func (s *scrubber) eachServer(fn func(i int) error) error {
	errs := make([]error, s.g.Servers)
	var wg sync.WaitGroup
	for i := 0; i < s.g.Servers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			errs[i] = fn(i)
		}(i)
	}
	wg.Wait()
	return errors.Join(errs...)
}

// sums fetches checksums over one store range of one server and charges the
// server-reported byte count against the rate limit.
func (s *scrubber) sums(srv int, store uint8, off, length, chunk int64) ([]uint32, error) {
	resp, err := s.call(srv, &wire.ChecksumRange{
		File: s.ref, Store: store, Off: off, Len: length, Chunk: chunk,
	})
	if err != nil {
		return nil, err
	}
	cr := resp.(*wire.ChecksumRangeResp)
	s.throttle(cr.Bytes)
	return cr.Sums, nil
}

// readRawUnit reads one whole unit's in-place bytes from its server.
func (s *scrubber) readRawUnit(b int64) ([]byte, error) {
	span := wire.Span{Off: s.g.UnitStart(b), Len: s.su}
	resp, err := s.call(s.g.ServerOf(b), &wire.Read{File: s.ref, Spans: []wire.Span{span}, Raw: true})
	if err != nil {
		return nil, err
	}
	data := resp.(*wire.ReadResp).Data
	if int64(len(data)) != s.su {
		return nil, fmt.Errorf("scrub: short read of unit %d", b)
	}
	s.throttle(s.su)
	return data, nil
}

// readMirrorUnit reads one unit's mirror copy from the next server.
func (s *scrubber) readMirrorUnit(b int64) ([]byte, error) {
	span := wire.Span{Off: s.g.UnitStart(b), Len: s.su}
	resp, err := s.call(s.g.MirrorServerOf(b), &wire.ReadMirror{File: s.ref, Spans: []wire.Span{span}})
	if err != nil {
		return nil, err
	}
	data := resp.(*wire.ReadResp).Data
	if int64(len(data)) != s.su {
		return nil, fmt.Errorf("scrub: short read of unit %d's mirror", b)
	}
	s.throttle(s.su)
	return data, nil
}

// --- RAID1 -----------------------------------------------------------------

// scrubMirrors cross-checks every data unit against its mirror. One "row"
// is one local unit per server, so a row of data checksums plus a row of
// mirror checksums covers N units; rows are fetched in batches from all
// servers concurrently.
func (s *scrubber) scrubMirrors() error {
	n := int64(s.g.Servers)
	units := s.g.UnitsIn(s.size)
	rows := (units + n - 1) / n
	for r0 := int64(0); r0 < rows; r0 += batchStripes {
		if s.canceled() {
			return ErrCanceled
		}
		r1 := min(r0+batchStripes, rows)
		dataSums := make([][]uint32, s.g.Servers)
		mirSums := make([][]uint32, s.g.Servers)
		err := s.eachServer(func(i int) error {
			ds, err := s.sums(i, wire.StoreData, r0*s.su, (r1-r0)*s.su, s.su)
			if err != nil {
				return err
			}
			ms, err := s.sums(i, wire.StoreMirror, r0*s.su, (r1-r0)*s.su, s.su)
			if err != nil {
				return err
			}
			dataSums[i], mirSums[i] = ds, ms
			return nil
		})
		if err != nil {
			return err
		}
		for b := r0 * n; b < r1*n && b < units; b++ {
			s.rep.Mirror.Checked++
			dc := dataSums[s.g.ServerOf(b)][b/n-r0]
			mc := mirSums[s.g.MirrorServerOf(b)][b/n-r0]
			if dc == mc {
				s.opts.Journal.setUnit(b, dc)
				continue
			}
			if err := s.checkMirrorUnit(b); err != nil {
				return err
			}
		}
	}
	return nil
}

// checkMirrorUnit re-examines one unit whose checksums disagreed, at the
// byte level. RAID1 has no lock to serialize against writers, so each copy
// is read twice: a copy still changing belongs to an in-flight foreground
// write and is left for the next pass.
func (s *scrubber) checkMirrorUnit(b int64) error {
	prim1, err := s.readRawUnit(b)
	if err != nil {
		return err
	}
	mir1, err := s.readMirrorUnit(b)
	if err != nil {
		return err
	}
	prim, err := s.readRawUnit(b)
	if err != nil {
		return err
	}
	mir, err := s.readMirrorUnit(b)
	if err != nil {
		return err
	}
	if !bytes.Equal(prim1, prim) || !bytes.Equal(mir1, mir) {
		s.opts.Journal.dropUnit(b)
		return nil // foreground write in flight; revisit next pass
	}
	if bytes.Equal(prim, mir) {
		// The checksum mismatch was a transient race; the copies agree.
		s.opts.Journal.setUnit(b, crcOf(prim))
		return nil
	}
	s.rep.Mirror.Mismatched++
	defer s.opts.Journal.dropUnit(b)
	pc, mc := crcOf(prim), crcOf(mir)
	known, ok := s.opts.Journal.unit(b)
	switch {
	case ok && known == pc:
		return s.repairMirror(b, prim)
	case ok && known == mc:
		if !s.opts.RepairData {
			s.rep.Mirror.Unrepairable++
			s.problemf("unit %d: primary fails its last-known-good checksum; mirror matches (RepairData off)", b)
			return nil
		}
		return s.repairData(b, mir, &s.rep.Mirror)
	default:
		s.problemf("unit %d: mirror differs from primary with no usable evidence; rewriting mirror from primary", b)
		return s.repairMirror(b, prim)
	}
}

func (s *scrubber) repairMirror(b int64, data []byte) error {
	span := wire.Span{Off: s.g.UnitStart(b), Len: s.su}
	if _, err := s.call(s.g.MirrorServerOf(b), &wire.WriteMirror{
		File: s.ref, Spans: []wire.Span{span}, Data: data,
	}); err != nil {
		return err
	}
	s.throttle(s.su)
	s.rep.Mirror.Repaired++
	return nil
}

func (s *scrubber) repairData(b int64, data []byte, counts *Counts) error {
	span := wire.Span{Off: s.g.UnitStart(b), Len: s.su}
	if _, err := s.call(s.g.ServerOf(b), &wire.WriteData{
		File: s.ref, Spans: []wire.Span{span}, Data: data, Raw: true,
	}); err != nil {
		return err
	}
	s.throttle(s.su)
	counts.Repaired++
	return nil
}

// --- Parity schemes --------------------------------------------------------

// paritySum folds the m parity-unit checksums of one stripe into the single
// value the Journal stores per stripe.
func paritySum(sums []uint32) uint32 {
	buf := make([]byte, 4*len(sums))
	for i, s := range sums {
		buf[4*i] = byte(s)
		buf[4*i+1] = byte(s >> 8)
		buf[4*i+2] = byte(s >> 16)
		buf[4*i+3] = byte(s >> 24)
	}
	return crcOf(buf)
}

// scrubParity cross-checks every stripe's m parity units against its k data
// units, using checksums only. A "window" of N consecutive stripes places
// exactly k data units and m parity units on every server, so per window
// each server contributes a contiguous run of k data checksums and m parity
// checksums; windows are fetched in batches.
//
// The checksum fast path leans on CRC32 being affine over GF(2), which
// covers XOR parity only: parity unit 0 of every stripe is the plain XOR of
// the data units (the first coefficient row is all ones — it is the one unit
// RAID5 and Hybrid have) and is checked from checksums alone, but units
// j > 0 are GF(256) combinations whose CRCs are not derivable from the data
// units' CRCs. Those are instead checked against the Journal: a stripe whose
// every current checksum — data units and parity units — still equals its
// last-known-good value is unchanged since it was last verified consistent.
// Everything else (and, with m > 1, every stripe on a journal-less pass) is
// verified at the byte level by re-encoding the stripe.
func (s *scrubber) scrubParity() error {
	n := int64(s.g.Servers)
	dw := int64(s.g.DataWidth())
	m := s.g.PU()
	stripes := s.g.StripesIn(s.size)
	windows := (stripes + n - 1) / n
	intents, err := s.intentStripes()
	if err != nil {
		return err
	}
	for w0 := int64(0); w0 < windows; w0 += batchStripes {
		if s.canceled() {
			return ErrCanceled
		}
		w1 := min(w0+batchStripes, windows)
		dataSums := make([][]uint32, s.g.Servers)
		parSums := make([][]uint32, s.g.Servers)
		err := s.eachServer(func(i int) error {
			ds, err := s.sums(i, wire.StoreData, w0*dw*s.su, (w1-w0)*dw*s.su, s.su)
			if err != nil {
				return err
			}
			ps, err := s.sums(i, wire.StoreParity, w0*int64(m)*s.su, (w1-w0)*int64(m)*s.su, s.su)
			if err != nil {
				return err
			}
			dataSums[i], parSums[i] = ds, ps
			return nil
		})
		if err != nil {
			return err
		}
		for st := w0 * n; st < w1*n && st < stripes; st++ {
			if intents[st] {
				// A write intent covers this stripe: an update is in flight
				// or awaits replay; its transient mismatch is not corruption.
				s.rep.IntentSkips++
				continue
			}
			s.rep.Parity.Checked++
			first, count := s.g.DataUnitsOf(st)
			unitSums := make([]uint32, count)
			for j := 0; j < count; j++ {
				u := first + int64(j)
				unitSums[j] = dataSums[s.g.ServerOf(u)][u/n-w0*dw]
			}
			pSums := make([]uint32, m)
			for j := 0; j < m; j++ {
				srv := s.g.ParityServerOfUnit(st, j)
				pSums[j] = parSums[srv][s.g.ParityLocalOffsetOn(srv, st)/s.su-w0*int64(m)]
			}
			if s.fastPathConsistent(st, first, count, unitSums, pSums) {
				continue
			}
			if err := s.checkStripe(st); err != nil {
				return err
			}
		}
	}
	return nil
}

// fastPathConsistent decides from checksums alone that a stripe is
// consistent: parity unit 0 must equal the XOR of the data units, and — when
// there are further units — every checksum, each data unit's and the folded
// parity set, must match its last-known-good journal entry (proving the
// GF-combined units j > 0 unchanged since the last byte-level verification).
// On success the journal entries are refreshed; any failure sends the stripe
// to byte-level review.
func (s *scrubber) fastPathConsistent(st, first int64, count int, unitSums, pSums []uint32) bool {
	if xorSum(unitSums, s.zero) != pSums[0] {
		return false
	}
	if len(pSums) > 1 {
		known, ok := s.opts.Journal.parityOf(st)
		if !ok || known != paritySum(pSums) {
			return false
		}
		for j := 0; j < count; j++ {
			u, ok := s.opts.Journal.unit(first + int64(j))
			if !ok || u != unitSums[j] {
				return false
			}
		}
	}
	for j := 0; j < count; j++ {
		s.opts.Journal.setUnit(first+int64(j), unitSums[j])
	}
	s.opts.Journal.setParity(st, paritySum(pSums))
	return true
}

// intentStripes fetches every parity server's write-intent set at the start
// of a parity pass; the covered stripes are mid-update (or fail-stopped
// awaiting replay) and must not be "repaired" from their transient state.
func (s *scrubber) intentStripes() (map[int64]bool, error) {
	intents := make(map[int64]bool)
	var mu sync.Mutex
	err := s.eachServer(func(i int) error {
		resp, err := s.call(i, &wire.ListIntents{File: s.ref})
		if err != nil {
			return err
		}
		lr, ok := resp.(*wire.ListIntentsResp)
		if !ok {
			return fmt.Errorf("scrub: unexpected intent listing %T", resp)
		}
		mu.Lock()
		for _, in := range lr.Intents {
			intents[in.Stripe] = true
		}
		mu.Unlock()
		return nil
	})
	return intents, err
}

// checkStripe re-verifies one stripe at the byte level and repairs it. It
// holds parity unit 0 the way a read-modify-write does — lock, owner token
// and lease included, so a scrubber that dies here costs the stripe one
// lease and a replay, not a wedge. Locking unit 0's server suffices to
// serialize against foreground read-modify-writes: every one acquires its
// parity locks in unit order, so none can get past unit 0 while the scrubber
// holds it. The hold is released by the closing write to that server —
// either the repair itself or an unchanged write-back.
func (s *scrubber) checkStripe(st int64) error {
	code := s.f.Code()
	first, count := s.g.DataUnitsOf(st)
	m := s.g.PU()

	hold, err := s.f.HoldParity(st, 0)
	if errors.Is(err, wire.ErrStripeTorn) {
		// The stripe fail-stopped (lease expiry) after the pass-start intent
		// snapshot; it belongs to recovery's replay, not to the scrubber.
		s.rep.IntentSkips++
		s.rep.Parity.Checked--
		return nil
	}
	if err != nil {
		return err
	}
	// Every way out that does not repair unit 0 leaves the stripe's parity
	// unit 0 as it was read.
	release := func(cause error) error {
		if rerr := hold.Release(); cause == nil {
			return rerr
		}
		return cause
	}
	parity := make([][]byte, m)
	parity[0] = hold.Data()
	s.throttle(s.su)
	for j := 1; j < m; j++ {
		resp, rerr := s.call(s.g.ParityServerOfUnit(st, j), &wire.ReadParity{
			File: s.ref, Stripes: []int64{st},
		})
		if rerr != nil {
			return release(rerr)
		}
		parity[j] = resp.(*wire.ReadResp).Data
		if int64(len(parity[j])) != s.su {
			return release(fmt.Errorf("scrub: short parity read of stripe %d unit %d", st, j))
		}
		s.throttle(s.su)
	}
	units := make([][]byte, count)
	for j := 0; j < count; j++ {
		data, rerr := s.readRawUnit(first + int64(j))
		if rerr != nil {
			return release(rerr)
		}
		units[j] = data
	}

	want := make([][]byte, m)
	for j := range want {
		want[j] = make([]byte, s.su)
	}
	code.EncodeInto(want, units)
	var badParity []int
	curParity := make([]uint32, m)
	for j := 0; j < m; j++ {
		curParity[j] = crcOf(parity[j])
		if !bytes.Equal(want[j], parity[j]) {
			badParity = append(badParity, j)
		}
	}
	if len(badParity) == 0 {
		// The checksum mismatch (or cold journal) resolved consistent under
		// the lock; record the evidence for the next pass's fast path.
		for j := 0; j < count; j++ {
			s.opts.Journal.setUnit(first+int64(j), crcOf(units[j]))
		}
		s.opts.Journal.setParity(st, paritySum(curParity))
		return release(nil)
	}
	s.rep.Parity.Mismatched++
	defer s.opts.Journal.dropStripe(st, first, count)

	// Journal evidence is usable only if it covers the whole stripe: the
	// parity entry and every unit entry must exist, and at most one copy
	// may deviate from its last-known-good checksum.
	knownParity, haveParity := s.opts.Journal.parityOf(st)
	allUnits := true
	var deviants []int
	for j := 0; j < count; j++ {
		known, ok := s.opts.Journal.unit(first + int64(j))
		if !ok {
			allUnits = false
			break
		}
		if crcOf(units[j]) != known {
			deviants = append(deviants, j)
		}
	}
	parityDeviates := haveParity && paritySum(curParity) != knownParity

	switch {
	case haveParity && allUnits && parityDeviates && len(deviants) == 0:
		// Every data unit still matches its last-known-good checksum and
		// the parity alone drifted: the parity is corrupt.
		s.problemf("stripe %d: parity fails its last-known-good checksum; regenerating from data", st)
		return s.repairParity(st, hold, badParity, want)
	case haveParity && allUnits && !parityDeviates && len(deviants) == 1:
		// Parity and every other unit still match their last-known-good
		// checksums: the deviating unit is corrupt, and its original bytes
		// are recoverable by decoding from any k of the survivors.
		bad := first + int64(deviants[0])
		if !s.opts.RepairData {
			s.rep.Parity.Unrepairable++
			s.problemf("stripe %d: unit %d fails its last-known-good checksum; parity matches (RepairData off)", st, bad)
			return release(nil)
		}
		all := append(append([][]byte(nil), units...), parity...)
		all[deviants[0]] = nil
		if derr := code.Reconstruct(all); derr != nil {
			return release(derr)
		}
		s.problemf("stripe %d: unit %d fails its last-known-good checksum; restoring it from parity", st, bad)
		return release(s.repairData(bad, all[deviants[0]], &s.rep.Parity))
	default:
		s.problemf("stripe %d: parity does not match data and no usable evidence; regenerating parity from data", st)
		return s.repairParity(st, hold, badParity, want)
	}
}

// repairParity rewrites the mismatched parity units of one stripe from the
// re-encoded data. Unit 0 goes last and through the hold, which releases it;
// when unit 0 was not among the bad ones it is released unchanged.
func (s *scrubber) repairParity(st int64, hold *client.ParityHold, bad []int, want [][]byte) error {
	closing := hold.Release
	for _, j := range bad {
		if j == 0 {
			closing = func() error { return hold.Write(want[0]) }
		} else if _, err := s.call(s.g.ParityServerOfUnit(st, j), &wire.WriteParity{
			File: s.ref, Stripes: []int64{st}, Data: want[j],
		}); err != nil {
			hold.Release() //nolint:errcheck // already failing
			return err
		}
		s.throttle(s.su)
	}
	if err := closing(); err != nil {
		return err
	}
	s.rep.Parity.Repaired++
	return nil
}

// --- Hybrid overflow -------------------------------------------------------

// scrubOverflow cross-checks every server's primary overflow region against
// its mirror on the next server. The fast path compares one aggregate
// checksum per side, covering each live extent's table entry and contents,
// so both table drift and bit rot in the extent bytes are caught.
func (s *scrubber) scrubOverflow() error {
	for i := 0; i < s.g.Servers; i++ {
		if s.canceled() {
			return ErrCanceled
		}
		s.rep.Overflow.Checked++
		next := (i + 1) % s.g.Servers
		ps, err := s.sums(i, wire.StoreOverflow, 0, allRange, 0)
		if err != nil {
			return err
		}
		ms, err := s.sums(next, wire.StoreOverflowMirror, 0, allRange, 0)
		if err != nil {
			return err
		}
		if ps[0] == ms[0] {
			s.opts.Journal.setOverflow(i, ps[0])
			continue
		}
		if err := s.checkOverflowPair(i); err != nil {
			return err
		}
	}
	return nil
}

func (s *scrubber) dumpOverflow(srv int, mirror bool) (*wire.OverflowDumpResp, error) {
	resp, err := s.call(srv, &wire.OverflowDump{File: s.ref, Mirror: mirror})
	if err != nil {
		return nil, err
	}
	dump := resp.(*wire.OverflowDumpResp)
	s.throttle(int64(len(dump.Data)))
	return dump, nil
}

func dumpsEqual(a, b *wire.OverflowDumpResp) bool {
	if len(a.Extents) != len(b.Extents) {
		return false
	}
	for i := range a.Extents {
		if a.Extents[i] != b.Extents[i] {
			return false
		}
	}
	return bytes.Equal(a.Data, b.Data)
}

// aggOf computes the same aggregate checksum the server's ChecksumRange
// handler produces for an overflow store, from a dump of its live extents.
func aggOf(d *wire.OverflowDumpResp) uint32 {
	var sum uint32
	hdr := make([]byte, 16)
	cur := int64(0)
	for _, e := range d.Extents {
		for i := 0; i < 8; i++ {
			hdr[i] = byte(uint64(e.Off) >> (8 * i))
			hdr[8+i] = byte(uint64(e.Len) >> (8 * i))
		}
		sum = crc32.Update(sum, castagnoli, hdr)
		sum = crc32.Update(sum, castagnoli, d.Data[cur:cur+e.Len])
		cur += e.Len
	}
	return sum
}

// checkOverflowPair re-examines one primary/mirror overflow pair whose
// aggregate checksums disagreed. Overflow writes have no lock, so each side
// is dumped twice and a still-changing side defers the pair to the next
// pass. Note that foreground reads are served from the *primary* overflow,
// so restoring a corrupt primary from its mirror is a data repair and is
// gated behind RepairData like every other one.
func (s *scrubber) checkOverflowPair(i int) error {
	next := (i + 1) % s.g.Servers
	p1, err := s.dumpOverflow(i, false)
	if err != nil {
		return err
	}
	m1, err := s.dumpOverflow(next, true)
	if err != nil {
		return err
	}
	p, err := s.dumpOverflow(i, false)
	if err != nil {
		return err
	}
	m, err := s.dumpOverflow(next, true)
	if err != nil {
		return err
	}
	if !dumpsEqual(p1, p) || !dumpsEqual(m1, m) {
		s.opts.Journal.dropOverflow(i)
		return nil // foreground overflow write in flight; revisit next pass
	}
	pAgg, mAgg := aggOf(p), aggOf(m)
	if pAgg == mAgg {
		s.opts.Journal.setOverflow(i, pAgg)
		return nil
	}
	s.rep.Overflow.Mismatched++
	defer s.opts.Journal.dropOverflow(i)
	known, ok := s.opts.Journal.overflowOf(i)
	switch {
	case ok && known == pAgg:
		return s.rewriteOverflow(next, true, p)
	case ok && known == mAgg:
		if !s.opts.RepairData {
			s.rep.Overflow.Unrepairable++
			s.problemf("server %d: primary overflow fails its last-known-good checksum; mirror matches (RepairData off)", i)
			return nil
		}
		return s.rewriteOverflow(i, false, m)
	default:
		s.problemf("server %d: overflow mirror differs from primary with no usable evidence; rewriting mirror from primary", i)
		return s.rewriteOverflow(next, true, p)
	}
}

// rewriteOverflow replaces one overflow side (table and contents) with a
// dump of the other side.
func (s *scrubber) rewriteOverflow(srv int, mirror bool, from *wire.OverflowDumpResp) error {
	if _, err := s.call(srv, &wire.InvalidateOverflow{
		File: s.ref, Spans: []wire.Span{{Off: 0, Len: allRange}}, Mirror: mirror,
	}); err != nil {
		return err
	}
	if len(from.Extents) > 0 {
		if _, err := s.call(srv, &wire.WriteOverflow{
			File: s.ref, Extents: from.Extents, Data: from.Data, Mirror: mirror,
		}); err != nil {
			return err
		}
	}
	s.throttle(int64(len(from.Data)))
	s.rep.Overflow.Repaired++
	return nil
}
