// Package scrub implements CSAR's online integrity scrubber: a background
// pass that walks a file code group by code group, cross-checks every
// redundancy member against the data it protects, and repairs silent
// corruption in place — while the file stays online. A group is a parity
// layout's stripe or a mirror's unit and its copy (raid.Layout); the copy is
// the repetition code RS(1, 1), so both take the same checks and repairs.
//
// The scrubber compares checksums, not bytes. Each I/O server computes
// CRC32C sums over its local stores (the ChecksumRange request), so the
// modeled network carries a few words per stripe unit instead of the unit
// itself; members are read back only for groups whose checksums disagree.
// The first redundancy member is checked without shipping data at all:
// CRC32 is affine over GF(2), so the checksum parity unit 0 — or a copy —
// should have is computed from the data units' checksums alone (xorSum).
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
// Scrubbing runs beside foreground writes but is not safe against all of
// them. A group is pinned before its bytes are judged: a parity group by
// holding parity unit 0 the way a read-modify-write does, a mirror group by
// reading every member twice and leaving it for the next pass if a member
// changed in between. The hold serializes the check against
// read-modify-writes only: full-stripe parity writes take no lock (the
// server installs their parity unlocked), nor do RAID1's writes, and one
// can land after a mirror group's second read. A repair computed from bytes
// read before such a write lands can therefore overwrite the write's fresh
// parity or copy, which stays wrong until the next pass regenerates it; a
// data repair (RepairData) in that window would overwrite the write's fresh
// data for good. Parking the check's read of one data unit (a FaultPause)
// while a full-stripe write lands shows it: Verify then flags the stripe,
// and a degraded read returns wrong bytes until the next pass.
// Journal entries are dropped on any mismatch, so stale evidence can never
// outvote data a writer just wrote. The scrubber's own disk traffic is
// metered by a token-bucket rate limiter driven by simulated time, so a
// throttled scrub steals a bounded, settable share of the disks from
// foreground I/O.
package scrub

import (
	"bytes"
	"errors"
	"fmt"
	"hash/crc32"
	"slices"
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
	l := f.Layout()
	ref := f.Ref()
	rep := &Report{Scheme: ref.Scheme}
	for i := 0; i < l.Servers; i++ {
		if c.Down(i) {
			return rep, fmt.Errorf("scrub: server %d is down; rebuild it before scrubbing", i)
		}
	}
	size := f.Size()
	// A layout with no redundancy has no invariant to check, let alone
	// repair.
	if size == 0 || l.Tolerates() == 0 {
		return rep, nil
	}
	defer c.ObserveSince("scrub_pass", time.Now())
	// This client's own completed updates must not show as live intents:
	// the pass would skip their stripes.
	c.FlushRetires()
	s := &scrubber{
		c:    c,
		f:    f,
		l:    l,
		ref:  ref,
		size: size,
		su:   l.StripeUnit,
		opts: opts,
		lim:  c.PassLimiter(opts.RateLimit),
		zero: crc32.Checksum(make([]byte, l.StripeUnit), castagnoli),
		rep:  rep,
	}
	err := s.scrubGroups()
	if err == nil && l.Overflow {
		err = s.scrubOverflow()
	}
	rep.BytesScrubbed = s.bytes.Load()
	t := rep.Totals()
	// Bytes were noted incrementally by throttle (so a long pass shows live
	// progress in Metrics); only the outcome counts remain.
	m := c.Counters()
	atomic.AddInt64(&m.ScrubFound, t.Mismatched)
	atomic.AddInt64(&m.ScrubRepaired, t.Repaired)
	atomic.AddInt64(&m.ScrubUnrepairable, t.Unrepairable)
	atomic.AddInt64(&m.IntentSkips, rep.IntentSkips)
	return rep, err
}

type scrubber struct {
	c    *client.Client
	f    *client.File
	l    raid.Layout
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
	atomic.AddInt64(&s.c.Counters().ScrubBytes, n)
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

// --- Code groups -----------------------------------------------------------

// member reads the whole of member i of group g from its server or, given
// data, writes data as its contents: raw in place for a data unit, installed
// for a parity unit.
func (s *scrubber) member(g int64, i int, data []byte) ([]byte, error) {
	m := s.l.GroupMember(g, i)
	spans := []wire.Span{{Off: s.l.UnitStart(m.Unit), Len: s.su}}
	var req wire.Msg = &wire.Read{File: s.ref, Store: m.Store, Spans: spans, Raw: true}
	if data != nil {
		req = &wire.WriteData{File: s.ref, Store: m.Store, Spans: spans, Data: data, Raw: m.Store == wire.StoreData}
	}
	resp, err := s.call(m.Server, req)
	if err != nil {
		return nil, err
	}
	if data == nil {
		if data = resp.(*wire.ReadResp).Data; int64(len(data)) != s.su {
			return nil, fmt.Errorf("scrub: short read of group %d member %d", g, i)
		}
	}
	s.throttle(s.su)
	return data, nil
}

// readMembers reads every member of group g in code order. held, when not
// nil, is member k's bytes as a hold already read them.
func (s *scrubber) readMembers(g int64, held []byte) ([][]byte, error) {
	k, r := s.l.GroupSize()
	members := make([][]byte, k+r)
	for i := range members {
		if i == k && held != nil {
			members[i] = held
			continue
		}
		var err error
		if members[i], err = s.member(g, i, nil); err != nil {
			return nil, err
		}
	}
	return members, nil
}

// paritySum folds the r redundancy-member checksums of one group into the
// single value the Journal stores per group.
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

// scrubGroups cross-checks every code group's r redundancy members against
// its k data members, using checksums only. A window of N consecutive
// groups — N stripes of a parity layout, N units of a mirror — places
// exactly k data members and r redundancy members on every server, so per
// window each server contributes a contiguous run of k data checksums and r
// redundancy checksums; windows are fetched in batches.
func (s *scrubber) scrubGroups() error {
	n := int64(s.l.Servers)
	k, r := s.l.GroupSize()
	kk, rr := int64(k), int64(r)
	groups := (s.l.UnitsIn(s.size) + kk - 1) / kk
	windows := (groups + n - 1) / n
	red := s.l.GroupMember(0, k).Store
	counts := &s.rep.Parity
	if s.l.Mirror {
		counts = &s.rep.Mirror
	}
	intents, err := s.intentStripes()
	if err != nil {
		return err
	}
	for w0 := int64(0); w0 < windows; w0 += batchStripes {
		if s.canceled() {
			return ErrCanceled
		}
		w1 := min(w0+batchStripes, windows)
		dataSums := make([][]uint32, n)
		redSums := make([][]uint32, n)
		err := s.c.EachServer(s.l.Servers, nil, func(i int) error {
			ds, err := s.sums(i, wire.StoreData, w0*kk*s.su, (w1-w0)*kk*s.su, s.su)
			if err != nil {
				return err
			}
			rs, err := s.sums(i, red, w0*rr*s.su, (w1-w0)*rr*s.su, s.su)
			if err != nil {
				return err
			}
			dataSums[i], redSums[i] = ds, rs
			return nil
		})
		if err != nil {
			return err
		}
		for g := w0 * n; g < w1*n && g < groups; g++ {
			if intents[g] {
				// A write intent covers this stripe (only parity groups carry
				// them): an update is in flight or awaits replay; its
				// transient mismatch is not corruption.
				s.rep.IntentSkips++
				continue
			}
			counts.Checked++
			sums := make([]uint32, k+r)
			for i := range sums {
				m := s.l.GroupMember(g, i)
				from, per, local := dataSums, kk, s.l.LocalOffset(m.Unit)
				if i >= k {
					from, per = redSums, rr
				}
				if m.Store == wire.StoreParity {
					local = s.l.ParityLocalOffsetOn(m.Server, g)
				}
				sums[i] = from[m.Server][local/s.su-w0*per]
			}
			if s.fastPathConsistent(g, sums) {
				continue
			}
			if err := s.checkGroup(g, counts); err != nil {
				return err
			}
		}
	}
	return nil
}

// fastPathConsistent decides from checksums alone that group g, whose
// members' checksums sums holds in code order, is consistent. Member k —
// parity unit 0, or a unit's copy — must equal the XOR of the data members:
// parity unit 0's coefficient row is all ones, and a copy's CRC is its
// unit's. Members j > k are GF(256) combinations whose CRCs are not
// derivable from the data members', so when there are any every checksum,
// each data member's and the folded redundancy set, must match its
// last-known-good journal entry (proving them unchanged since the last
// byte-level verification); on a journal-less pass such a group always
// goes to byte-level review. On success the journal entries are refreshed.
func (s *scrubber) fastPathConsistent(g int64, sums []uint32) bool {
	k, r := s.l.GroupSize()
	if xorSum(sums[:k], s.zero) != sums[k] {
		return false
	}
	if r > 1 {
		if ok, deviants, redDeviates := s.evidence(g, sums); !ok || len(deviants) > 0 || redDeviates {
			return false
		}
	}
	s.record(g, sums)
	return true
}

// evidence compares group g's member checksums, in code order, with its
// journal entries: ok if there is an entry for every data member and for
// the redundancy set, then which data members deviate from theirs and
// whether the redundancy set does.
func (s *scrubber) evidence(g int64, sums []uint32) (ok bool, deviants []int, redDeviates bool) {
	k, _ := s.l.GroupSize()
	known, ok := s.opts.Journal.parityOf(g)
	for i := range k {
		u, have := s.opts.Journal.unit(g*int64(k) + int64(i))
		ok = ok && have
		if u != sums[i] {
			deviants = append(deviants, i)
		}
	}
	return ok, deviants, known != paritySum(sums[k:])
}

// record notes group g's member checksums, in code order, as its
// last-known-good evidence.
func (s *scrubber) record(g int64, sums []uint32) {
	k, _ := s.l.GroupSize()
	for i := range k {
		s.opts.Journal.setUnit(g*int64(k)+int64(i), sums[i])
	}
	s.opts.Journal.setParity(g, paritySum(sums[k:]))
}

// forget drops group g's journal entries.
func (s *scrubber) forget(g int64) {
	k, _ := s.l.GroupSize()
	s.opts.Journal.dropStripe(g, g*int64(k), k)
}

// intentStripes fetches every server's write-intent set at the start of a
// pass; the covered stripes are mid-update (or fail-stopped awaiting
// replay) and must not be "repaired" from their transient state. A mirror
// file, which takes no parity locks, has none.
func (s *scrubber) intentStripes() (map[int64]bool, error) {
	intents := make(map[int64]bool)
	var mu sync.Mutex
	err := s.c.EachServer(s.l.Servers, nil, func(i int) error {
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

// holdGroup pins parity group g: it holds parity unit 0 the way a
// read-modify-write does — lock, owner token and lease included, so a
// scrubber that dies here costs the stripe one lease and a replay, not a
// wedge. Holding unit 0 serializes the check against foreground
// read-modify-writes, which take their parity locks in unit order, and
// nothing else: a full-stripe write takes no lock. It returns the hold and
// every member's bytes, unit 0's as the hold read them, or no members when
// the group is left for a later pass.
func (s *scrubber) holdGroup(g int64) (*client.ParityHold, [][]byte, error) {
	hold, err := s.f.HoldParity(g, 0)
	if errors.Is(err, wire.ErrStripeTorn) {
		// The stripe fail-stopped (lease expiry) after the pass-start intent
		// snapshot; it belongs to recovery's replay, not to the scrubber.
		s.rep.IntentSkips++
		s.rep.Parity.Checked--
		return nil, nil, nil
	}
	if err != nil {
		return nil, nil, err
	}
	// Another owner's intent under the hold is an update that released the
	// lock with its parity write while its data writes may still be
	// landing, or one given up and awaiting replay: either way the stripe's
	// bytes are not final, and the stripe is left for a later pass.
	live, abandoned, err := hold.OtherIntents()
	if err == nil && (live || abandoned) {
		s.rep.IntentSkips++
		s.rep.Parity.Checked--
	}
	var members [][]byte
	if err == nil && !live && !abandoned {
		s.throttle(s.su)
		members, err = s.readMembers(g, hold.Data())
	}
	if members == nil {
		if rerr := hold.Release(); err == nil {
			err = rerr
		}
		return nil, nil, err
	}
	return hold, members, nil
}

// readTwice pins mirror group g, which no writer locks, by reading every
// member twice: a member still changing belongs to an in-flight foreground
// write, and the group is left for the next pass (no members).
func (s *scrubber) readTwice(g int64) ([][]byte, error) {
	first, err := s.readMembers(g, nil)
	if err != nil {
		return nil, err
	}
	members, err := s.readMembers(g, nil)
	if err != nil {
		return nil, err
	}
	if !slices.EqualFunc(first, members, bytes.Equal) {
		s.forget(g)
		return nil, nil
	}
	return members, nil
}

// checkGroup re-verifies group g at the byte level and repairs it, counting
// the outcome in counts. It pins the group first (holdGroup or readTwice),
// then re-encodes the data members through the file's code — RS(1, 1), a
// copy, for a mirror — and compares every redundancy member byte for byte.
// A mismatch is settled by the journal's evidence: either the bad
// redundancy members are rewritten from the data, or one deviant data
// member is rebuilt by decoding from the members already read. A held
// group's parity unit 0 is written last and through the hold, which
// releases it; every other way out releases it unchanged.
func (s *scrubber) checkGroup(g int64, counts *Counts) (err error) {
	var hold *client.ParityHold
	var members [][]byte
	if s.l.Mirror {
		members, err = s.readTwice(g)
	} else {
		hold, members, err = s.holdGroup(g)
	}
	if err != nil || members == nil {
		return err
	}
	k, r := s.l.GroupSize()
	release := func() error { return nil }
	if hold != nil {
		release = hold.Release
	}
	defer func() {
		if rerr := release(); err == nil {
			err = rerr
		}
	}()
	write := func(i int, data []byte) error {
		if hold != nil && i == k {
			release = func() error { return nil }
			return hold.Write(data)
		}
		_, err := s.member(g, i, data)
		return err
	}

	want := make([][]byte, r)
	for j := range want {
		want[j] = make([]byte, s.su)
	}
	s.f.Code().EncodeInto(want, members[:k])
	var bad []int
	sums := make([]uint32, k+r)
	for i, m := range members {
		sums[i] = crcOf(m)
		if i >= k && !bytes.Equal(want[i-k], m) {
			bad = append(bad, i)
		}
	}
	if len(bad) == 0 {
		// The checksum mismatch (or cold journal) resolved consistent under
		// the pin; record the evidence for the next pass's fast path.
		s.record(g, sums)
		return nil
	}
	counts.Mismatched++
	first := g * int64(k)
	defer s.forget(g)

	// Journal evidence is usable only if it covers the whole group, and
	// then at most one side may deviate from its last-known-good checksum.
	evidence, deviants, redDeviates := s.evidence(g, sums)
	switch {
	case evidence && !redDeviates && len(deviants) == 1:
		// The redundancy and every other data member still match their
		// last-known-good checksums: the deviating member is corrupt, and
		// its original bytes decode from the others.
		d := deviants[0]
		if !s.opts.RepairData {
			counts.Unrepairable++
			s.problemf("group %d: unit %d fails its last-known-good checksum; redundancy matches (RepairData off)", g, first+int64(d))
			return nil
		}
		fixed := make([]byte, s.su)
		members[d] = nil
		if err := s.f.Code().ReconstructInto(fixed, d, members); err != nil {
			return err
		}
		s.problemf("group %d: unit %d fails its last-known-good checksum; restoring it from redundancy", g, first+int64(d))
		if err := write(d, fixed); err != nil {
			return err
		}
		counts.Repaired++
		return nil
	case evidence && redDeviates && len(deviants) == 0:
		// Every data member still matches its last-known-good checksum and
		// the redundancy alone drifted: the redundancy is corrupt.
		s.problemf("group %d: redundancy fails its last-known-good checksum; regenerating it from data", g)
	default:
		s.problemf("group %d: redundancy does not match data and no usable evidence; regenerating it from data", g)
	}
	// Backwards, so a held group's unit 0 goes last.
	for x := len(bad) - 1; x >= 0; x-- {
		if err := write(bad[x], want[bad[x]-k]); err != nil {
			return err
		}
	}
	counts.Repaired++
	return nil
}

// --- Hybrid overflow -------------------------------------------------------

// scrubOverflow cross-checks every server's primary overflow region against
// its mirror on the next server. The fast path compares one aggregate
// checksum per side, covering each live extent's table entry and contents,
// so both table drift and bit rot in the extent bytes are caught.
func (s *scrubber) scrubOverflow() error {
	for i := 0; i < s.l.Servers; i++ {
		if s.canceled() {
			return ErrCanceled
		}
		s.rep.Overflow.Checked++
		next := (i + 1) % s.l.Servers
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
	next := (i + 1) % s.l.Servers
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
		if _, err := s.call(srv, &wire.WriteData{
			File: s.ref, Store: wire.OverflowStore(mirror), Spans: from.Extents, Data: from.Data,
		}); err != nil {
			return err
		}
	}
	s.throttle(int64(len(from.Data)))
	s.rep.Overflow.Repaired++
	return nil
}
