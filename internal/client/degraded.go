package client

import (
	"cmp"
	"fmt"
	"slices"

	"csar/internal/extent"
	"csar/internal/gf256"
	"csar/internal/raid"
	"csar/internal/wire"
)

// readDegraded serves a read while server dead, and any other server of the
// file the client holds down, is out — at most the file's tolerance — in one
// round: the live pieces are fetched as a healthy read fetches them while,
// concurrently, the survivors the dead pieces' decodes need beyond those
// bytes are fetched (survivorPlan). Each dead piece is then decoded straight
// into its slice of p; a mirror's is a copy of its unit's other member.
// Where the shape has overflow, the mirrored overflow region then overlays
// any newer partial-stripe data. tr is the operation's trace ID, carried by
// every RPC the read issues.
func (f *File) readDegraded(p []byte, off int64, dead int, tr uint64) (int, error) {
	deads := f.deadSet(dead)
	if tol := f.shape.Tolerates(); len(deads) > tol {
		if tol == 0 {
			return 0, ErrNoRedundancy
		}
		return 0, fmt.Errorf("client: %d servers down exceeds the file's %d-failure tolerance",
			len(deads), tol)
	}
	span := raid.Span{Off: off, Len: int64(len(p))}
	// A read of an overflow shape returns overflow-patched bytes, which are
	// not what the stripe's parity encodes: there p is no survivor source,
	// and every survivor is fetched raw in the same round.
	plan, err := f.planDegraded(span, deads, !f.shape.Overflow)
	if err != nil {
		return 0, err
	}
	var survivors spanReads
	var sErr error
	fetched := make(chan struct{})
	f.c.pool.Go(func() {
		defer close(fetched)
		survivors, sErr = plan.fetch(f, f.tracedCall(tr))
	})
	err = f.fetchSpans(span, p, false, tr, func(s int) bool { return slices.Contains(deads, s) })
	<-fetched
	defer survivors.release()
	if err = cmp.Or(err, sErr); err != nil {
		return 0, err
	}
	if err := plan.decode(f.code, p, survivors); err != nil {
		return 0, err
	}
	if f.shape.Overflow {
		for _, dead := range deads {
			if err := f.patchFromOverflowMirror(p, off, dead, tr); err != nil {
				return 0, err
			}
		}
	}
	return len(p), nil
}

// deadSet returns dead (a server that may only just have failed mid-read)
// and the other down servers of this file's stripe set, in ascending order:
// a group with r redundancy members decodes around up to r of them at once.
// dead itself is not asked again, so a breaker it just tripped is not probed
// in the middle of the read that tripped it.
func (f *File) deadSet(dead int) []int {
	var deads []int
	for i := range f.geom.Servers {
		if i == dead || f.c.Down(i) {
			deads = append(deads, i)
		}
	}
	return deads
}

// onlyServer is the fetchSpans skip predicate of a single down server.
func onlyServer(dead int) func(int) bool {
	return func(i int) bool { return i == dead }
}

// CallFunc sends one request to server srv and returns its response.
type CallFunc func(srv int, req wire.Msg) (wire.Msg, error)

// tracedCall is the foreground CallFunc: each request goes through the
// client's resilience layer carrying the operation's trace ID tr.
func (f *File) tracedCall(tr uint64) CallFunc {
	return func(srv int, req wire.Msg) (wire.Msg, error) { return f.c.callSrvT(srv, req, tr) }
}

// survivorPlan is how survivors regenerate a list of pieces — ranges of
// code-group members on dead servers — worked out from the layout alone
// before any I/O. It is the one survivor planner: the degraded read and the
// degraded read-modify-write plan the dead pieces of their span, and
// recovery (Rebuild, Resync, intent replay) plans whole members through
// Reconstruct. Each piece is decoded from the same within-unit range of k
// members of its group on live servers, taken in code order (data 0..k-1,
// then redundancy k..k+r-1, dead servers skipped), so live data units —
// whose identity rows make the decode cheapest — are preferred and the
// redundancy fills out the set. A survivor comes from one of two places:
//
//   - the destination buffer, when its in window holds the survivor's range
//     in place (a degraded read of a shape without overflow, or the degraded
//     RMW's raw old data; recovery's buffers hold none): those bytes are
//     already there, for free;
//   - otherwise a fetch, all sent at the same time, each stripe or range
//     asked for once: per server one multi-span raw Read for data units and
//     one read of its redundancy store — a multi-stripe ReadParity for
//     parity units, a multi-span ReadMirror for a mirror's copies.
//
// A piece's destination never aliases an in-buffer survivor: survivors are
// taken only from members on live servers, pieces only from members on dead
// ones, and distinct data units hold disjoint logical ranges, hence
// disjoint buffer slices.
type survivorPlan struct {
	l      raid.Layout
	dead   []int
	in     raid.Span // the logical range buf holds in place (Len 0: none)
	pieces []piece
	srcs   []survivor    // k per piece, in code order
	spans  [][]wire.Span // by fetch slot (see fetch): the Read or ReadMirror spans of fetched unit survivors
	spanN  []int64       // by fetch slot: the bytes those spans return
	parity [][]int64     // by server: the stripes whose parity unit it sends
}

// piece is one range a plan regenerates: the bytes [wu, wu+n) of member
// target (a code index) of group, decoded to buf[dst:dst+n].
type piece struct {
	group  int64
	target int
	wu, n  int64
	dst    int64
}

// survivor is one member's share of a piece's decode.
type survivor struct {
	idx  int   // code index
	from int   // the fetch slot of the response holding it; -1: the buffer
	at   int64 // where the piece's range starts in the buffer or the response
}

// newPlan starts a plan around the servers in dead; in is the logical range
// the destination buffer holds in place, and may serve survivors.
func (f *File) newPlan(dead []int, in raid.Span) *survivorPlan {
	n := f.geom.Servers
	return &survivorPlan{
		l: f.Layout(), dead: dead, in: in,
		spans:  make([][]wire.Span, 2*n),
		spanN:  make([]int64, 2*n),
		parity: make([][]int64, n),
	}
}

// add plans one piece: it picks the piece's k survivors and asks for the
// ones the buffer does not hold.
func (pl *survivorPlan) add(pc piece) error {
	l := pl.l
	n := l.Servers
	k, r := l.GroupSize()
	pl.pieces = append(pl.pieces, pc)
	found := 0
	for idx := 0; idx < k+r && found < k; idx++ {
		m := l.GroupMember(pc.group, idx)
		if slices.Contains(pl.dead, m.Server) {
			continue
		}
		start := l.UnitStart(m.Unit) + pc.wu
		s := survivor{idx: idx}
		switch {
		case m.Store == raid.ParityStore:
			s.from, s.at = n+m.Server, pl.addParity(m.Server, pc.group)+pc.wu
		case m.Store == raid.MirrorStore:
			s.from, s.at = n+m.Server, pl.addSpan(n+m.Server, start, pc.n)
		case start >= pl.in.Off && start+pc.n <= pl.in.End():
			s.from, s.at = -1, start-pl.in.Off
		default:
			s.from, s.at = m.Server, pl.addSpan(m.Server, start, pc.n)
		}
		pl.srcs = append(pl.srcs, s)
		found++
	}
	if found < k {
		return fmt.Errorf("client: group %d has only %d live members, need %d", pc.group, found, k)
	}
	return nil
}

// planDegraded plans the decode of every piece of span on a server in deads,
// each into its place in the buffer that holds span. inBuf says whether that
// buffer holds in-place bytes, and so may serve survivors.
func (f *File) planDegraded(span raid.Span, deads []int, inBuf bool) (*survivorPlan, error) {
	g := f.geom
	in := raid.Span{}
	if inBuf {
		in = span
	}
	pl := f.newPlan(deads, in)
	var err error
	eachPiece(g, span.Off, span.Len, func(unit, cur, end int64) {
		if err != nil || !slices.Contains(deads, g.ServerOf(unit)) {
			return
		}
		group, member := pl.l.GroupOf(unit)
		err = pl.add(piece{
			group: group, target: member,
			wu: cur - g.UnitStart(unit), n: end - cur,
			dst: cur - span.Off,
		})
	})
	return pl, err
}

// Unit names one whole member of a code group: code index Member (data
// 0..k-1, then redundancy k..k+r-1) of Group — a stripe for a parity shape,
// a data unit for a mirror (raid.Layout).
type Unit struct {
	Group  int64
	Member int
}

// Reconstruct regenerates each of units, whole, into dst[i*StripeUnit:], by
// the degraded read's plan: from k members of its group on servers not in
// dead, picked in code order, fetched with one raw Read and one ReadParity or
// ReadMirror per server, all at once, and decoded straight into dst.
// Every request goes through call, so the caller decides its semantics
// (recovery sends raw, unretried requests). A group with fewer than k
// members outside dead fails the call before any request is sent.
func (f *File) Reconstruct(dst []byte, units []Unit, dead []int, call CallFunc) error {
	if f.code == nil {
		return ErrNoRedundancy
	}
	su := f.geom.StripeUnit
	pl := f.newPlan(dead, raid.Span{})
	for i, u := range units {
		if err := pl.add(piece{group: u.Group, target: u.Member, n: su, dst: int64(i) * su}); err != nil {
			return err
		}
	}
	fetched, err := pl.fetch(f, call)
	if err != nil {
		return err
	}
	defer fetched.release()
	return pl.decode(f.code, dst, fetched)
}

// addParity asks srv for stripe's parity unit and returns where the unit
// starts in srv's ReadParity response. A stripe's pieces are planned back to
// back, so a stripe asked for twice is the last one asked for.
func (pl *survivorPlan) addParity(srv int, stripe int64) int64 {
	ss := pl.parity[srv]
	if len(ss) == 0 || ss[len(ss)-1] != stripe {
		pl.parity[srv] = append(ss, stripe)
	}
	return int64(len(pl.parity[srv])-1) * pl.l.StripeUnit
}

// addSpan asks fetch slot slot for the logical bytes [off, off+n) and
// returns where they start in its response. Two dead pieces of one stripe
// with the same within-unit range (m > 1) are planned back to back and share
// the fetch.
func (pl *survivorPlan) addSpan(slot int, off, n int64) int64 {
	sp := wire.Span{Off: off, Len: n}
	if ss := pl.spans[slot]; len(ss) == 0 || ss[len(ss)-1] != sp {
		pl.spans[slot] = append(ss, sp)
		pl.spanN[slot] += n
	}
	return pl.spanN[slot] - n
}

// fetch sends the plan's survivor reads through call, all at once, and
// returns the responses by fetch slot: server s's raw Read at s, and the read
// of its redundancy store at Servers+s — a ReadParity for a parity shape, a
// ReadMirror for a mirror's copies. The caller releases them once the decode
// is done; on error there is nothing left to release.
func (pl *survivorPlan) fetch(f *File, call CallFunc) (spanReads, error) {
	if len(pl.pieces) == 0 {
		return nil, nil
	}
	n := pl.l.Servers
	out := make(spanReads, 2*n)
	has := func(i int) bool { return len(pl.spans[i]) > 0 || i >= n && len(pl.parity[i-n]) > 0 }
	err := f.c.eachServer(2*n, has, func(i int) error {
		srv := i % n
		var req wire.Msg
		want := pl.spanN[i]
		switch {
		case i >= n && len(pl.parity[srv]) > 0:
			req = &wire.ReadParity{File: f.ref, Stripes: pl.parity[srv]}
			want = int64(len(pl.parity[srv])) * pl.l.StripeUnit
		case i < n:
			req = &wire.Read{File: f.ref, Spans: pl.spans[i], Raw: true}
		default:
			req = &wire.ReadMirror{File: f.ref, Spans: pl.spans[i]}
		}
		resp, err := call(srv, req)
		if err != nil {
			return err
		}
		out[i] = resp.(*wire.ReadResp)
		if int64(len(out[i].Data)) != want {
			return fmt.Errorf("client: survivor read from server %d returned %d bytes, want %d",
				srv, len(out[i].Data), want)
		}
		return nil
	})
	if err != nil {
		out.release()
		return nil, err
	}
	return out, nil
}

// decode rebuilds every piece straight into its slice of buf from the
// survivors in buf and in fetched (fetch's result).
func (pl *survivorPlan) decode(code *gf256.RS, buf []byte, fetched spanReads) error {
	k := code.K
	units := make([][]byte, k+code.M)
	for i, pc := range pl.pieces {
		clear(units)
		for _, s := range pl.srcs[i*k : (i+1)*k] {
			src := buf
			if s.from >= 0 {
				src = fetched[s.from].Data
			}
			units[s.idx] = src[s.at : s.at+pc.n]
		}
		if err := code.ReconstructInto(buf[pc.dst:pc.dst+pc.n], pc.target, units); err != nil {
			return fmt.Errorf("client: group %d: %w", pc.group, err)
		}
	}
	return nil
}

// patchFromOverflowMirror overlays the dead server's overflow contents —
// mirrored on the next server — onto the reconstructed buffer.
func (f *File) patchFromOverflowMirror(p []byte, off int64, dead int, tr uint64) error {
	g := f.geom
	mirrorSrv := (dead + 1) % g.Servers
	resp, err := f.c.callSrvT(mirrorSrv, &wire.OverflowDump{File: f.ref, Mirror: true}, tr)
	if err != nil {
		return err
	}
	dump := resp.(*wire.OverflowDumpResp)
	var m extent.Map
	var cur int64
	for _, e := range dump.Extents {
		m.Insert(e.Off, e.Len, cur)
		cur += e.Len
	}
	if cur > int64(len(dump.Data)) {
		return fmt.Errorf("client: overflow dump short: table %d bytes, data %d", cur, len(dump.Data))
	}
	m.Lookup(off, int64(len(p)), func(logical, src, n int64) {
		copy(p[logical-off:logical-off+n], dump.Data[src:src+n])
	}, nil)
	return nil
}

// reconstructOldPieces fills the dead servers' pieces of old (holding the
// logical range of span, its live pieces already read raw) by running the
// degraded-read plan over it; the degraded read-modify-write uses it, under
// its parity locks, so the parity delta is computed against the dead server's
// true old contents. old holds in-place bytes, so it serves survivors.
func (f *File) reconstructOldPieces(span raid.Span, old []byte, deads []int, tr uint64) error {
	plan, err := f.planDegraded(span, deads, true)
	if err != nil {
		return err
	}
	fetched, err := plan.fetch(f, f.tracedCall(tr))
	if err != nil {
		return err
	}
	defer fetched.release()
	return plan.decode(f.code, old, fetched)
}
