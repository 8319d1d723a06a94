package raid

import (
	"fmt"

	"csar/internal/wire"
)

// Shape is what a file's redundancy scheme means for its layout, and all the
// code below Resolve asks of it. Hybrid is RAID5 plus a mirrored overflow
// region and RAID5 is RS(k, 1), so three facts cover every scheme:
//
//	raid0: {}   raid1: {Mirror}   raid5: {Parity: 1}
//	hybrid: {Parity: 1, Overflow}   rs: {Parity: m}
type Shape struct {
	Parity   int  // m parity units per stripe of k = N-m data units; 0: none
	Mirror   bool // every data unit has a whole copy on the next server
	Overflow bool // partial-stripe writes go to a mirrored overflow region
}

// Tolerates returns how many of the file's servers may be down with its
// data still readable: m for a parity layout, one for a mirrored one.
func (s Shape) Tolerates() int {
	if s.Mirror {
		return 1
	}
	return s.Parity
}

// Layout is a file's resolved layout: where its bytes live (for a parity
// layout Geometry.ParityUnits is m) and what redundancy they carry.
type Layout struct {
	Geometry
	Shape
}

// Resolve is the one place a FileRef's layout is decided and judged valid:
// the manager before it records a file, every I/O server on every request
// and the client when it opens a handle all call it, so none accepts a
// layout another refuses. It refuses an unknown scheme (the retired values 4
// and 5 included), a parity count the scheme does not take, a parity layout
// on fewer than m+2 or more than 256 servers (a GF(256) code's length), and
// a mirror on fewer than two. It allocates only to refuse.
func Resolve(ref wire.FileRef) (Layout, error) {
	var s Shape
	switch ref.Scheme {
	case wire.Raid0:
	case wire.Raid1:
		s.Mirror = true
	case wire.Raid5:
		s.Parity = 1
	case wire.Hybrid:
		s.Parity, s.Overflow = 1, true
	case wire.ReedSolomon:
		s.Parity = int(ref.Parity)
	default:
		return Layout{}, fmt.Errorf("raid: unknown scheme %v", ref.Scheme)
	}
	l := Layout{Geometry{Servers: int(ref.Servers), StripeUnit: int64(ref.StripeUnit), ParityUnits: s.Parity}, s}
	switch {
	case (ref.Scheme == wire.ReedSolomon) != (ref.Parity != 0):
		return Layout{}, fmt.Errorf("raid: %v with a parity-unit count of %d", ref.Scheme, ref.Parity)
	case l.Servers < 1 || l.StripeUnit <= 0:
		return Layout{}, fmt.Errorf("raid: %d servers of %d-byte stripe units", l.Servers, l.StripeUnit)
	case s.Parity > 0 && (l.Servers < s.Parity+2 || l.Servers > 256):
		return Layout{}, fmt.Errorf("raid: %v with %d parity units needs %d to 256 servers, got %d",
			ref.Scheme, s.Parity, s.Parity+2, l.Servers)
	case s.Mirror && l.Servers < 2:
		return Layout{}, fmt.Errorf("raid: %v needs at least 2 servers, got %d", ref.Scheme, l.Servers)
	}
	return l, nil
}

// WithDefaultParity fills in the parity count a create or migration request
// may leave out: a Reed-Solomon layout that names none gets two. The manager
// records the result, so every later Resolve of the ref sees the count.
func WithDefaultParity(ref wire.FileRef) wire.FileRef {
	if ref.Scheme == wire.ReedSolomon && ref.Parity == 0 {
		ref.Parity = 2
	}
	return ref
}

// A code group is the unit of redundancy: k data members and r redundancy
// members, any k of which regenerate the rest through the file's RS(k, r)
// code. A parity shape's group is a stripe — its k = N-m data units and m
// parity units — numbered by stripe. A mirror shape's group is one data
// unit b and its copy in the mirror store of MirrorServerOf(b), numbered by
// unit: the repetition code RS(1, 1), whose one parity row is [1], so its
// encode and decode are copies. RAID0's group is a unit alone (r = 0).

// Store names which of a server's stores keeps a group member.
type Store uint8

const (
	DataStore   Store = iota // a data unit, in place
	ParityStore              // a stripe's parity unit
	MirrorStore              // a data unit's copy
)

// Member is where one member of a code group lives.
type Member struct {
	Server int
	Store  Store
	Unit   int64 // the data unit whose bytes a DataStore or MirrorStore member holds
}

// GroupSize returns every group's count of data members k and redundancy
// members r.
func (l Layout) GroupSize() (k, r int) {
	if l.Parity > 0 {
		return l.DataWidth(), l.Parity
	}
	return 1, l.Tolerates()
}

// GroupOf returns the group holding data unit b and b's member index in it.
func (l Layout) GroupOf(b int64) (group int64, member int) {
	k, _ := l.GroupSize()
	return b / int64(k), int(b % int64(k))
}

// GroupMember returns where member i (data 0..k-1, then redundancy
// k..k+r-1) of group lives.
func (l Layout) GroupMember(group int64, i int) Member {
	k, _ := l.GroupSize()
	switch {
	case i < k:
		b := group*int64(k) + int64(i)
		return Member{l.ServerOf(b), DataStore, b}
	case l.Parity > 0:
		return Member{Server: l.ParityServerOfUnit(group, i-k), Store: ParityStore}
	}
	return Member{l.MirrorServerOf(group), MirrorStore, group}
}

// MemberHeldBy reports which member of group server srv holds, if any. A
// server holds at most one: a stripe's k+m members sit on its k+m distinct
// servers, and a unit's copy is on the server after the unit's own.
func (l Layout) MemberHeldBy(srv int, group int64) (member int, ok bool) {
	k, r := l.GroupSize()
	for i := range k + r {
		if l.GroupMember(group, i).Server == srv {
			return i, true
		}
	}
	return 0, false
}

// GroupsHeldBy returns the groups covering [0, size) in which server srv
// holds a member: for a parity shape every stripe, in order; for a unit
// group, member by member — the server's own units, then the units it holds
// copies of — so a run of them has one survivor server and one target store.
func (l Layout) GroupsHeldBy(srv int, size int64) []int64 {
	var out []int64
	if l.Parity > 0 {
		for s := range l.StripesIn(size) {
			out = append(out, s)
		}
		return out
	}
	k, r := l.GroupSize()
	for i := range k + r {
		for b := range l.UnitsIn(size) {
			if l.GroupMember(b, i).Server == srv {
				out = append(out, b)
			}
		}
	}
	return out
}
