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
