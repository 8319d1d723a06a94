package client

import (
	"bytes"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"csar/internal/raid"
	"csar/internal/wire"
)

// payloadOf is what a server receives for its pieces: their bytes in
// order, nil if it got none.
func payloadOf(pieces [][]byte) []byte { return slices.Concat(pieces...) }

func TestSplitMergeRoundTrip(t *testing.T) {
	// Each server's payload from bytesBy's pieces of p, filled in order into
	// its bytesBy pieces of a fresh buffer, must reproduce the input for any
	// geometry, offset and length: the pieces a write sends are exactly
	// where a read's bytes belong.
	f := func(nSeed uint8, suSeed uint16, offSeed uint32, lenSeed uint16, seed int64) bool {
		g := raid.Geometry{
			Servers:    int(nSeed%8) + 1,
			StripeUnit: int64(suSeed%300) + 1,
		}
		off := int64(offSeed % 100000)
		r := rand.New(rand.NewSource(seed))
		p := make([]byte, int(lenSeed%5000)+1)
		r.Read(p)

		perServer := bytesBy(g, off, p, g.ServerOf)
		got := make([]byte, len(p))
		into := bytesBy(g, off, got, g.ServerOf)
		for s := range perServer {
			data := payloadOf(perServer[s])
			for _, piece := range into[s] {
				data = data[copy(piece, data):]
			}
			if len(data) != 0 {
				return false
			}
		}
		return bytes.Equal(p, got)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestSplitByMirrorRotates(t *testing.T) {
	// The mirror payload of server i equals the data payload of server i-1.
	g := raid.Geometry{Servers: 4, StripeUnit: 16}
	p := make([]byte, 512)
	for i := range p {
		p[i] = byte(i)
	}
	data := bytesBy(g, 0, p, g.ServerOf)
	mirror := bytesBy(g, 0, p, g.MirrorServerOf)
	for i := 0; i < 4; i++ {
		prev := (i + 3) % 4
		if !bytes.Equal(payloadOf(mirror[i]), payloadOf(data[prev])) {
			t.Fatalf("mirror payload of server %d != data payload of server %d", i, prev)
		}
	}
}

// TestServerPiecesMatchPayloadSizes: each server's overflow request names
// exactly the bytes it carries, for any geometry and overflow portions —
// one span or two, as a stripe-crossing write's head and tail — each span
// inside one unit and its bytes the slice of p its piece covers, and the
// requests together carry both copies of every byte once.
func TestServerPiecesMatchPayloadSizes(t *testing.T) {
	f := func(nSeed uint8, suSeed uint16, offSeed uint32, lenSeed, gapSeed uint16) bool {
		g := raid.Geometry{Servers: int(nSeed%8) + 1, StripeUnit: int64(suSeed%300) + 1}
		off := int64(offSeed % 100000)
		length := int64(lenSeed%5000) + 2
		p := make([]byte, length+int64(gapSeed%700))
		for i := range p {
			p[i] = byte(i)
		}
		// Two portions with the gap between them, the body's place.
		spans := []raid.Span{{Off: off, Len: length / 2}, {Off: int64(len(p)) + off - (length - length/2), Len: length - length/2}}
		var total int64
		for _, r := range overflowWrites(g, wire.FileRef{}, spans, off, p) {
			all := r.Spans
			for _, pt := range r.More {
				all = append(slices.Clip(all), pt.Spans...)
			}
			if len(all) != len(r.From) {
				return false
			}
			for i, sp := range all {
				end := sp.Off + sp.Len
				if g.UnitOf(sp.Off) != g.UnitOf(end-1) || !bytes.Equal(r.From[i], p[sp.Off-off:end-off]) {
					return false
				}
				total += sp.Len
			}
		}
		return total == 2*length
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// TestMirrorPiecesMatchMirrorPayloads: a unit's overflow piece goes to its
// own server's overflow part, its copy to the overflow-mirror part of its
// mirror server, and a server with both carries the overflow part first.
func TestMirrorPiecesMatchMirrorPayloads(t *testing.T) {
	f := func(nSeed uint8, offSeed uint32, lenSeed uint16) bool {
		g := raid.Geometry{Servers: int(nSeed%7) + 2, StripeUnit: 64}
		off := int64(offSeed % 10000)
		length := int64(lenSeed%3000) + 1
		for s, r := range overflowWrites(g, wire.FileRef{}, []raid.Span{{Off: off, Len: length}}, off, make([]byte, length)) {
			if len(r.From) == 0 {
				if len(r.Spans) > 0 || r.More != nil {
					return false
				}
				continue
			}
			parts := append([]wire.Part{{Store: r.Store, Spans: r.Spans}}, r.More...)
			for i, pt := range parts {
				if len(pt.Spans) == 0 || i > 0 && (r.Store != wire.StoreOverflow || pt.Store != wire.StoreOverflowMirror) {
					return false
				}
				serverOf := g.ServerOf
				if pt.Store == wire.StoreOverflowMirror {
					serverOf = g.MirrorServerOf
				}
				for _, sp := range pt.Spans {
					if serverOf(g.UnitOf(sp.Off)) != s {
						return false
					}
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}
