package client

import (
	"bytes"
	"math/rand"
	"testing"
	"testing/quick"

	"csar/internal/raid"
	"csar/internal/wire"
)

// bytesOf is server s's gathered payload, nil if it got none.
func (ps payloads) bytesOf(s int) []byte {
	if ps[s] == nil {
		return nil
	}
	return *ps[s]
}

func TestSplitMergeRoundTrip(t *testing.T) {
	// splitByServer followed by mergeFromServers must reproduce the input
	// for any geometry, offset and length.
	f := func(nSeed uint8, suSeed uint16, offSeed uint32, lenSeed uint16, seed int64) bool {
		g := raid.Geometry{
			Servers:    int(nSeed%8) + 1,
			StripeUnit: int64(suSeed%300) + 1,
		}
		off := int64(offSeed % 100000)
		r := rand.New(rand.NewSource(seed))
		p := make([]byte, int(lenSeed%5000)+1)
		r.Read(p)

		perServer := splitByServer(g, off, p)
		reads := make(spanReads, g.Servers)
		for s := range perServer {
			if data := perServer.bytesOf(s); data != nil {
				reads[s] = &wire.ReadResp{Data: data}
			}
		}
		got := make([]byte, len(p))
		mergeFromServers(g, off, got, reads, nil)
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
	data := splitByServer(g, 0, p)
	mirror := splitByMirror(g, 0, p)
	for i := 0; i < 4; i++ {
		prev := (i + 3) % 4
		if !bytes.Equal(mirror.bytesOf(i), data.bytesOf(prev)) {
			t.Fatalf("mirror payload of server %d != data payload of server %d", i, prev)
		}
	}
}

func TestServerPiecesMatchPayloadSizes(t *testing.T) {
	f := func(nSeed uint8, suSeed uint16, offSeed uint32, lenSeed uint16) bool {
		g := raid.Geometry{
			Servers:    int(nSeed%8) + 1,
			StripeUnit: int64(suSeed%300) + 1,
		}
		off := int64(offSeed % 100000)
		length := int64(lenSeed%5000) + 1
		p := make([]byte, length)

		pieces := serverPieces(g, off, length)
		payload := splitByServer(g, off, p)
		var totalPieces int64
		for i := 0; i < g.Servers; i++ {
			if bytesFor(pieces[i]) != int64(len(payload.bytesOf(i))) {
				return false
			}
			totalPieces += bytesFor(pieces[i])
			// Pieces are sorted and non-overlapping.
			for j := 1; j < len(pieces[i]); j++ {
				if pieces[i][j].Off < pieces[i][j-1].Off+pieces[i][j-1].Len {
					return false
				}
			}
		}
		return totalPieces == length
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestMirrorPiecesMatchMirrorPayloads(t *testing.T) {
	f := func(nSeed uint8, offSeed uint32, lenSeed uint16) bool {
		g := raid.Geometry{Servers: int(nSeed%7) + 2, StripeUnit: 64}
		off := int64(offSeed % 10000)
		length := int64(lenSeed%3000) + 1
		p := make([]byte, length)
		pieces := mirrorPieces(g, off, length)
		payload := splitByMirror(g, off, p)
		for i := 0; i < g.Servers; i++ {
			if bytesFor(pieces[i]) != int64(len(payload.bytesOf(i))) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestAppendSpanMerges(t *testing.T) {
	spans := appendSpan(nil, 0, 10)
	spans = appendSpan(spans, 10, 5) // contiguous: merges
	if len(spans) != 1 || spans[0].Len != 15 {
		t.Fatalf("spans = %v", spans)
	}
	spans = appendSpan(spans, 20, 5) // gap: new span
	if len(spans) != 2 {
		t.Fatalf("spans = %v", spans)
	}
	if bytesFor(spans) != 20 {
		t.Fatalf("bytesFor = %d", bytesFor(spans))
	}
}
