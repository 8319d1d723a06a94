package server

import (
	"bytes"
	"testing"
	"time"

	"csar/internal/wire"
)

// Ranged parity traffic: a read-modify-write reads and writes back only the
// in-unit ranges its update changes. ref() is a 3-server Hybrid file with
// 128-byte units; server 2 holds the parity of stripes 0 and 3.

// parityUnit reads the whole of stripe's parity unit, unlocked.
func parityUnit(t *testing.T, s *Server, stripe int64) []byte {
	t.Helper()
	resp := call(t, s, &wire.ReadParity{File: ref(), Stripes: []int64{stripe}}).(*wire.ReadResp)
	return append([]byte(nil), resp.Data...)
}

// locksHeld is the server's locks_held gauge.
func locksHeld(s *Server) int64 {
	for _, g := range s.Obs().Snapshot().Gauges {
		if g.Name == "locks_held" {
			return g.Value
		}
	}
	return 0
}

// intentsOf lists the file's intents on s.
func intentsOf(t *testing.T, s *Server) []wire.Intent {
	t.Helper()
	return call(t, s, &wire.ListIntents{File: ref()}).(*wire.ListIntentsResp).Intents
}

// handleWithin runs m on s and fails the test if it has not returned within
// five seconds: the requests below must be answered, never queued forever.
func handleWithin(t *testing.T, s *Server, m wire.Msg) error {
	t.Helper()
	errc := make(chan error, 1)
	go func() {
		_, err := s.Handle(m)
		errc <- err
	}()
	select {
	case err := <-errc:
		return err
	case <-time.After(5 * time.Second):
		t.Fatalf("%T never returned", m)
		return nil
	}
}

// TestLockedReadParityStripeOrder: a locked read naming a stripe twice used
// to queue its second acquisition behind its own first, with no lease armed
// yet, wedging the stripe until a restart. A locked read must now list its
// stripes strictly ascending, and anything else is refused holding nothing.
func TestLockedReadParityStripeOrder(t *testing.T) {
	s := testServer(2)
	r := ref()
	for _, stripes := range [][]int64{{0, 0}, {3, 0}, {0, 3, 3}} {
		err := handleWithin(t, s, &wire.ReadParity{
			File: r, Stripes: stripes, Lock: true, Owner: 77, LeaseMS: 50,
		})
		if err == nil {
			t.Fatalf("locked read of stripes %v accepted", stripes)
		}
	}
	if n := locksHeld(s); n != 0 {
		t.Fatalf("%d locks held after refused reads", n)
	}
	if st := s.IntentStats(); st.Opened != 0 {
		t.Fatalf("refused reads opened %d intents", st.Opened)
	}
	// Both stripes lock at once afterwards, in order, and release cleanly.
	if err := handleWithin(t, s, &wire.ReadParity{File: r, Stripes: []int64{0, 3}, Lock: true, Owner: 78}); err != nil {
		t.Fatal(err)
	}
	call(t, s, &wire.WriteParity{File: r, Stripes: []int64{0, 3}, Data: make([]byte, 256), Unlock: true, Owner: 78})
	// An unlocked read may list stripes in any order.
	call(t, s, &wire.ReadParity{File: r, Stripes: []int64{3, 0, 3}})
}

// TestParityRangesRefused: a malformed range list, or a payload that does
// not match it, is refused before anything happens — no lock taken or
// released, no intent opened or retired, no byte written.
func TestParityRangesRefused(t *testing.T) {
	s := testServer(2)
	r := ref()
	before := bytes.Repeat([]byte{0x3C}, 128)
	call(t, s, &wire.WriteParity{File: r, Stripes: []int64{0}, Data: before})
	bad := map[string][]wire.Span{
		"unsorted":      {{Off: 64, Len: 8}, {Off: 0, Len: 8}},
		"overlapping":   {{Off: 0, Len: 16}, {Off: 8, Len: 16}},
		"zero-length":   {{Off: 0, Len: 8}, {Off: 32, Len: 0}},
		"negative":      {{Off: -8, Len: 16}},
		"past the unit": {{Off: 120, Len: 16}},
		"huge":          {{Off: 8, Len: 1 << 62}},
	}
	for name, ranges := range bad {
		if err := handleWithin(t, s, &wire.ReadParity{
			File: r, Stripes: []int64{0}, Lock: true, Owner: 5, LeaseMS: 50, Ranges: ranges,
		}); err == nil {
			t.Errorf("%s: locked read accepted", name)
		}
		if _, err := s.Handle(&wire.WriteParity{
			File: r, Stripes: []int64{0}, Ranges: ranges, Data: make([]byte, 8),
		}); err == nil {
			t.Errorf("%s: write accepted", name)
		}
	}
	if n, st := locksHeld(s), s.IntentStats(); n != 0 || st.Opened != 0 {
		t.Fatalf("refused ranged reads left %d locks held, opened %d intents", n, st.Opened)
	}

	// Under a live acquisition: a bad list, or a payload of the wrong
	// length, must neither write nor release nor retire.
	good := []wire.Span{{Off: 0, Len: 8}, {Off: 100, Len: 20}}
	call(t, s, &wire.ReadParity{File: r, Stripes: []int64{0}, Lock: true, Owner: 9, Ranges: good})
	for name, m := range map[string]*wire.WriteParity{
		"unsorted":     {Ranges: bad["unsorted"], Data: make([]byte, 16)},
		"short":        {Ranges: good, Data: make([]byte, 27)},
		"long":         {Ranges: good, Data: make([]byte, 29)},
		"whole-length": {Ranges: good, Data: make([]byte, 128)},
	} {
		m.File, m.Stripes, m.Unlock, m.Owner = r, []int64{0}, true, 9
		if _, err := s.Handle(m); err == nil {
			t.Errorf("%s: unlocking write accepted", name)
		}
	}
	if n := locksHeld(s); n != 1 {
		t.Fatalf("refused unlocking writes left %d locks held, want the one", n)
	}
	if in := intentsOf(t, s); len(in) != 1 || in[0].Abandoned {
		t.Fatalf("refused unlocking writes changed the intent: %+v", in)
	}
	if got := parityUnit(t, s, 0); !bytes.Equal(got, before) {
		t.Fatal("a refused write changed parity bytes")
	}
	call(t, s, &wire.WriteParity{File: r, Stripes: []int64{0}, Ranges: good, Data: make([]byte, 28), Unlock: true, Owner: 9})
}

// TestRangedUnlockingWrite: a ranged locked read returns exactly its ranges,
// packed; the ranged unlocking write changes exactly those bytes, retires
// the intent and releases the lock; the parity-byte counters count the
// ranges.
func TestRangedUnlockingWrite(t *testing.T) {
	s := testServer(2)
	r := ref()
	old := make([]byte, 2*128) // stripes 0 and 3
	for i := range old {
		old[i] = byte(i * 7)
	}
	call(t, s, &wire.WriteParity{File: r, Stripes: []int64{0, 3}, Data: old})
	ranges := []wire.Span{{Off: 0, Len: 5}, {Off: 5, Len: 3}, {Off: 90, Len: 38}} // abutting is disjoint
	st0 := s.ParityStats()
	resp := call(t, s, &wire.ReadParity{
		File: r, Stripes: []int64{0, 3}, Lock: true, Owner: 21, LeaseMS: 60000, Ranges: ranges,
	}).(*wire.ReadResp)
	var want []byte
	for _, base := range []int{0, 128} {
		for _, rg := range ranges {
			want = append(want, old[base+int(rg.Off):base+int(rg.Off+rg.Len)]...)
		}
	}
	if !bytes.Equal(resp.Data, want) {
		t.Fatalf("ranged read returned %x, want %x", resp.Data, want)
	}
	upd := bytes.Repeat([]byte{0xEE}, len(want))
	call(t, s, &wire.WriteParity{File: r, Stripes: []int64{0, 3}, Ranges: ranges, Data: upd, Unlock: true, Owner: 21})
	if st := s.ParityStats(); st.BytesRead-st0.BytesRead != 92 || st.BytesWritten-st0.BytesWritten != 92 {
		t.Fatalf("parity bytes moved: read %d written %d, want 92 each",
			st.BytesRead-st0.BytesRead, st.BytesWritten-st0.BytesWritten)
	}
	for i, stripe := range []int64{0, 3} {
		exp := append([]byte(nil), old[i*128:(i+1)*128]...)
		for _, rg := range ranges {
			copy(exp[rg.Off:rg.Off+rg.Len], upd)
		}
		if got := parityUnit(t, s, stripe); !bytes.Equal(got, exp) {
			t.Fatalf("stripe %d parity after the ranged write:\n got  %x\n want %x", stripe, got, exp)
		}
	}
	if n, in := locksHeld(s), intentsOf(t, s); n != 0 || len(in) != 0 {
		t.Fatalf("after the unlocking write: %d locks held, intents %+v", n, in)
	}
}

// TestRangedWriteInstallsNothing: a ranged write without Unlock — the no-lock
// ablation's read-modify-write — folds a delta into bytes that may be torn,
// so it must leave an abandoned intent abandoned and the overflow tables
// alone. Only a whole-unit write supersedes them.
func TestRangedWriteInstallsNothing(t *testing.T) {
	s := testServer(2)
	r := ref()
	call(t, s, &wire.ReadParity{File: r, Stripes: []int64{0}, Lock: true, Owner: 31})
	call(t, s, &wire.UnlockParity{File: r, Stripes: []int64{0}, Owner: 31, Dirty: true})
	// Server 2 mirrors server 1's overflow; unit 1 is server 1's unit of
	// stripe 0.
	call(t, s, &wire.WriteOverflow{File: r, Extents: []wire.Span{{Off: 130, Len: 4}}, Data: []byte{1, 2, 3, 4}, Mirror: true})
	overflowed := func() int {
		return len(call(t, s, &wire.OverflowDump{File: r, Mirror: true}).(*wire.OverflowDumpResp).Extents)
	}

	for _, ranges := range [][]wire.Span{{{Off: 2, Len: 4}}, {{Off: 0, Len: 128}}} {
		var n int64
		for _, rg := range ranges {
			n += rg.Len
		}
		call(t, s, &wire.WriteParity{File: r, Stripes: []int64{0}, Ranges: ranges, Data: make([]byte, n)})
		if in := intentsOf(t, s); len(in) != 1 || !in[0].Abandoned {
			t.Fatalf("ranged write %v resolved the abandoned intent: %+v", ranges, in)
		}
		if overflowed() != 1 {
			t.Fatalf("ranged write %v invalidated the overflow mirror", ranges)
		}
	}
	call(t, s, &wire.WriteParity{File: r, Stripes: []int64{0}, Data: make([]byte, 128)})
	if in := intentsOf(t, s); len(in) != 0 {
		t.Fatalf("whole-unit write left intents %+v", in)
	}
	if overflowed() != 0 {
		t.Fatal("whole-unit write left the overflow mirror entry")
	}
}
