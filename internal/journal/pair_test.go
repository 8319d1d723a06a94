package journal_test

import (
	"bytes"
	"errors"
	"slices"
	"testing"

	"csar/internal/journal"
)

// spy records the calls a Pair makes on one of its files. onTruncate, if
// set, runs before every Truncate; failTruncate makes the next one fail, and
// failSync the next Sync report a failure after syncing.
type spy struct {
	journal.File
	size                     func() int64
	writes, syncs, truncates int
	last                     []byte // the last write at offset 0
	onTruncate               func()
	failTruncate, failSync   bool
}

func (f *spy) WriteAt(p []byte, off int64) (int, error) {
	f.writes++
	if off == 0 {
		f.last = bytes.Clone(p)
	}
	return f.File.WriteAt(p, off)
}

func (f *spy) Sync() error {
	f.syncs++
	if err := f.File.Sync(); err != nil || !f.failSync {
		return err
	}
	f.failSync = false
	return errors.New("sync refused")
}

func (f *spy) Truncate(size int64) error {
	if f.onTruncate != nil {
		f.onTruncate()
	}
	if f.failTruncate {
		f.failTruncate = false
		return errors.New("truncate refused")
	}
	f.truncates++
	return f.File.Truncate(size)
}

// calls is what the spy has seen: writes, syncs and truncates.
func (f *spy) calls() [3]int { return [3]int{f.writes, f.syncs, f.truncates} }

func (f *spy) image() []byte {
	b := make([]byte, f.size())
	f.ReadAt(b, 0) //nolint:errcheck // test store
	return b
}

func images(spies [2]*spy) [2][]byte { return [2][]byte{spies[0].image(), spies[1].image()} }

// pairOn opens a pair over two files of s holding imgs, and returns it with
// its spied files and the records it replayed.
func pairOn(t *testing.T, s store, imgs [2][]byte) (*journal.Pair, [2]*spy, [][]byte) {
	t.Helper()
	var files [2]journal.File
	var spies [2]*spy
	var sizes [2]int64
	for i := range imgs {
		f, size := s.open(t, imgs[i])
		spies[i] = &spy{File: f, size: size}
		files[i], sizes[i] = spies[i], size()
	}
	var got [][]byte
	p, err := journal.OpenPair(files, sizes, func(b []byte) error {
		got = append(got, b)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return p, spies, got
}

// panics reports whether f panics.
func panics(f func()) (panicked bool) {
	defer func() { panicked = recover() != nil }()
	f()
	return false
}

// TestPairCompactionCrash cuts the pair's compactions, both ways, at every
// byte of the sealed write and after the replaced log is truncated: each
// cut reloads exactly the old record set or the new one, and records
// appended after a seal replay with its copy. An emptying Compact cut
// between its truncates never brings back a record the old set lacked, even
// when a failed truncate left a superseded copy behind. A record in the
// seal's form panics. And a spy counts the calls: a synced append is one
// WriteAt and one Sync, an unsynced one the WriteAt alone, and a log that
// is already empty is never rewritten, since an empty Rewrite still syncs.
func TestPairCompactionCrash(t *testing.T) {
	for _, s := range stores {
		t.Run(s.name, func(t *testing.T) {
			must := func(err error) {
				t.Helper()
				if err != nil {
					t.Fatal(err)
				}
			}
			reload := func(imgs [2][]byte) [][]byte {
				t.Helper()
				_, _, got := pairOn(t, s, imgs)
				return got
			}

			p, spies, _ := pairOn(t, s, [2][]byte{})
			must(p.Append(true, payloads...)) // unsealed, in log 0
			old := payloads
			for i, next := range [][][]byte{{payloads[1], payloads[3]}, {payloads[2]}} {
				into := 1 - i
				before := images(spies)
				spies[into].last = nil
				must(p.Compact(next...))
				write := spies[into].last
				for n := 0; n <= len(write); n++ {
					imgs := before
					imgs[into] = write[:n]
					want := old
					if n == len(write) {
						want = next
					}
					if got := reload(imgs); !slices.EqualFunc(got, want, bytes.Equal) {
						t.Fatalf("compaction into log %d cut at byte %d of %d: reloaded %q, want %q", into, n, len(write), got, want)
					}
				}
				imgs := before
				imgs[into], imgs[1-into] = write, nil
				if got := reload(imgs); !slices.EqualFunc(got, next, bytes.Equal) {
					t.Fatalf("compaction into log %d, replaced log truncated: reloaded %q, want %q", into, got, next)
				}
				if now := images(spies); !bytes.Equal(now[into], write) || len(now[1-into]) != 0 {
					t.Fatalf("after compaction into log %d: logs are %d and %d bytes", into, len(now[0]), len(now[1]))
				}
				must(p.Append(false, payloads[0]))
				old = append(slices.Clone(next), payloads[0])
			}

			// A failed truncate leaves log 0's superseded copy beside log 1's
			// sealed one; the emptying Compact must drop the superseded copy
			// first.
			spies[0].failTruncate = true
			if err := p.Compact(payloads[3]); err == nil {
				t.Fatal("compaction with a failing truncate reported no error")
			}
			old = [][]byte{payloads[3]}
			if got := reload(images(spies)); !slices.EqualFunc(got, old, bytes.Equal) {
				t.Fatalf("beside a superseded copy: reloaded %q, want %q", got, old)
			}
			var cuts [][2][]byte
			for _, f := range spies {
				f.onTruncate = func() { cuts = append(cuts, images(spies)) }
			}
			must(p.Compact())
			spies[0].onTruncate, spies[1].onTruncate = nil, nil
			cuts = append(cuts, images(spies))
			for i, imgs := range cuts {
				for _, r := range reload(imgs) {
					if !slices.ContainsFunc(old, func(o []byte) bool { return bytes.Equal(o, r) }) {
						t.Fatalf("emptying cut %d of %d brought back %q, which the old set %q lacked", i, len(cuts), r, old)
					}
				}
			}
			if now := images(spies); len(now[0])+len(now[1]) != 0 {
				t.Fatalf("emptied pair: logs are %d and %d bytes", len(now[0]), len(now[1]))
			}

			seal := append([]byte{4}, make([]byte, 8)...)
			for what, write := range map[string]func(){
				"synced append":   func() { p.Append(true, payloads[0], seal) }, //nolint:errcheck // panics
				"unsynced append": func() { p.Append(false, seal) },             //nolint:errcheck // panics
				"compaction":      func() { p.Compact(payloads[0], seal) },      //nolint:errcheck // panics
			} {
				if !panics(write) {
					t.Fatalf("%s of a record in seal form did not panic", what)
				}
			}
			if now := images(spies); len(now[0])+len(now[1]) != 0 {
				t.Fatalf("refused records changed the logs to %d and %d bytes", len(now[0]), len(now[1]))
			}

			// The calls, log by log: appends go to log 0 after the drain.
			step := func(what string, op func() error, want [2][3]int) {
				t.Helper()
				was := [2][3]int{spies[0].calls(), spies[1].calls()}
				must(op())
				for i, f := range spies {
					c := f.calls()
					if d := [3]int{c[0] - was[i][0], c[1] - was[i][1], c[2] - was[i][2]}; d != want[i] {
						t.Fatalf("%s: log %d saw %v writes/syncs/truncates, want %v", what, i, d, want[i])
					}
				}
			}
			step("emptying an empty pair", func() error { return p.Compact() }, [2][3]int{})
			step("synced append", func() error { return p.Append(true, payloads[0], payloads[1]) }, [2][3]int{{1, 1, 0}})
			step("unsynced append", func() error { return p.Append(false, payloads[2]) }, [2][3]int{{1, 0, 0}})
			step("compaction", func() error { return p.Compact(payloads[3]) }, [2][3]int{{0, 1, 1}, {1, 1, 0}})
			step("emptying", func() error { return p.Compact() }, [2][3]int{{}, {0, 1, 1}})

			f, size := s.open(t, nil)
			sc := &spy{File: f, size: size}
			l, _, err := open(sc, 0)
			must(err)
			must(l.Rewrite())
			if sc.calls() != [3]int{0, 1, 0} {
				t.Fatalf("empty Rewrite of an empty log: %v writes/syncs/truncates, want one sync", sc.calls())
			}
		})
	}
}

// TestPairDue is the one compaction rule: with a positive floor, compact
// when nothing is live, or when the current log has outgrown both the floor
// and twice the live set; a floor <= 0 never compacts.
func TestPairDue(t *testing.T) {
	p, _, _ := pairOn(t, stores[0], [2][]byte{})
	if err := p.Append(true, payloads...); err != nil {
		t.Fatal(err)
	}
	size := p.Size()
	for _, c := range []struct {
		floor, live int64
		want        bool
	}{
		{0, 0, false},
		{-1, 1, false},
		{1 << 20, 0, true},
		{size, 1, false},                  // within the floor
		{size - 1, (size + 1) / 2, false}, // within twice the live set
		{size - 1, size/2 - 1, true},
		{1, size, false},
	} {
		if got := p.Due(c.floor, c.live); got != c.want {
			t.Errorf("log of %d bytes, floor %d, live %d: Due = %v, want %v", size, c.floor, c.live, got, c.want)
		}
	}
}

// TestPairFailedCompaction: a compaction whose sealed write reports a failed
// sync — though its bytes are down — leaves no sealed copy behind, so the
// appends that follow it replay instead of being shadowed by that copy.
func TestPairFailedCompaction(t *testing.T) {
	for _, s := range stores {
		p, spies, _ := pairOn(t, s, [2][]byte{})
		if err := p.Append(true, payloads[0]); err != nil {
			t.Fatal(err)
		}
		spies[1].failSync = true
		if err := p.Compact(payloads[1]); err == nil {
			t.Fatalf("%s: compaction with a failing sync reported no error", s.name)
		}
		if err := p.Append(true, payloads[2]); err != nil {
			t.Fatal(err)
		}
		want := [][]byte{payloads[0], payloads[2]}
		if _, _, got := pairOn(t, s, images(spies)); !slices.EqualFunc(got, want, bytes.Equal) {
			t.Fatalf("%s: after a failed compaction reloaded %q, want %q", s.name, got, want)
		}
	}
}
