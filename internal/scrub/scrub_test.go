package scrub

import (
	"hash/crc32"
	"math/rand"
	"strings"
	"testing"

	"csar/internal/raid"
)

func TestXORSumIdentity(t *testing.T) {
	// xorSum of the blocks' checksums must equal the checksum of the
	// blocks' XOR, for both even and odd block counts.
	r := rand.New(rand.NewSource(7))
	for _, su := range []int64{1, 64, 4096} {
		zero := crc32.Checksum(make([]byte, su), castagnoli)
		for k := 1; k <= 6; k++ {
			acc := make([]byte, su)
			sums := make([]uint32, 0, k)
			for i := 0; i < k; i++ {
				blk := make([]byte, su)
				r.Read(blk)
				raid.XORInto(acc, blk)
				sums = append(sums, crcOf(blk))
			}
			if got, want := xorSum(sums, zero), crcOf(acc); got != want {
				t.Fatalf("su=%d k=%d: xorSum=%08x, crc of XOR=%08x", su, k, got, want)
			}
		}
	}
}

func TestNilJournalIsSafe(t *testing.T) {
	var j *Journal
	j.setUnit(1, 2)
	j.setParity(3, 4)
	j.dropStripe(3, 6, 2)
	j.setOverflow(0, 5)
	j.dropOverflow(0)
	if _, ok := j.unit(1); ok {
		t.Fatal("nil journal returned a unit entry")
	}
	if _, ok := j.parityOf(3); ok {
		t.Fatal("nil journal returned a parity entry")
	}
	if _, ok := j.overflowOf(0); ok {
		t.Fatal("nil journal returned an overflow entry")
	}
}

func TestJournalDropSemantics(t *testing.T) {
	j := NewJournal()
	j.setUnit(10, 1)
	j.setUnit(11, 2)
	j.setParity(5, 3)
	j.setOverflow(2, 4)

	if v, ok := j.unit(10); !ok || v != 1 {
		t.Fatal("unit entry lost")
	}
	j.dropStripe(5, 10, 2)
	if _, ok := j.parityOf(5); ok {
		t.Fatal("dropStripe kept the parity entry")
	}
	if _, ok := j.unit(10); ok {
		t.Fatal("dropStripe kept unit 10")
	}
	if _, ok := j.unit(11); ok {
		t.Fatal("dropStripe kept unit 11")
	}
	if v, ok := j.overflowOf(2); !ok || v != 4 {
		t.Fatal("dropStripe touched overflow entries")
	}
	j.dropOverflow(2)
	if _, ok := j.overflowOf(2); ok {
		t.Fatal("dropOverflow kept the entry")
	}
}

func TestReportTotalsAndString(t *testing.T) {
	r := &Report{
		Mirror:   Counts{Checked: 5, Mismatched: 2, Repaired: 1, Unrepairable: 1},
		Parity:   Counts{Checked: 7, Mismatched: 1, Repaired: 1},
		Overflow: Counts{Checked: 3},
	}
	tot := r.Totals()
	if tot.Checked != 15 || tot.Mismatched != 3 || tot.Repaired != 2 || tot.Unrepairable != 1 {
		t.Fatalf("totals = %+v", tot)
	}
	if r.Clean() {
		t.Fatal("report with mismatches claims clean")
	}
	if !(&Report{}).Clean() {
		t.Fatal("empty report not clean")
	}
	if s := r.String(); !strings.Contains(s, "15 checked") || !strings.Contains(s, "3 mismatched") {
		t.Fatalf("String() = %q", s)
	}
}
