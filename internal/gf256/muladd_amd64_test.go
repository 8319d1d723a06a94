package gf256

import (
	"os"
	"slices"
	"strings"
	"testing"
)

// TestDispatchFindsAVX2 cross-checks the CPUID/XGETBV stub against the
// kernel's own report: where Linux lists avx2 among the CPU flags (it drops
// the flag when the OS does not save YMM state), the vector body must be
// the one dispatched, or a broken stub would silently run the generic body.
func TestDispatchFindsAVX2(t *testing.T) {
	info, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		t.Skipf("no CPU flags to cross-check against: %v", err)
	}
	for _, line := range strings.Split(string(info), "\n") {
		name, flags, ok := strings.Cut(line, ":")
		if !ok || strings.TrimSpace(name) != "flags" {
			continue
		}
		if slices.Contains(strings.Fields(flags), "avx2") && !hasAVX2 {
			t.Fatal("the CPU flags list avx2 but MulAddSlice dispatches to the generic body")
		}
		t.Logf("avx2 dispatched: %v", hasAVX2)
		return
	}
	t.Skip("no flags line in /proc/cpuinfo")
}
