package wire

import (
	"bytes"
	"crypto/sha256"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/golden.hex from the current encoder")

// goldenTrace is the trace ID every traced golden frame carries.
const goldenTrace = 0x1234567890ABCDEF

// TestWireGolden pins the wire format byte for byte. Every fuzz seed is
// encoded with Marshal and, traced, through MarshalFrame (head and payload
// separately); the four hot messages add their 64 KiB payloads and the
// frame's head length, which pins where the by-reference payload splits off.
// The result must equal testdata/golden.hex. Run with -update only for a
// deliberate format change: any other difference is a wire-format break.
func TestWireGolden(t *testing.T) {
	var out strings.Builder
	put := func(label string, b []byte) {
		if len(b) > 256 {
			fmt.Fprintf(&out, "%s=len:%d,sha256:%x\n", label, len(b), sha256.Sum256(b))
			return
		}
		fmt.Fprintf(&out, "%s=%x\n", label, b)
	}
	encode := func(label string, m Msg) {
		put(label+" marshal", Marshal(m))
		fr := MarshalFrame(m, goldenTrace)
		fmt.Fprintf(&out, "%s traced head_len=%d\n", label, len(fr.Head()))
		put(label+" traced head", fr.Head())
		put(label+" traced payload", fr.Payload)
		fr.Free()
	}
	for i, m := range fuzzSeeds() {
		encode(fmt.Sprintf("seed%03d %T", i, m), m)
	}
	hot := hotMessages()
	names := make([]string, 0, len(hot))
	for name := range hot {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		encode("hot "+name, hot[name])
	}

	path := filepath.Join("testdata", "golden.hex")
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(out.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run go test -run TestWireGolden -update to create it)", err)
	}
	got := []byte(out.String())
	if bytes.Equal(got, want) {
		return
	}
	gl, wl := strings.Split(string(got), "\n"), strings.Split(string(want), "\n")
	for i := 0; i < len(gl) || i < len(wl); i++ {
		var g, w string
		if i < len(gl) {
			g = gl[i]
		}
		if i < len(wl) {
			w = wl[i]
		}
		if g != w {
			t.Fatalf("wire bytes differ from %s at line %d:\n got  %s\n want %s", path, i+1, g, w)
		}
	}
}
