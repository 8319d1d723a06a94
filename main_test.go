package csar_test

import (
	"flag"
	"os"
	"testing"

	"csar/internal/wire"
)

// TestMain turns pool poison on for the package's tests: they drive the full
// stack over real TCP and verify contents byte for byte, so a payload buffer
// recycled while anything still reads it fails them. Benchmark runs stay
// unpoisoned — the overwrite on every put is what they would measure.
func TestMain(m *testing.M) {
	flag.Parse()
	if flag.Lookup("test.bench").Value.String() == "" {
		wire.SetPoolPoison(true)
	}
	os.Exit(m.Run())
}
