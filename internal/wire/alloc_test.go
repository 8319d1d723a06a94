package wire

import (
	"fmt"
	"runtime"
	"testing"
)

// Allocation budgets for the hot-path messages. These are regression
// budgets, not aspirations: marshal must stay allocation-free in steady
// state (pooled head buffer, payload carried by reference), and unmarshal
// is bounded by the struct plus its copied metadata slices — the bulk Data
// is a view of the input and costs nothing. A change that exceeds a budget
// is a hot-path regression and fails CI.
const (
	// Steady state is 1 (the Encoder escaping through the Msg interface);
	// one extra tolerates a GC-emptied pool mid-measurement.
	marshalFrameBudget = 2
	// Messages without bulk data; the Data-carrying ones get one fewer, the
	// payload copy that no longer exists.
	unmarshalBudget = 6
	// Heap bytes one decode may cost whatever the payload size: the struct
	// and its span or stripe list.
	unmarshalBytesBudget = 512
)

func hotMessages() map[string]Msg {
	payload := make([]byte, 64<<10)
	for i := range payload {
		payload[i] = byte(i)
	}
	file := FileRef{ID: 7, Servers: 6, StripeUnit: 64 << 10, Scheme: Raid5}
	return map[string]Msg{
		"WriteData": &WriteData{
			File:  file,
			Spans: []Span{{Off: 0, Len: 64 << 10}, {Off: 384 << 10, Len: 64 << 10}},
			Data:  payload,
		},
		"Read": &Read{
			File:  file,
			Spans: []Span{{Off: 0, Len: 64 << 10}, {Off: 384 << 10, Len: 64 << 10}},
		},
		"ReadResp": &ReadResp{Data: payload},
		"WriteParity": &WriteParity{
			File:    file,
			Stripes: []int64{0},
			Data:    payload,
			Unlock:  true,
			Owner:   42,
		},
	}
}

// TestMarshalFrameAllocs pins the steady-state allocation count of framing
// a hot-path message: the head buffer comes from the pool and the bulk
// payload rides by reference, so the whole marshal should not allocate.
func TestMarshalFrameAllocs(t *testing.T) {
	for name, m := range hotMessages() {
		t.Run(name, func(t *testing.T) {
			// Warm the pool outside the measurement.
			fr := MarshalFrame(m, 0)
			fr.Free()
			avg := testing.AllocsPerRun(200, func() {
				fr := MarshalFrame(m, 0)
				fr.Free()
			})
			t.Logf("MarshalFrame(%s): %.2f allocs/op", name, avg)
			if avg > marshalFrameBudget {
				t.Fatalf("MarshalFrame(%s) allocates %.2f/op, budget %d", name, avg, marshalFrameBudget)
			}
		})
	}
}

// TestUnmarshalAllocs pins the decode side: one struct, one copy per
// metadata slice, and no bytes that scale with the payload.
func TestUnmarshalAllocs(t *testing.T) {
	for name, m := range hotMessages() {
		t.Run(name, func(t *testing.T) {
			body := Marshal(m)
			budget := float64(unmarshalBudget)
			if name != "Read" {
				budget--
			}
			const runs = 200
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			avg := testing.AllocsPerRun(runs, func() {
				if _, err := Unmarshal(body); err != nil {
					panic(err)
				}
			})
			runtime.ReadMemStats(&after)
			perOp := float64(after.TotalAlloc-before.TotalAlloc) / (runs + 1) // AllocsPerRun warms up once
			t.Logf("Unmarshal(%s): %.2f allocs/op, %.0f B/op for a %d-byte frame", name, avg, perOp, len(body))
			if avg > budget {
				t.Fatalf("Unmarshal(%s) allocates %.2f/op, budget %.0f", name, avg, budget)
			}
			if perOp > unmarshalBytesBudget {
				t.Fatalf("Unmarshal(%s) allocates %.0f B/op, budget %d: the payload is being copied", name, perOp, unmarshalBytesBudget)
			}
		})
	}
}

// TestMarshalFrameMatchesMarshal proves the scatter-gather encoding is
// byte-identical to the contiguous one for every hot message — the frame
// split is a transport optimization, not a wire-format change.
func TestMarshalFrameMatchesMarshal(t *testing.T) {
	for name, m := range hotMessages() {
		fr := MarshalFrame(m, 0)
		got := append(append([]byte{}, fr.Head()...), fr.Payload...)
		want := Marshal(m)
		if fmt.Sprintf("%x", got) != fmt.Sprintf("%x", want) {
			t.Fatalf("%s: frame bytes differ from contiguous marshal", name)
		}
		fr.Free()
	}
}
