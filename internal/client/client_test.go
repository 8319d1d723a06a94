package client

import (
	"bytes"
	"fmt"
	"runtime"
	"strconv"
	"sync"
	"testing"
	"time"

	"csar/internal/wire"
)

// okCaller answers every request with OK.
type okCaller struct{}

func (okCaller) Call(wire.Msg) (wire.Msg, error) { return &wire.OK{}, nil }
func (okCaller) CallTraced(wire.Msg, uint64, time.Duration) (wire.Msg, error) {
	return &wire.OK{}, nil
}

// goid returns the calling goroutine's ID, from the "goroutine N [" header
// runtime.Stack prints.
func goid() uint64 {
	var buf [64]byte
	b := bytes.TrimPrefix(buf[:runtime.Stack(buf[:], false)], []byte("goroutine "))
	id, _ := strconv.ParseUint(string(b[:bytes.IndexByte(b, ' ')]), 10, 64)
	return id
}

func TestCloseLeavesNoWorker(t *testing.T) {
	c := New(okCaller{}, []Caller{okCaller{}, okCaller{}, okCaller{}, okCaller{}})
	// Four legs that wait for each other: three run on workers at once.
	var started sync.WaitGroup
	started.Add(4)
	ids := make([]uint64, 4)
	err := c.EachServer(4, nil, func(i int) error {
		ids[i] = goid()
		started.Done()
		started.Wait()
		_, err := c.callSrv(i, &wire.Ping{})
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	// Close returns once the workers have exited; the runtime stops listing
	// them a moment later.
	buf := make([]byte, 1<<20)
	for _, id := range ids[:3] {
		header := []byte(fmt.Sprintf("goroutine %d [", id))
		for deadline := time.Now().Add(5 * time.Second); bytes.Contains(buf[:runtime.Stack(buf, true)], header); time.Sleep(time.Millisecond) {
			if time.Now().After(deadline) {
				t.Fatalf("fan-out worker %d outlived Close", id)
			}
		}
	}
}
