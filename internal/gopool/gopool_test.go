package gopool

import (
	"bytes"
	"runtime"
	"strconv"
	"testing"
	"time"
)

// goid returns the calling goroutine's ID, from the "goroutine N [" header
// runtime.Stack prints.
func goid(t *testing.T) uint64 {
	var buf [64]byte
	b := bytes.TrimPrefix(buf[:runtime.Stack(buf[:], false)], []byte("goroutine "))
	id, err := strconv.ParseUint(string(b[:bytes.IndexByte(b, ' ')]), 10, 64)
	if err != nil {
		t.Errorf("parsing the goroutine ID: %v", err)
	}
	return id
}

func TestBlockedFuncDoesNotDelayAnother(t *testing.T) {
	var p Pool
	defer p.Close()
	block, ran := make(chan struct{}), make(chan struct{})
	p.Go(func() { <-block })
	p.Go(func() { close(ran) })
	select {
	case <-ran:
	case <-time.After(5 * time.Second):
		t.Fatal("a function waited behind a blocked one")
	}
	close(block)
}

func TestSequentialCallsReuseWorkers(t *testing.T) {
	var p Pool
	defer p.Close()
	ids := make(map[uint64]bool)
	for i := 0; i < 100; i++ {
		done := make(chan uint64)
		p.Go(func() { done <- goid(t) })
		ids[<-done] = true
	}
	// A worker parks just after its function returns, so the next Go can
	// come before it is back: a second worker, but never more.
	if len(ids) > 2 {
		t.Fatalf("100 sequential functions ran on %d goroutines, want at most 2", len(ids))
	}
}

func TestCloseEndsWorkers(t *testing.T) {
	base := runtime.NumGoroutine()
	var p Pool
	block := make(chan struct{})
	started := make(chan struct{}, 8)
	for i := 0; i < 8; i++ {
		p.Go(func() { started <- struct{}{}; <-block })
	}
	for i := 0; i < 8; i++ {
		<-started
	}
	close(block)
	p.Close()
	// Close returns once the workers have exited; the runtime may take a
	// moment to stop counting them.
	for deadline := time.Now().Add(5 * time.Second); runtime.NumGoroutine() > base; {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines after Close, %d before the pool", runtime.NumGoroutine(), base)
		}
		time.Sleep(time.Millisecond)
	}
	// Go after Close still runs fn.
	ran := make(chan struct{})
	p.Go(func() { close(ran) })
	<-ran
}
