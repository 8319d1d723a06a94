// Package gopool runs functions on reused goroutines, which keep the stacks
// their functions grew. A pool has no cap, so a function waiting on another
// (a queued parity-lock read) never stalls the next (DESIGN §5).
package gopool

import "sync"

// Pool is a set of reused goroutines. The zero Pool is ready to use.
type Pool struct {
	mu      sync.Mutex
	idle    []chan func() // parked workers, the most recently parked last
	closed  bool
	workers sync.WaitGroup
}

// Go runs fn on a parked worker, or on a new one if none is parked. It never
// blocks. After Close, fn runs on a goroutine of its own.
func (p *Pool) Go(fn func()) {
	p.mu.Lock()
	defer p.mu.Unlock()
	switch n := len(p.idle); {
	case n > 0:
		p.idle[n-1] <- fn // buffered: never blocks
		p.idle = p.idle[:n-1]
	case p.closed:
		go fn()
	default:
		p.workers.Add(1)
		go p.work(make(chan func(), 1), fn)
	}
}

func (p *Pool) work(w chan func(), fn func()) {
	defer p.workers.Done()
	for ; fn != nil; fn = <-w { // nil: w was closed
		fn()
		p.mu.Lock()
		if p.closed {
			close(w)
		} else {
			p.idle = append(p.idle, w)
		}
		p.mu.Unlock()
	}
}

// Close ends the parked workers and returns once every worker has exited,
// a busy one when its function returns.
func (p *Pool) Close() {
	p.mu.Lock()
	p.closed = true
	for _, w := range p.idle {
		close(w)
	}
	p.idle = nil
	p.mu.Unlock()
	p.workers.Wait()
}
