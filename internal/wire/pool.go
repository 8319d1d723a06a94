package wire

import (
	"math/bits"
	"sync"
	"sync/atomic"
)

// The payload pool: every bulk buffer the transport, the servers and the
// client recycle — rpc receive frames, ReadResp payloads, the parity units a
// client computes for its writes, a read-modify-write's old bytes — comes
// from one set of size classes. GetBuf rounds up to a class, so a small
// frame never takes or pins a large buffer, and a miss allocates a whole
// class size the next caller of that class can reuse.
//
// Class c holds minPooledBuf<<c bytes plus bufSlack. Payloads are powers of
// two (stripe units, a server's share of full stripes) and a frame adds a few
// dozen header bytes to one; without the slack every such frame would take a
// buffer of twice its size.
const (
	minPooledBufLog = 12 // 4 KiB
	maxPooledBufLog = 22 // 4 MiB
	minPooledBuf    = 1 << minPooledBufLog
	maxPooledBuf    = 1 << maxPooledBufLog
	bufSlack        = 512
)

var bufClasses [maxPooledBufLog - minPooledBufLog + 1]sync.Pool

// bufClass returns the smallest class whose buffers hold n bytes
// (n <= maxPooledBuf+bufSlack).
func bufClass(n int) int {
	if n <= minPooledBuf+bufSlack {
		return 0
	}
	return bits.Len(uint(n-bufSlack-1)) - minPooledBufLog
}

// GetBuf returns a buffer of length n with unspecified contents. The caller
// owns it until PutBuf. Requests beyond the largest class are one-offs:
// allocated exactly and dropped by PutBuf.
func GetBuf(n int) *[]byte {
	if n > maxPooledBuf+bufSlack {
		b := make([]byte, n)
		return &b
	}
	c := bufClass(n)
	bp, _ := bufClasses[c].Get().(*[]byte)
	if bp == nil {
		b := make([]byte, minPooledBuf<<c+bufSlack)
		bp = &b
	}
	*bp = (*bp)[:n]
	return bp
}

// PutBuf recycles a buffer obtained from GetBuf; nothing may reference its
// bytes afterward. nil and buffers that are not a class size (one-offs) are
// left to the garbage collector.
func PutBuf(bp *[]byte) {
	if bp == nil {
		return
	}
	size := cap(*bp)
	if size > maxPooledBuf+bufSlack {
		return
	}
	c := bufClass(size)
	if size != minPooledBuf<<c+bufSlack {
		return
	}
	*bp = (*bp)[:size]
	if poisonPooledBuffers.Load() {
		poison(*bp)
	}
	bufClasses[c].Put(bp)
}

// poisonPooledBuffers, when set by tests, overwrites every buffer returned
// to the payload pool or the frame-head pool, so that any still-live alias of
// a recycled buffer is caught by the pool-correctness property tests. Atomic
// because background frame traffic may still be draining when a test flips
// it.
var poisonPooledBuffers atomic.Bool

// SetPoolPoison toggles poison-on-put for every pool in this package
// (test-only).
func SetPoolPoison(on bool) { poisonPooledBuffers.Store(on) }

func poison(b []byte) {
	for i := range b {
		b[i] = 0xDB
	}
}
