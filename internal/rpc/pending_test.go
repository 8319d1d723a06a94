package rpc

import (
	"errors"
	"sync"
	"testing"
	"time"

	"csar/internal/wire"
)

// TestTimedOutCallsDrainPendingMap regresses the pending-call bookkeeping:
// a burst of abandoned (timed-out) calls must leave the pending map empty —
// no leaked entries from the abandon path — and the connection must remain
// usable. The client also swaps in a fresh map after enough churn so the
// burst's bucket memory is not pinned forever; that part is not observable
// through len(), but this test drives exactly the churn pattern it exists
// for.
func TestTimedOutCallsDrainPendingMap(t *testing.T) {
	block := make(chan struct{})
	c := startPair(t, func(req wire.Msg) (wire.Msg, error) {
		if _, ok := req.(*wire.Ping); ok {
			<-block // hang every ping past its caller's deadline
		}
		return &wire.OK{}, nil
	})

	const total = 10_000
	const workers = 50
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < total/workers; i++ {
				_, err := c.CallTraced(&wire.Ping{}, 0, 50*time.Microsecond)
				if err == nil {
					t.Error("hung call succeeded")
					return
				}
				if !errors.Is(err, ErrTimeout) {
					t.Errorf("hung call: %v", err)
					return
				}
			}
		}()
	}
	wg.Wait()

	if n := c.PendingCalls(); n != 0 {
		t.Fatalf("pending map holds %d entries after %d timed-out calls", n, total)
	}

	// Release the hung handlers; their late responses must be dropped
	// silently and a fresh call must still work.
	close(block)
	if _, err := c.Call(&wire.Open{Name: "still-alive"}); err != nil {
		t.Fatalf("call after timeout burst: %v", err)
	}
	if n := c.PendingCalls(); n != 0 {
		t.Fatalf("pending map holds %d entries at idle", n)
	}
}
