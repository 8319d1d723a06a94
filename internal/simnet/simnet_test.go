package simnet

import (
	"sync"
	"testing"
	"time"

	"csar/internal/simtime"
)

func TestUntimedNetworkIsFree(t *testing.T) {
	n := New(nil, DefaultParams())
	a, b := n.NewNode("a"), n.NewNode("b")
	start := time.Now()
	a.Send(b, 1<<40, time.Time{})
	if time.Since(start) > 100*time.Millisecond {
		t.Fatal("untimed send blocked")
	}
}

func TestNilNodesAreFree(t *testing.T) {
	var a, b *Node
	a.Send(b, 100, time.Time{}) // must not panic
}

func TestSendChargesBandwidth(t *testing.T) {
	clock := &simtime.Clock{Scale: 10 * time.Millisecond}
	n := New(clock, Params{Latency: 0, BandwidthBPS: 1e6})
	a, b := n.NewNode("a"), n.NewNode("b")
	start := time.Now()
	a.Send(b, 2e6, time.Time{}) // 2 sim s = 20 ms
	got := time.Since(start)
	if got < 15*time.Millisecond || got > 200*time.Millisecond {
		t.Fatalf("send took %v, want about 20ms", got)
	}
}

func TestSenderLinkIsTheBottleneck(t *testing.T) {
	// One sender fanning out to many receivers is limited by its own
	// outbound NIC: doubling receivers does not double throughput.
	clock := &simtime.Clock{Scale: 5 * time.Millisecond}
	n := New(clock, Params{Latency: 0, BandwidthBPS: 1e6})
	src := n.NewNode("client")

	elapsed := func(receivers int) time.Duration {
		dsts := make([]*Node, receivers)
		for i := range dsts {
			dsts[i] = n.NewNode("s")
		}
		start := time.Now()
		var wg sync.WaitGroup
		for _, d := range dsts {
			wg.Add(1)
			go func(d *Node) {
				defer wg.Done()
				src.Send(d, 1e6, time.Time{})
			}(d)
		}
		wg.Wait()
		return time.Since(start)
	}

	t2 := elapsed(2)
	t4 := elapsed(4)
	// 4 receivers move 2x the bytes of 2 receivers through the same
	// saturated sender link, so they should take roughly 2x as long.
	if t4 < t2*3/2 {
		t.Fatalf("4-way fanout took %v vs 2-way %v; sender link not saturating", t4, t2)
	}
}

func TestReceiversIndependent(t *testing.T) {
	// Two distinct sender/receiver pairs do not share any link and should
	// overlap almost perfectly.
	clock := &simtime.Clock{Scale: 5 * time.Millisecond}
	n := New(clock, Params{Latency: 0, BandwidthBPS: 1e6})
	a1, b1 := n.NewNode("a1"), n.NewNode("b1")
	a2, b2 := n.NewNode("a2"), n.NewNode("b2")

	start := time.Now()
	var wg sync.WaitGroup
	wg.Add(2)
	go func() { defer wg.Done(); a1.Send(b1, 2e6, time.Time{}) }()
	go func() { defer wg.Done(); a2.Send(b2, 2e6, time.Time{}) }()
	wg.Wait()
	got := time.Since(start)
	// Each pair alone would take 10ms; if they serialized it would be 20ms.
	if got > 18*time.Millisecond {
		t.Fatalf("independent pairs serialized: %v", got)
	}
}

func TestLatencyCharged(t *testing.T) {
	clock := &simtime.Clock{Scale: time.Millisecond}
	n := New(clock, Params{Latency: 20 * time.Second, BandwidthBPS: 0}) // latency only
	a, b := n.NewNode("a"), n.NewNode("b")
	start := time.Now()
	a.Send(b, 1, time.Time{})
	if got := time.Since(start); got < 15*time.Millisecond {
		t.Fatalf("latency not charged: %v", got)
	}
}
