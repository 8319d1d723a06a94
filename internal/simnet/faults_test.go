package simnet

import (
	"context"
	"errors"
	"testing"
	"time"

	"csar/internal/simtime"
)

func TestDropFaultFailsSend(t *testing.T) {
	n := New(nil, DefaultParams())
	a, b := n.NewNode("a"), n.NewNode("b")
	n.SetLinkFault("a", "b", LinkFault{Drop: true})
	if err := a.Send(b, 100, time.Time{}); !errors.Is(err, ErrLinkDown) {
		t.Fatalf("err = %v, want ErrLinkDown", err)
	}
	// Directed: the reverse link is unaffected.
	if err := b.Send(a, 100, time.Time{}); err != nil {
		t.Fatalf("reverse link failed: %v", err)
	}
	n.ClearLinkFault("a", "b")
	if err := a.Send(b, 100, time.Time{}); err != nil {
		t.Fatalf("cleared link failed: %v", err)
	}
}

func TestHangBlocksUntilCleared(t *testing.T) {
	n := New(nil, DefaultParams())
	a, b := n.NewNode("a"), n.NewNode("b")
	n.SetLinkFault("a", "b", LinkFault{Hang: true})

	done := make(chan error, 1)
	go func() { done <- a.Send(b, 100, time.Time{}) }()
	select {
	case err := <-done:
		t.Fatalf("send completed through a hung link: %v", err)
	case <-time.After(30 * time.Millisecond):
	}
	n.ClearLinkFault("a", "b")
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("send after clear: %v", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("hung send never woke after clear")
	}
}

func TestSendDeadline(t *testing.T) {
	// A deadline bounds a send both ways it can wait: on a hung link, and
	// on a modeled transfer that would end after it. Either returns
	// ErrDeadline at the deadline, a context.DeadlineExceeded.
	hung := New(nil, DefaultParams())
	a, b := hung.NewNode("a"), hung.NewNode("b")
	hung.SetLinkFault("a", "b", LinkFault{Hang: true})
	slow := New(&simtime.Clock{Scale: 10 * time.Millisecond}, Params{BandwidthBPS: 1e6})
	c, d := slow.NewNode("c"), slow.NewNode("d")
	for _, tc := range []struct {
		name     string
		from, to *Node
	}{{"hung link", a, b}, {"slow transfer", c, d}} { // the transfer takes 200 ms
		start := time.Now()
		err := tc.from.Send(tc.to, 2e7, start.Add(20*time.Millisecond))
		if !errors.Is(err, ErrDeadline) || !errors.Is(err, context.DeadlineExceeded) {
			t.Fatalf("%s: err = %v, want ErrDeadline", tc.name, err)
		}
		if took := time.Since(start); took < 15*time.Millisecond || took > 150*time.Millisecond {
			t.Fatalf("%s: send returned after %v, want about 20ms", tc.name, took)
		}
	}
	// A deadline that is not reached changes nothing.
	hung.ClearFaults()
	if err := a.Send(b, 100, time.Now().Add(time.Second)); err != nil {
		t.Fatalf("send on a healed link: %v", err)
	}
}

func TestHangReplacedByDropReevaluates(t *testing.T) {
	// A hung sender must re-check the fault table when its entry changes: a
	// hang replaced by a drop fails the send instead of letting it through.
	n := New(nil, DefaultParams())
	a, b := n.NewNode("a"), n.NewNode("b")
	n.SetLinkFault("a", "b", LinkFault{Hang: true})

	done := make(chan error, 1)
	go func() { done <- a.Send(b, 100, time.Time{}) }()
	time.Sleep(10 * time.Millisecond)
	n.SetLinkFault("a", "b", LinkFault{Drop: true})
	select {
	case err := <-done:
		if !errors.Is(err, ErrLinkDown) {
			t.Fatalf("err = %v, want ErrLinkDown after hang->drop", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("send stayed hung after the fault was replaced")
	}
	n.ClearFaults()
}

func TestWildcardMatchingAndPrecedence(t *testing.T) {
	n := New(nil, DefaultParams())
	a, b, c := n.NewNode("a"), n.NewNode("b"), n.NewNode("c")

	// (*,b) drops anything toward b.
	n.SetLinkFault(Wildcard, "b", LinkFault{Drop: true})
	if err := a.Send(b, 1, time.Time{}); !errors.Is(err, ErrLinkDown) {
		t.Fatal("wildcard destination fault did not apply")
	}
	if err := a.Send(c, 1, time.Time{}); err != nil {
		t.Fatalf("unrelated link affected: %v", err)
	}
	// An exact (a,b) entry takes precedence — here a no-op fault that lets
	// a's traffic through an otherwise-dropped destination.
	n.SetLinkFault("a", "b", LinkFault{})
	if err := a.Send(b, 1, time.Time{}); err != nil {
		t.Fatalf("exact entry did not shadow the wildcard: %v", err)
	}
	if err := c.Send(b, 1, time.Time{}); !errors.Is(err, ErrLinkDown) {
		t.Fatal("wildcard stopped applying to other sources")
	}
	n.ClearFaults()
	if err := c.Send(b, 1, time.Time{}); err != nil {
		t.Fatalf("ClearFaults left a fault behind: %v", err)
	}
}

func TestPartitionIsBidirectional(t *testing.T) {
	n := New(nil, DefaultParams())
	a, b, c := n.NewNode("a"), n.NewNode("b"), n.NewNode("c")
	n.Partition("b")
	if err := a.Send(b, 1, time.Time{}); !errors.Is(err, ErrLinkDown) {
		t.Fatal("inbound link survived the partition")
	}
	if err := b.Send(a, 1, time.Time{}); !errors.Is(err, ErrLinkDown) {
		t.Fatal("outbound link survived the partition")
	}
	if err := a.Send(c, 1, time.Time{}); err != nil {
		t.Fatalf("partition leaked onto other nodes: %v", err)
	}
	n.Heal("b")
	if err := a.Send(b, 1, time.Time{}); err != nil {
		t.Fatalf("heal did not restore the link: %v", err)
	}
	if err := b.Send(a, 1, time.Time{}); err != nil {
		t.Fatalf("heal did not restore the reverse link: %v", err)
	}
}

func TestExtraLatencyCharged(t *testing.T) {
	clock := &simtime.Clock{Scale: 10 * time.Millisecond}
	n := New(clock, Params{Latency: 0, BandwidthBPS: 1e12})
	a, b := n.NewNode("a"), n.NewNode("b")
	n.SetLinkFault("a", "b", LinkFault{ExtraLatency: 2 * time.Second}) // 2 sim s = 20 ms wall
	start := time.Now()
	if err := a.Send(b, 1, time.Time{}); err != nil {
		t.Fatal(err)
	}
	if got := time.Since(start); got < 15*time.Millisecond {
		t.Fatalf("send took %v, extra latency not charged", got)
	}
}

func TestRunScheduleUntimedAppliesInOrder(t *testing.T) {
	n := New(nil, DefaultParams())
	a, b := n.NewNode("a"), n.NewNode("b")
	// Install then clear the same fault: the final table state must reflect
	// the last step, proving in-order application.
	done := n.RunSchedule([]FaultStep{
		{From: "a", To: "b", Fault: LinkFault{Drop: true}},
		{At: time.Second, From: "a", To: "b", Clear: true},
	})
	select {
	case <-done:
	case <-time.After(2 * time.Second):
		t.Fatal("untimed schedule did not complete immediately")
	}
	if err := a.Send(b, 1, time.Time{}); err != nil {
		t.Fatalf("final schedule state wrong: %v", err)
	}
}

func TestRunScheduleTimedOffsets(t *testing.T) {
	clock := &simtime.Clock{Scale: 10 * time.Millisecond}
	n := New(clock, Params{Latency: 0, BandwidthBPS: 1e12})
	a, b := n.NewNode("a"), n.NewNode("b")
	// The drop lands 2 simulated seconds (20 ms wall) in: a send issued
	// immediately passes, one after the schedule completes fails.
	if err := a.Send(b, 1, time.Time{}); err != nil {
		t.Fatalf("pre-schedule send: %v", err)
	}
	done := n.RunSchedule([]FaultStep{
		{At: 2 * time.Second, From: "a", To: "b", Fault: LinkFault{Drop: true}},
	})
	<-done
	if err := a.Send(b, 1, time.Time{}); !errors.Is(err, ErrLinkDown) {
		t.Fatalf("post-schedule send: %v, want ErrLinkDown", err)
	}
	n.ClearFaults()
}
