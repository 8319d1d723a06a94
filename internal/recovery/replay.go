package recovery

import (
	"errors"
	"fmt"
	"sync/atomic"
	"time"

	"csar/internal/client"
	"csar/internal/wire"
)

// ReplayReport summarizes one intent-replay pass over a file.
type ReplayReport struct {
	Open      int      // intents still live (an RMW in flight); left alone
	Abandoned int      // abandoned intents found (lease expiry, dirty cancel, crash restart)
	Replayed  int      // abandoned intents repaired: parity reconstructed and retired
	Skipped   int      // abandoned intents left for a later pass (e.g. a data server down)
	Problems  []string // human-readable notes for everything not repaired
}

// ReplayIntents closes the write hole's recovery half for one file: it asks
// every parity server for its open-intent set and reconstructs the parity of
// each abandoned stripe from the stripe's in-place data units.
//
// An abandoned intent marks a stripe whose read-modify-write died, or gave
// up, after its writes may have started and before its client retired the
// intent with both writes acknowledged — exactly the window where data and
// parity can disagree. Whichever of the data and parity writes landed,
// re-encoding the data units yields a parity consistent with whatever the
// stripe now holds, and ResolveIntent applies it and retires the intent
// atomically on the server.
//
// Open and pending (non-abandoned) intents belong to RMWs whose writes may
// still be landing and are left untouched. An abandoned intent on a stripe
// where one of them is live is not final either: its server refuses the
// resolve (wire.ErrStripeBusy), and the intent is deferred to a later pass.
// A stripe with an abandoned intent admits no new locker, so once no live
// intent is left in it, it stays still while it is replayed. A degraded
// data server defers that stripe to a later pass (after Rebuild) rather than
// replaying from incomplete information.
func ReplayIntents(c *client.Client, f *client.File) (*ReplayReport, error) {
	g := f.Geometry()
	ref := f.Ref()
	rep := &ReplayReport{}
	if f.Shape().Parity == 0 {
		return rep, nil
	}
	defer c.ObserveSince("replay_pass", time.Now())
	// This client's own completed updates must not show as live intents.
	c.FlushRetires()

	for srv := 0; srv < g.Servers; srv++ {
		resp, err := c.ServerCaller(srv).Call(&wire.ListIntents{File: ref})
		if err != nil {
			return rep, fmt.Errorf("recovery: list intents on server %d: %w", srv, err)
		}
		lr, ok := resp.(*wire.ListIntentsResp)
		if !ok {
			return rep, fmt.Errorf("recovery: unexpected intent listing %T", resp)
		}
		for _, in := range lr.Intents {
			if !in.Abandoned {
				rep.Open++
				continue
			}
			rep.Abandoned++
			if err := replayStripe(c, f, srv, in, rep); err != nil {
				return rep, err
			}
		}
	}
	atomic.AddInt64(&c.Counters().IntentsReplayed, int64(rep.Replayed))
	atomic.AddInt64(&c.Counters().IntentsAbandoned, int64(rep.Abandoned))
	return rep, nil
}

// replayStripe reconstructs one abandoned stripe's parity unit on server srv
// and resolves its intent there. Each of a stripe's m parity servers records
// its own intent, and each replay recomputes only the parity unit that
// server holds. The survivor planner does the read and the encode with every
// parity server of the stripe counted as dead: the parity in doubt is never
// a source, so the unit is encoded from the k data units alone, and a data
// server that is down leaves fewer than k of them. That stripe is left
// fail-stopped for a pass after Rebuild — replaying from a reconstruction of
// the failed server would be circular, since that reconstruction needs the
// very parity we distrust.
func replayStripe(c *client.Client, f *client.File, srv int, in wire.Intent, rep *ReplayReport) error {
	g := f.Geometry()
	idx := g.MemberOn(srv, in.Stripe)
	if idx < g.DataWidth() {
		rep.Skipped++
		rep.Problems = append(rep.Problems, fmt.Sprintf(
			"stripe %d: intent on server %d, which owns none of its parity", in.Stripe, srv))
		return nil
	}
	var dead []int
	for s := 0; s < g.Servers; s++ {
		if _, parity := g.ParityUnitOn(s, in.Stripe); parity || c.Down(s) {
			dead = append(dead, s)
		}
	}
	acc := make([]byte, g.StripeUnit)
	if err := f.Reconstruct(acc, []client.Unit{{Group: in.Stripe, Member: idx}}, dead, rawCall(c)); err != nil {
		rep.Skipped++
		rep.Problems = append(rep.Problems, fmt.Sprintf("stripe %d: replay deferred: %v", in.Stripe, err))
		return nil
	}
	_, err := c.ServerCaller(srv).Call(&wire.ResolveIntent{
		File: f.Ref(), Stripe: in.Stripe, Session: in.Session, Seq: in.Seq, Data: acc,
	})
	if errors.Is(err, wire.ErrStripeBusy) {
		rep.Skipped++
		rep.Problems = append(rep.Problems, fmt.Sprintf(
			"stripe %d: replay deferred: an update is in flight on server %d", in.Stripe, srv))
		return nil
	}
	if err != nil {
		return fmt.Errorf("recovery: resolve intent for stripe %d: %w", in.Stripe, err)
	}
	rep.Replayed++
	return nil
}
