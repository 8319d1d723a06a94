package recovery

import (
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
// An abandoned intent marks a stripe whose read-modify-write died after its
// data writes may have started but before the unlocking parity write retired
// the intent — exactly the window where data and parity can disagree. Under
// the crash-safe RMW ordering the data units hold either the old bytes (the
// write never reached them) or the complete new bytes, so re-encoding the data
// units yields a parity consistent with whatever the stripe now holds, and
// ResolveIntent applies it and retires the intent atomically on the server.
//
// Open (non-abandoned) intents belong to RMWs still in flight and are left
// untouched — the paper's Section 5.1 lock serializes us behind them. A
// degraded data server defers that stripe to a later pass (after Rebuild)
// rather than replaying from incomplete information.
func ReplayIntents(c *client.Client, f *client.File) (*ReplayReport, error) {
	g := f.Geometry()
	ref := f.Ref()
	rep := &ReplayReport{}
	if f.Shape().Parity == 0 {
		return rep, nil
	}
	defer c.ObserveSince("replay_pass", time.Now())

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

// replayStripe reconstructs one abandoned stripe's parity and resolves its
// intent on the parity server. Each of a stripe's m parity servers records
// its own intent, and each replay recomputes only the parity unit that
// server holds; unit 0 — the only one RAID5 and Hybrid have — is the plain
// XOR of the data units.
func replayStripe(c *client.Client, f *client.File, srv int, in wire.Intent, rep *ReplayReport) error {
	g := f.Geometry()
	ref := f.Ref()
	pu, ok := g.ParityUnitOn(srv, in.Stripe)
	if !ok {
		rep.Skipped++
		rep.Problems = append(rep.Problems, fmt.Sprintf(
			"stripe %d: intent on server %d, which owns none of its parity", in.Stripe, srv))
		return nil
	}
	first, count := g.DataUnitsOf(in.Stripe)
	data := make([][]byte, count)
	for j := 0; j < count; j++ {
		u := first + int64(j)
		if c.Down(g.ServerOf(u)) {
			// The stripe's data cannot be read in full; replaying from a
			// reconstruction of the failed server would be circular (that
			// reconstruction needs the very parity we distrust). Leave the
			// stripe fail-stopped for a pass after Rebuild.
			rep.Skipped++
			rep.Problems = append(rep.Problems, fmt.Sprintf(
				"stripe %d: data server %d down; replay deferred", in.Stripe, g.ServerOf(u)))
			return nil
		}
		d, err := readUnitRaw(c, ref, g, u)
		if err != nil {
			rep.Skipped++
			rep.Problems = append(rep.Problems, fmt.Sprintf(
				"stripe %d: reading unit %d: %v", in.Stripe, u, err))
			return nil
		}
		data[j] = d
	}
	acc := make([]byte, g.StripeUnit)
	f.Code().EncodeUnitInto(pu, acc, data)
	if _, err := c.ServerCaller(srv).Call(&wire.ResolveIntent{
		File: ref, Stripe: in.Stripe, Owner: in.Owner, Data: acc,
	}); err != nil {
		return fmt.Errorf("recovery: resolve intent for stripe %d: %w", in.Stripe, err)
	}
	rep.Replayed++
	return nil
}
