package client

import "csar/internal/obs"

// Metrics counts a client's file-system operations, letting users and the
// benchmark harness see how the redundancy engine translated their I/O:
// how many writes took the full-stripe path vs the read-modify-write or
// overflow paths, how much redundancy traffic was generated, and how much
// work ran degraded. It is an obs counter set: the client holds one live
// set, published in Client.Stats under the tags, and every field is only
// ever bumped with atomic.AddInt64.
type Metrics struct {
	Reads          int64 `obs:"reads"` // ReadAt calls
	ReadBytes      int64 `obs:"read_bytes"`
	Writes         int64 `obs:"writes"` // WriteAt calls
	WriteBytes     int64 `obs:"write_bytes"`
	FullStripes    int64 `obs:"full_stripes"`    // portions written via the RAID5 full-stripe path
	RMWs           int64 `obs:"rmws"`            // portions written via locked read-modify-write
	OverflowWrites int64 `obs:"overflow_writes"` // portions written to the mirrored overflow region
	MirrorWrites   int64 `obs:"mirror_writes"`   // portions written via RAID1 whole mirroring
	DegradedReads  int64 `obs:"degraded_reads"`  // reads served with a server marked down
	DegradedWrites int64 `obs:"degraded_writes"` // writes applied with a server marked down
	Compactions    int64 `obs:"compactions"`

	ScrubBytes        int64 `obs:"scrub_bytes"`        // store bytes examined by integrity scrubs
	ScrubFound        int64 `obs:"scrub_found"`        // redundancy mismatches detected by scrubs
	ScrubRepaired     int64 `obs:"scrub_repaired"`     // mismatches repaired in place
	ScrubUnrepairable int64 `obs:"scrub_unrepairable"` // mismatches scrub declined or failed to repair
	IntentSkips       int64 `obs:"intent_skips"`       // stripes scrub skipped because an intent was open

	Retries         int64 `obs:"retries"`          // idempotent calls re-issued after a failure
	Timeouts        int64 `obs:"timeouts"`         // calls that hit their deadline
	BreakerTrips    int64 `obs:"breaker_trips"`    // breakers opened by consecutive failures
	BreakerProbes   int64 `obs:"breaker_probes"`   // re-admission Health probes issued
	BreakerReadmits int64 `obs:"breaker_readmits"` // probes that closed a breaker again
	Failovers       int64 `obs:"failovers"`        // reads rerouted to reconstruction after a failure
	MetaFailovers   int64 `obs:"meta_failovers"`   // metadata RPCs moved to a different manager
	LockReleases    int64 `obs:"lock_releases"`    // ghost parity-lock releases sent (UnlockParity)

	LeaseRenewals    int64 `obs:"lease_renewals"`    // session heartbeats a server answered live, renewing the lease
	LeaseExpiries    int64 `obs:"lease_expiries"`    // session expiries the client learned of: a request the server fenced off (ErrLeaseExpired)
	IntentsReplayed  int64 `obs:"intents_replayed"`  // abandoned stripe intents repaired by replay
	IntentsAbandoned int64 `obs:"intents_abandoned"` // abandoned intents seen by replay (incl. skipped)

	DirtyUnits           int64 `obs:"dirty_units"`            // damaged code groups degraded writes logged, one per dirty-log item
	ResyncedUnits        int64 `obs:"resynced_units"`         // dirty-log groups replayed by online resync
	ResyncForwards       int64 `obs:"resync_forwards"`        // degraded writes forwarded to a resyncing server
	FullRebuildFallbacks int64 `obs:"full_rebuild_fallbacks"` // resyncs that fell back to a full rebuild

	Migrations        int64 `obs:"migrations"`           // scheme migrations committed through this client
	RelayoutBytes     int64 `obs:"relayout_bytes"`       // logical bytes re-encoded into shadow layouts
	RelayoutDualWrite int64 `obs:"relayout_dual_writes"` // foreground writes mirrored into a shadow layout
}

// Metrics returns a snapshot of the client's operation counters.
func (c *Client) Metrics() Metrics { return obs.LoadCounters(c.metrics) }

// Counters returns the client's live counter set, for the recovery and
// scrub passes (which the client cannot import) to bump with
// atomic.AddInt64.
func (c *Client) Counters() *Metrics { return c.metrics }
