package client

import "sync/atomic"

// Metrics counts a client's file-system operations, letting users and the
// benchmark harness see how the redundancy engine translated their I/O:
// how many writes took the full-stripe path vs the read-modify-write or
// overflow paths, how much redundancy traffic was generated, and how much
// work ran degraded.
type Metrics struct {
	Reads          int64 // ReadAt calls
	ReadBytes      int64
	Writes         int64 // WriteAt calls
	WriteBytes     int64
	FullStripes    int64 // portions written via the RAID5 full-stripe path
	RMWs           int64 // portions written via locked read-modify-write
	OverflowWrites int64 // portions written to the mirrored overflow region
	MirrorWrites   int64 // portions written via RAID1 whole mirroring
	DegradedReads  int64 // reads served with a server marked down
	DegradedWrites int64 // writes applied with a server marked down
	Compactions    int64

	ScrubBytes        int64 // store bytes examined by integrity scrubs
	ScrubFound        int64 // redundancy mismatches detected by scrubs
	ScrubRepaired     int64 // mismatches repaired in place
	ScrubUnrepairable int64 // mismatches scrub declined or failed to repair
	IntentSkips       int64 // stripes scrub skipped because an intent was open

	Retries         int64 // idempotent calls re-issued after a failure
	Timeouts        int64 // calls that hit their deadline
	BreakerTrips    int64 // breakers opened by consecutive failures
	BreakerProbes   int64 // re-admission Health probes issued
	BreakerReadmits int64 // probes that closed a breaker again
	Failovers       int64 // reads rerouted to reconstruction after a failure
	MetaFailovers   int64 // metadata RPCs moved to a different manager
	LockReleases    int64 // ghost parity-lock releases sent (UnlockParity)

	LeaseRenewals    int64 // parity-lock lease heartbeats the server honored
	LeaseExpiries    int64 // leases the server revoked before we released them
	IntentsReplayed  int64 // abandoned stripe intents repaired by replay
	IntentsAbandoned int64 // abandoned intents seen by replay (incl. skipped)

	DirtyUnits           int64 // dirty-log items recorded by degraded writes
	ResyncedUnits        int64 // dirty-log items replayed by online resync
	ResyncForwards       int64 // degraded writes forwarded to a resyncing server
	FullRebuildFallbacks int64 // resyncs that fell back to a full rebuild

	Migrations        int64 // scheme migrations committed through this client
	RelayoutBytes     int64 // logical bytes re-encoded into shadow layouts
	RelayoutDualWrite int64 // foreground writes mirrored into a shadow layout
}

// metrics is the internal atomic representation.
type metrics struct {
	reads, readBytes, writes, writeBytes       atomic.Int64
	fullStripes, rmws, overflowWrites, mirrors atomic.Int64
	degradedReads, degradedWrites, compactions atomic.Int64

	scrubBytes, scrubFound, scrubRepaired, scrubUnrepairable atomic.Int64
	intentSkips                                              atomic.Int64

	retries, timeouts                            atomic.Int64
	breakerTrips, breakerProbes, breakerReadmits atomic.Int64
	failovers, metaFailovers, lockReleases       atomic.Int64

	leaseRenewals, leaseExpiries      atomic.Int64
	intentsReplayed, intentsAbandoned atomic.Int64

	dirtyUnits, resyncedUnits            atomic.Int64
	resyncForwards, fullRebuildFallbacks atomic.Int64

	migrations, relayoutBytes, relayoutDualWrites atomic.Int64
}

func (m *metrics) snapshot() Metrics {
	return Metrics{
		Reads:          m.reads.Load(),
		ReadBytes:      m.readBytes.Load(),
		Writes:         m.writes.Load(),
		WriteBytes:     m.writeBytes.Load(),
		FullStripes:    m.fullStripes.Load(),
		RMWs:           m.rmws.Load(),
		OverflowWrites: m.overflowWrites.Load(),
		MirrorWrites:   m.mirrors.Load(),
		DegradedReads:  m.degradedReads.Load(),
		DegradedWrites: m.degradedWrites.Load(),
		Compactions:    m.compactions.Load(),

		ScrubBytes:        m.scrubBytes.Load(),
		ScrubFound:        m.scrubFound.Load(),
		ScrubRepaired:     m.scrubRepaired.Load(),
		ScrubUnrepairable: m.scrubUnrepairable.Load(),
		IntentSkips:       m.intentSkips.Load(),

		Retries:         m.retries.Load(),
		Timeouts:        m.timeouts.Load(),
		BreakerTrips:    m.breakerTrips.Load(),
		BreakerProbes:   m.breakerProbes.Load(),
		BreakerReadmits: m.breakerReadmits.Load(),
		Failovers:       m.failovers.Load(),
		MetaFailovers:   m.metaFailovers.Load(),
		LockReleases:    m.lockReleases.Load(),

		LeaseRenewals:    m.leaseRenewals.Load(),
		LeaseExpiries:    m.leaseExpiries.Load(),
		IntentsReplayed:  m.intentsReplayed.Load(),
		IntentsAbandoned: m.intentsAbandoned.Load(),

		DirtyUnits:           m.dirtyUnits.Load(),
		ResyncedUnits:        m.resyncedUnits.Load(),
		ResyncForwards:       m.resyncForwards.Load(),
		FullRebuildFallbacks: m.fullRebuildFallbacks.Load(),

		Migrations:        m.migrations.Load(),
		RelayoutBytes:     m.relayoutBytes.Load(),
		RelayoutDualWrite: m.relayoutDualWrites.Load(),
	}
}

// Metrics returns a snapshot of the client's operation counters.
func (c *Client) Metrics() Metrics { return c.metrics.snapshot() }

// NoteScrub records the outcome of one integrity-scrub pass in the client's
// counters (called by internal/scrub, which the client cannot import).
func (c *Client) NoteScrub(bytes, found, repaired, unrepairable int64) {
	c.metrics.scrubBytes.Add(bytes)
	c.metrics.scrubFound.Add(found)
	c.metrics.scrubRepaired.Add(repaired)
	c.metrics.scrubUnrepairable.Add(unrepairable)
}

// NoteIntentSkips records stripes a scrub pass left unexamined because
// their intent records were open (in-flight RMWs, not corruption).
func (c *Client) NoteIntentSkips(n int64) {
	c.metrics.intentSkips.Add(n)
}

// NoteReplay records the outcome of one intent-replay pass in the client's
// counters (called by internal/recovery, which the client cannot import).
func (c *Client) NoteReplay(replayed, abandoned int64) {
	c.metrics.intentsReplayed.Add(replayed)
	c.metrics.intentsAbandoned.Add(abandoned)
}

// NoteResync records dirty-log items replayed by an online resync pass
// (called by internal/recovery, which the client cannot import).
func (c *Client) NoteResync(items int64) {
	c.metrics.resyncedUnits.Add(items)
}

// NoteFullRebuildFallback records a resync that found its dirty log
// untrustworthy and fell back to a full rebuild.
func (c *Client) NoteFullRebuildFallback() {
	c.metrics.fullRebuildFallbacks.Add(1)
}

// NoteRelayout records bytes a migration pass re-encoded into a shadow
// layout (called by internal/recovery, which the client cannot import).
func (c *Client) NoteRelayout(bytes int64) {
	c.metrics.relayoutBytes.Add(bytes)
}

// NoteMigration records one committed scheme migration.
func (c *Client) NoteMigration() {
	c.metrics.migrations.Add(1)
}
