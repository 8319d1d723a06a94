package csar

import (
	"context"
	"errors"

	"csar/internal/client"
	"csar/internal/obs"
	"csar/internal/recovery"
	"csar/internal/scrub"
	"csar/internal/wire"
)

// ErrDegradedWrite is returned when writing a Raid0 file while a server is
// marked down; the redundant schemes accept degraded writes, carrying the
// failed server's share in the mirror, parity, or overflow mirror until
// Rebuild.
var ErrDegradedWrite = client.ErrDegradedWrite

// ErrNoRedundancy is returned when recovering or degraded-reading a Raid0
// file: stock striping stores nothing to recover from.
var ErrNoRedundancy = client.ErrNoRedundancy

// Client is one mount of a CSAR file system: a connection to the manager
// plus direct connections to every I/O server.
type Client struct {
	inner *client.Client
}

// Create makes a new file.
func (c *Client) Create(name string, opts FileOptions) (*File, error) {
	if opts.Servers == 0 {
		opts.Servers = c.inner.NumServers()
	}
	if opts.StripeUnit == 0 {
		opts.StripeUnit = DefaultStripeUnit
	}
	f, err := c.inner.CreateParity(name, opts.Servers, opts.StripeUnit, opts.Scheme, opts.ParityUnits)
	if err != nil {
		return nil, err
	}
	return &File{inner: f}, nil
}

// Open opens an existing file by name.
func (c *Client) Open(name string) (*File, error) {
	f, err := c.inner.Open(name)
	if err != nil {
		return nil, err
	}
	return &File{inner: f}, nil
}

// Remove deletes a file and all its server-side stores.
func (c *Client) Remove(name string) error { return c.inner.Remove(name) }

// List returns the names of all files.
func (c *Client) List() ([]string, error) { return c.inner.List() }

// MarkDown tells the client server i has failed; subsequent reads use the
// file's redundancy (degraded mode).
func (c *Client) MarkDown(i int) { c.inner.MarkDown(i) }

// MarkUp clears the failure flag for server i (after rebuild).
func (c *Client) MarkUp(i int) { c.inner.MarkUp(i) }

// Rebuild reconstructs failed server dead's stores for the file from the
// survivors, after the cluster has replaced it with a blank server.
func (c *Client) Rebuild(f *File, dead int) error {
	return recovery.Rebuild(c.inner, f.inner, dead)
}

// ResyncOptions tunes an online incremental resync pass.
type ResyncOptions = recovery.ResyncOptions

// ResyncReport describes what a resync pass replayed (or, dry, would
// replay).
type ResyncReport = recovery.ResyncReport

// ErrResyncAborted is returned when a resync pass could not finish; the
// dirty log is left intact and re-running Resync will converge.
var ErrResyncAborted = recovery.ErrResyncAborted

// Resync brings a returning server back up to date for the file by
// replaying only the regions degraded writes damaged while it was out
// (recorded in the dirty-region log on its neighbours), falling back to a
// full Rebuild when the log cannot be trusted. It runs online — foreground
// writes through this client are coordinated with the replay — and, unlike
// Rebuild, targets a server that came back with its pre-outage stores
// intact. Call MarkUp once it returns nil.
func (c *Client) Resync(f *File, dead int, opts ResyncOptions) (ResyncReport, error) {
	return recovery.Resync(c.inner, f.inner, dead, opts)
}

// MigrateOptions tunes an online scheme migration (its rate limit).
type MigrateOptions = recovery.MigrateOptions

// MigrateReport describes a completed migration: schemes, the file's new
// ID, and the logical bytes re-encoded.
type MigrateReport = recovery.MigrateReport

// ErrMigrationAborted is returned when a migration pass could not finish.
// The target stays pinned at the manager: re-running Migrate with the same
// target resumes it, and AbortMigration discards it.
var ErrMigrationAborted = recovery.ErrMigrationAborted

// Migrate transitions a live file to a different redundancy scheme online
// ("re-layout under writers"): the manager pins a shadow layout, the
// file's bytes are re-encoded into it in rate-limited chunks while reads
// and writes through this client continue, and a single replicated
// metadata operation cuts the file over. parity is the RS(k, m)
// parity-unit count (0 = manager default); non-RS targets take 0. After a
// successful return f operates on the new layout; other clients must
// reopen the file. Interrupted migrations resume on re-run and survive
// manager failover.
func (c *Client) Migrate(f *File, scheme Scheme, parity int, opts MigrateOptions) (MigrateReport, error) {
	return recovery.Migrate(c.inner, f.inner, scheme, parity, opts)
}

// AbortMigration discards the migration target pinned for file name, if
// any, along with the partial shadow stores.
func (c *Client) AbortMigration(name string) error {
	return recovery.AbortMigration(c.inner, name)
}

// DirtyServers returns the servers with outstanding dirty-region logs for
// the file — those that missed degraded writes and need Resync (or Rebuild)
// before re-admission. The answer comes from the surviving servers' logs,
// not client memory, so it works from a freshly started process.
func (c *Client) DirtyServers(f *File) []int {
	return recovery.DirtyServers(c.inner, f.inner)
}

// ServerHealthy reports whether server idx currently answers a liveness
// probe, bypassing the client's circuit breaker: the recovery orchestrator
// uses it to notice a returned-but-stale server that normal traffic is
// routing around.
func (c *Client) ServerHealthy(idx int) bool {
	if idx < 0 || idx >= c.inner.NumServers() {
		return false
	}
	_, err := c.inner.ServerCaller(idx).Call(&wire.Health{})
	return err == nil
}

// Verify checks the file's redundancy invariants (mirror equality, parity
// correctness, overflow-mirror agreement) and returns a description of
// each violation. An empty result means the file is consistent.
func (c *Client) Verify(f *File) ([]string, error) {
	return recovery.Verify(c.inner, f.inner)
}

// ErrStripeTorn is returned by writes to a fail-stopped stripe: one whose
// earlier read-modify-write died mid-flight (session expiry, dirty unlock, or
// a crash-restarted parity server), leaving data and parity possibly
// inconsistent. The stripe refuses further RMWs until ReplayIntents
// reconciles it.
var ErrStripeTorn = wire.ErrStripeTorn

// ErrLeaseExpired is returned when a parity-lock operation arrives after
// the server already expired the caller's session, revoking its locks.
var ErrLeaseExpired = wire.ErrLeaseExpired

// ReplayReport summarizes one intent-replay pass over a file.
type ReplayReport = recovery.ReplayReport

// ReplayIntents runs crash-restart recovery for the file: every abandoned
// stripe intent (an RMW that died between its data writes and its unlocking
// parity write) has its parity reconstructed from the stripe's data units
// and is retired, re-admitting the stripe for writes. Run it after a parity
// server restart or whenever writes fail with ErrStripeTorn.
func (c *Client) ReplayIntents(f *File) (*ReplayReport, error) {
	return recovery.ReplayIntents(c.inner, f.inner)
}

// ScrubReport is the outcome of one integrity-scrub pass: per-redundancy-
// kind counts of items checked, mismatched, repaired, and unrepairable,
// plus a note on every mismatch found.
type ScrubReport = scrub.Report

// ScrubJournal carries last-known-good checksums between scrub passes of
// the same file, letting a later pass identify which copy of a diverged
// pair is the corrupt one. Keep one journal per file for as long as the
// process lives.
type ScrubJournal = scrub.Journal

// NewScrubJournal returns an empty scrub journal.
func NewScrubJournal() *ScrubJournal { return scrub.NewJournal() }

// ScrubOptions tunes one scrub pass.
type ScrubOptions struct {
	// RateLimit caps scrub I/O in store bytes per second (simulated time
	// when the cluster is timed); <= 0 means unlimited.
	RateLimit float64
	// RepairData permits repairs that overwrite the primary data copy when
	// the journal evidence says the data, not the redundancy, is corrupt.
	// Off by default; such finds are reported as unrepairable instead.
	RepairData bool
	// Journal enables evidence-based repair decisions across passes.
	Journal *ScrubJournal
	// Cancel, when closed, stops the pass at the next batch boundary; Scrub
	// then returns its partial report with ErrScrubCanceled.
	Cancel <-chan struct{}
}

// ErrScrubCanceled is returned by Scrub when ScrubOptions.Cancel fires
// mid-pass; the returned report covers what was scrubbed before the stop.
var ErrScrubCanceled = scrub.ErrCanceled

// Scrub runs one online integrity pass over the file: it cross-checks
// every redundant copy (mirror, parity, overflow mirror) against the data
// by checksum, re-reads only what disagrees, and repairs the losing copy in
// place. It is safe to run while the file is being written.
func (c *Client) Scrub(f *File, opts ScrubOptions) (*ScrubReport, error) {
	return scrub.Run(c.inner, f.inner, scrub.Options{
		RateLimit:  opts.RateLimit,
		RepairData: opts.RepairData,
		Journal:    opts.Journal,
		Cancel:     opts.Cancel,
	})
}

// DropServerCaches empties every server's page cache.
func (c *Client) DropServerCaches() error { return c.inner.DropServerCaches() }

// StorageTotals reports each server's total stored bytes (du-style, across
// all files) — what `csar df` prints.
func (c *Client) StorageTotals() ([]int64, error) { return c.inner.StorageTotals() }

// Metrics is a snapshot of a client's operation counters: how its I/O was
// translated by the redundancy engine (full-stripe vs read-modify-write vs
// overflow portions), bytes moved, and degraded-mode activity.
type Metrics = client.Metrics

// Metrics returns the client's operation counters.
func (c *Client) Metrics() Metrics { return c.inner.Metrics() }

// Stats is a snapshot of an observability registry: named counters, gauges,
// and latency histograms with count/sum/max and quantile estimation.
type Stats = obs.Snapshot

// KV is one named counter or gauge value inside a Stats snapshot.
type KV = obs.KV

// ServerStats is one I/O server's observability dump, fetched over the
// Stats RPC: request totals, counters (bytes in/out, errors, slow ops),
// gauges (locks held, live intents, dirty-log entries), and per-RPC-kind
// latency histograms. Requests < 0 marks a server that did not answer.
type ServerStats = wire.StatsResp

// Stats snapshots this client's latency histograms and counters: per-op
// latencies (op_read, op_write and its per-path splits), per-RPC-kind
// latencies, parity-lock wait, and pass timings.
func (c *Client) Stats() Stats { return c.inner.Stats() }

// ServerStats collects every I/O server's observability snapshot over the
// Stats RPC. Unreachable servers yield a marker entry (Requests < 0)
// rather than an error, so a degraded cluster can still be inspected.
func (c *Client) ServerStats() []ServerStats { return c.inner.ServerStats() }

// ErrNotPrimary is returned by namespace mutations sent to a standby
// manager; the client's failover normally absorbs it by routing to the
// primary.
var ErrNotPrimary = wire.ErrNotPrimary

// ErrStaleEpoch is returned by a manager that has been deposed — a newer
// primary epoch exists — fencing it off exactly like an expired parity
// lease fences a stale writer. Re-issuing the operation routes it to the
// new primary.
var ErrStaleEpoch = wire.ErrStaleEpoch

// ManagerStatus is one manager's role report: its cluster index, primary
// epoch, whether it currently believes it is primary, the last operation
// sequence number it holds, and its namespace/WAL sizes. Files < 0 marks a
// manager that did not answer the probe.
type ManagerStatus = wire.MetaStatusResp

// ManagerStatuses probes every manager in the group and returns their
// status reports in group order; unreachable managers get a marker entry
// (Files < 0) rather than failing the collection.
func (c *Client) ManagerStatuses() []ManagerStatus { return c.inner.ManagerStatuses() }

// ManagerStats collects every manager's observability snapshot over the
// Stats RPC, in group order; unreachable managers get a marker entry
// (Requests < 0). The manager's snapshot carries its WAL, replication and
// failover counters plus per-RPC-kind latency histograms.
func (c *Client) ManagerStats() []ServerStats { return c.inner.ManagerStats() }

// CurrentManager returns the index (into the dialed manager group) that
// metadata RPCs currently route to.
func (c *Client) CurrentManager() int { return c.inner.CurrentManager() }

// StatsOfServer converts one server's Stats reply into a Stats snapshot so
// it can be merged and rendered with the same code as client snapshots.
func StatsOfServer(sr ServerStats) Stats { return client.SnapOfStatsResp(sr) }

// MergeStats sums same-name counters, gauges, and histograms across
// snapshots — e.g. one Stats view over several clients or servers.
func MergeStats(snaps ...Stats) Stats { return obs.Merge(snaps...) }

// Close retires the write intents of the client's completed
// read-modify-writes, then releases its network connections (every I/O
// server plus the manager). Programs that Dial in a loop must Close each
// client or leak descriptors.
func (c *Client) Close() error { return c.inner.Close() }

// File is an open CSAR file. Reads and writes may be issued concurrently;
// as in PVFS, concurrent writers to non-overlapping regions are consistent
// while overlapping concurrent writes carry no guarantees.
type File struct {
	inner *client.File
}

// WriteAt writes len(p) bytes at offset off, maintaining the file's
// redundancy. It implements io.WriterAt.
func (f *File) WriteAt(p []byte, off int64) (int, error) { return f.inner.WriteAt(p, off) }

// ReadAt reads len(p) bytes at offset off; bytes never written read as
// zero. It implements io.ReaderAt and serves degraded reads when a server
// is marked down.
func (f *File) ReadAt(p []byte, off int64) (int, error) { return f.inner.ReadAt(p, off) }

// Size returns the file's logical size as known to this client.
func (f *File) Size() int64 { return f.inner.Size() }

// Scheme returns the file's redundancy scheme.
func (f *File) Scheme() Scheme { return f.inner.Scheme() }

// Sync retires the write intents of the client's completed
// read-modify-writes, flushes the file's server-side stores and publishes
// its size to the manager.
func (f *File) Sync() error { return f.inner.Sync() }

// Compact migrates a Hybrid file's overflow-resident data back to RAID5
// and reclaims the overflow storage (the paper's Section 6.7 background
// recovery process). With it, "the long-term storage of the Hybrid scheme
// would be the same as the RAID5 scheme". No-op for other schemes.
func (f *File) Compact() error { return f.inner.Compact() }

// StorageBytes reports the bytes this file occupies across all servers:
// the total and the breakdown by store (data, mirror, parity, overflow,
// overflow mirror) — the measurement behind Table 2 of the paper.
func (f *File) StorageBytes() (total int64, byStore [5]int64, err error) {
	return f.inner.StorageBytes()
}

// Internal returns the underlying client file; the workload and benchmark
// harnesses in this repository use it, applications should not.
func (f *File) Internal() *client.File { return f.inner }

// InternalClient returns the underlying client; harness use only.
func (c *Client) InternalClient() *client.Client { return c.inner }

// IsServerDown reports whether err indicates an unavailable server — one
// that is stopped, unreachable, timing out, or held out by the client's
// circuit breaker. It is the one test: the wire carries only an error's
// class, so no sentinel error value survives the trip from a server.
func IsServerDown(err error) bool {
	return errors.Is(err, wire.ErrUnavailable) ||
		errors.Is(err, context.DeadlineExceeded)
}

// Policy tunes the client's RPC resilience layer: per-call deadlines,
// retry/backoff for idempotent calls, and the per-server circuit breaker.
// The zero Policy disables the layer entirely.
type Policy = client.Policy

// DefaultPolicy is the resilience configuration Dial applies by default.
func DefaultPolicy() Policy { return client.DefaultPolicy() }

// SetResilience installs a resilience policy on the client; call before
// issuing I/O.
func (c *Client) SetResilience(p Policy) { c.inner.SetPolicy(p) }

// BreakerState is one server's circuit-breaker state.
type BreakerState = client.BreakerState

// Breaker states.
const (
	BreakerClosed  = client.BreakerClosed
	BreakerOpen    = client.BreakerOpen
	BreakerProbing = client.BreakerProbing
)

// BreakerStates returns every server's current circuit-breaker state.
func (c *Client) BreakerStates() []BreakerState { return c.inner.BreakerStates() }

// FailedServer extracts the server index from an unavailability error
// returned by a file operation; ok is false for errors that do not
// attribute a failure to one server.
func FailedServer(err error) (idx int, ok bool) { return client.FailedServer(err) }
