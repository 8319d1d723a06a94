package recovery

import (
	"errors"
	"fmt"
	"math"
	"sync/atomic"
	"time"

	"csar/internal/client"
	"csar/internal/wire"
)

// This file implements online scheme migration ("re-layout under
// writers"): transitioning a live file between redundancy schemes —
// RAID1 ↔ Hybrid ↔ RAID5 ↔ RS(k, m) — without stopping foreground I/O.
// The layouts cannot share physical stores (stripe and parity numbering
// differ across schemes), so the manager pins a shadow layout under a
// fresh file ID, this engine copies the logical bytes across in
// rate-limited chunks, and a single metadata operation cuts the file over.
// Foreground writes are coordinated through a background pass's cursor
// (see internal/client/pass.go): behind it they are dual-written to both
// layouts, ahead of it they go to the live layout only and the copy picks
// them up when it arrives. Each chunk copy — read live, write shadow,
// advance cursor — is one exclusive section of the pass: there is no dirty
// log to absorb a write that slipped in between copy and advance.
//
// The whole procedure is abort-safe and re-runnable: the pin survives at
// the manager (WAL-logged and replicated, so a failover resumes it), a
// failed pass leaves nothing the next pass cannot overwrite, and commit
// and abort are fenced by the shadow ID.

// ErrMigrationAborted is returned when a migration pass could not finish.
// The shadow layout stays pinned at the manager: re-running Migrate with
// the same target resumes it, and AbortMigration discards it.
var ErrMigrationAborted = errors.New("recovery: migration aborted; shadow layout left pinned")

// MigrateOptions tunes an online scheme migration.
type MigrateOptions struct {
	// RateLimit throttles copy I/O to this many logical bytes per
	// simulated second; 0 means unthrottled. When the client has no
	// simulated clock, the limit is enforced in wall time.
	RateLimit float64
}

// chunkStripes is how many target-layout stripes one exclusive section
// copies — the granularity at which foreground I/O interleaves with the copy.
const chunkStripes = 16

// MigrateReport describes one completed migration.
type MigrateReport struct {
	From, To    wire.Scheme
	NewID       uint64 // the file's ID after the cutover
	BytesCopied int64  // logical bytes re-encoded by the copy passes
	CleanupErrs int    // old-layout stores that could not be removed
}

// Migrate transitions file f to the target scheme online. It pins a
// shadow layout at the manager (resuming a matching pin left by an
// earlier interrupted pass), re-encodes the file's bytes into it while
// foreground writes through c continue, commits the cutover, swaps f's
// layout in place, and removes the old layout's stores. parity is the
// RS(k, m) parity-unit count (0 = the manager's default); non-RS targets
// take 0. On success f reads and writes the new layout; other clients'
// open handles keep the old one (the same single-coordinator assumption
// as Rebuild and Resync) and must reopen.
func Migrate(c *client.Client, f *client.File, scheme wire.Scheme, parity int, opts MigrateOptions) (MigrateReport, error) {
	ref := f.Ref()
	var report MigrateReport
	report.From = ref.Scheme
	report.To = scheme
	defer c.ObserveSince("relayout_pass", time.Now())

	sr, err := c.PinScheme(ref.ID, scheme, uint8(parity))
	if err != nil {
		// Nothing was pinned, so this is not ErrMigrationAborted: there is
		// no shadow layout to resume or abort.
		return report, fmt.Errorf("recovery: pinning target scheme: %w", err)
	}
	report.NewID = sr.New.ID
	// Gate-exempt handles for use under the exclusive gate: the shadow
	// target and a second view of the live layout (the caller's f stays
	// gated, as every foreground writer's handle must).
	dst, err := c.FileForRelayout(sr.New, 0)
	if err != nil {
		return report, fmt.Errorf("%w: shadow layout: %v", ErrMigrationAborted, err)
	}
	src, err := c.FileForRelayout(ref, f.Size())
	if err != nil {
		return report, fmt.Errorf("%w: live layout: %v", ErrMigrationAborted, err)
	}

	lim := c.PassLimiter(opts.RateLimit)

	// Chunks are whole target-layout stripes so the shadow writes take the
	// full-stripe path (no read-modify-write against half-copied parity).
	chunk := dst.Geometry().StripeSize() * chunkStripes
	buf := make([]byte, chunk)

	pass, err := c.BeginPass(ref.ID, -1, dst) // -1: a re-layout repairs no server
	if err != nil {
		return report, fmt.Errorf("%w: %v", ErrMigrationAborted, err)
	}
	defer pass.End()

	// Copy forward until the cursor overtakes the (possibly still growing)
	// logical size, then raise it to its terminal value under the gate —
	// after which every foreground write is dual-written and the two
	// layouts can no longer diverge.
	var off int64
	for {
		size := f.Size()
		if off >= size {
			done := false
			pass.Exclusive(func() {
				if f.Size() > off {
					return // grew while we decided; another lap
				}
				pass.Advance(math.MaxInt64)
				done = true
			})
			if done {
				break
			}
			continue
		}
		n := chunk
		if off+n > size {
			n = size - off
		}
		lim.Acquire(n)
		var cerr error
		pass.Exclusive(func() {
			if _, err := src.ReadAt(buf[:n], off); err != nil {
				cerr = err
				return
			}
			if _, err := dst.WriteAt(buf[:n], off); err != nil {
				cerr = err
				return
			}
			pass.Advance(off + n)
		})
		if cerr != nil {
			return report, fmt.Errorf("%w: copy at offset %d: %v", ErrMigrationAborted, off, cerr)
		}
		atomic.AddInt64(&c.Counters().RelayoutBytes, n)
		report.BytesCopied += n
		off += n
	}

	// Cutover, atomic with respect to foreground I/O: the manager swaps
	// the file's ref for the shadow (WAL-logged, replicated, fenced by the
	// shadow ID), and f adopts the new layout before any gated operation
	// can run again.
	var cerr error
	pass.Exclusive(func() {
		if err := c.CommitScheme(ref.ID, sr.New.ID); err != nil {
			cerr = fmt.Errorf("%w: committing cutover: %v", ErrMigrationAborted, err)
			return
		}
		if err := f.AdoptRef(sr.New); err != nil {
			cerr = fmt.Errorf("recovery: adopting committed layout: %w", err)
		}
	})
	if cerr != nil {
		return report, cerr
	}
	atomic.AddInt64(&c.Counters().Migrations, 1)

	// Reclaim the old layout's stores. Best-effort: the cutover is
	// committed, and an unreachable server only leaks orphaned stores on a
	// now-unreferenced ID (reported, not fatal).
	for i := 0; i < int(ref.Servers); i++ {
		if _, err := c.ServerCaller(i).Call(&wire.RemoveFile{File: ref}); err != nil {
			report.CleanupErrs++
		}
	}
	return report, nil
}

// AbortMigration discards the shadow layout pinned for file name, if any,
// and removes whatever stores a partial copy materialized. A no-op when no
// migration is pinned.
func AbortMigration(c *client.Client, name string) error {
	info, err := c.OpenInfo(name)
	if err != nil {
		return err
	}
	if info.Mig.ID == 0 {
		return nil
	}
	if err := c.AbortScheme(info.Ref.ID, info.Mig.ID); err != nil {
		return err
	}
	// The pin is gone; orphaned shadow stores are only garbage. Best-effort.
	for i := 0; i < int(info.Mig.Servers); i++ {
		c.ServerCaller(i).Call(&wire.RemoveFile{File: info.Mig}) //nolint:errcheck
	}
	return nil
}
