// Command csar-mgr runs the CSAR metadata manager: the process that owns
// file names, layouts and sizes, and tells clients where the I/O servers
// are. It is never on the data path.
//
// A three-server deployment on one machine:
//
//	csar-iod -listen :7101 -index 0 &
//	csar-iod -listen :7102 -index 1 &
//	csar-iod -listen :7103 -index 2 &
//	csar-mgr -listen :7100 -iods localhost:7101,localhost:7102,localhost:7103
//
// Clients reach it with csar.Dial("localhost:7100") or the csar CLI.
//
// Metadata high availability: run several managers and give each the full
// group with -mgrs (index order, self included) plus its own -mgr-index.
// Manager 0 starts as the primary, the rest as replicating standbys
// (-standby overrides). Give clients the whole group: csar.Dial accepts
// the same comma-separated list. -promote-after enables automatic
// failover: a standby that sees every lower-index manager unreachable for
// that long promotes itself at a fresh epoch, fencing the old primary.
// See DESIGN.md §11 for the promotion rule and its split-brain caveat.
//
//	csar-mgr -listen :7100 -meta m0/meta.json -mgrs localhost:7100,localhost:7200 -mgr-index 0 -iods ... &
//	csar-mgr -listen :7200 -meta m1/meta.json -mgrs localhost:7100,localhost:7200 -mgr-index 1 -promote-after 5s -iods ... &
//
// Observability: -debug-addr starts an HTTP listener serving Prometheus
// /metrics, /debug/pprof/*, and a JSON /statusz. It is off by default and
// unauthenticated — bind it to localhost (see DESIGN.md, "Observability").
package main

import (
	"flag"
	"fmt"
	"log"
	"net"
	"strings"
	"time"

	"csar"
	"csar/internal/meta"
	"csar/internal/obs"
	"csar/internal/rpc"
	"csar/internal/wire"
)

func main() {
	var (
		listen          = flag.String("listen", ":7100", "address to listen on")
		iods            = flag.String("iods", "", "comma-separated I/O server addresses, in index order")
		metaDB          = flag.String("meta", "", "metadata snapshot file for durable metadata; the write-ahead log lives beside it at <path>.wal (default: in-memory)")
		mgrs            = flag.String("mgrs", "", "comma-separated manager group addresses in index order, self included (default: this manager alone)")
		mgrIndex        = flag.Int("mgr-index", 0, "this manager's index within -mgrs")
		standby         = flag.Bool("standby", false, "start as a replicating standby (default: true for -mgr-index > 0)")
		promoteAfter    = flag.Duration("promote-after", 0, "promote this standby after every lower-index manager has been unreachable this long (0 = manual promotion only)")
		debugAddr       = flag.String("debug-addr", "", "serve /metrics, /statusz and /debug/pprof on this address (default: off; unauthenticated — bind to localhost)")
		scrubEvery      = flag.Duration("scrub-every", 0, "period of the background integrity scrub over all files (0 = disabled)")
		scrubRate       = flag.Float64("scrub-rate", 0, "scrub I/O rate limit in bytes/sec per pass (0 = unlimited)")
		scrubRepairData = flag.Bool("scrub-repair-data", false, "let the background scrub overwrite primary data when evidence says it is the corrupt copy")
		resyncEvery     = flag.Duration("resync-every", 0, "period of the recovery loop that resyncs returned-but-stale servers (0 = disabled)")
		resyncRate      = flag.Float64("resync-rate", 0, "resync replay I/O rate limit in bytes/sec (0 = unlimited)")
		resyncDry       = flag.Bool("resync-dry-run", false, "recovery loop only reports what it would resync, without writing or re-admitting")
		migratePolicy   = flag.String("migrate-policy", "off", "scheme-migration policy for hybrid files whose mirrored overflow dominates their storage: off, recommend (log only), or auto (re-layout them online onto -migrate-to)")
		migrateEvery    = flag.Duration("migrate-every", 0, "period of the migration-policy loop (0 = disabled)")
		migrateTo       = flag.String("migrate-to", "raid1", "target scheme for -migrate-policy auto")
		migrateFrac     = flag.Float64("migrate-overflow-frac", 0.5, "overflow fraction of a hybrid file's storage above which the policy acts")
		migrateRate     = flag.Float64("migrate-rate", 0, "migration copy I/O rate limit in bytes/sec (0 = unlimited)")

		def         = csar.DefaultPolicy()
		callTimeout = flag.Duration("call-timeout", def.CallTimeout, "per-RPC deadline for the scrub client (0 = none)")
		retries     = flag.Int("retries", def.Retries, "retry attempts for the scrub client's idempotent RPCs")
		backoff     = flag.Duration("retry-backoff", def.BackoffBase, "base retry backoff for the scrub client, doubled per attempt")
		breakerAt   = flag.Int("breaker-failures", def.BreakerThreshold, "consecutive failures that open a server's circuit breaker (0 = breaker off)")
		probeAfter  = flag.Duration("probe-after", def.ProbeAfter, "how long an open breaker waits before probing the server")
		lockLease   = flag.Duration("lock-lease", def.LockLease, "parity-lock lease the scrub client requests; expiry fail-stops the stripe (0 = no lease)")
		leaseRenew  = flag.Duration("lease-renew-every", def.LeaseRenewEvery, "parity-lock heartbeat period (0 = lease/3, negative = heartbeat off)")
	)
	flag.Parse()

	addrs := strings.Split(*iods, ",")
	if *iods == "" || len(addrs) == 0 {
		log.Fatal("csar-mgr: -iods is required (comma-separated addresses, index order)")
	}
	for i, a := range addrs {
		addrs[i] = strings.TrimSpace(a)
		if addrs[i] == "" {
			log.Fatalf("csar-mgr: empty address at position %d", i)
		}
	}

	var m *meta.Manager
	var err error
	if *metaDB != "" {
		m, err = meta.NewPersistent(len(addrs), addrs, *metaDB)
		if err != nil {
			log.Fatalf("csar-mgr: %v", err)
		}
		fmt.Printf("csar-mgr: durable metadata in %s\n", *metaDB)
	} else {
		m = meta.New(len(addrs), addrs)
	}
	// Join the replicated manager group, if one is configured. Peers are
	// lazy redialing connections, so the group comes up in any order.
	var peers []meta.Caller
	if *mgrs != "" {
		var mgrAddrs []string
		for _, a := range strings.Split(*mgrs, ",") {
			if a = strings.TrimSpace(a); a != "" {
				mgrAddrs = append(mgrAddrs, a)
			}
		}
		if *mgrIndex < 0 || *mgrIndex >= len(mgrAddrs) {
			log.Fatalf("csar-mgr: -mgr-index %d out of range for %d managers", *mgrIndex, len(mgrAddrs))
		}
		peers = make([]meta.Caller, len(mgrAddrs))
		for i, a := range mgrAddrs {
			if i != *mgrIndex {
				peers[i] = meta.NewTCPPeer(a, 2*time.Second)
			}
		}
		isStandby := *standby || (*mgrIndex != 0 && !flagPassed("standby"))
		m.SetCluster(*mgrIndex, peers, isStandby)
		role := "primary"
		if isStandby {
			role = "standby"
		}
		fmt.Printf("csar-mgr: manager %d of %d, starting as %s\n", *mgrIndex, len(mgrAddrs), role)
	}

	ln, err := net.Listen("tcp", *listen)
	if err != nil {
		log.Fatalf("csar-mgr: %v", err)
	}
	fmt.Printf("csar-mgr: serving metadata on %s for %d I/O servers\n", ln.Addr(), len(addrs))

	// The manager counts its own requests and serves the Stats RPC; the
	// debug endpoint exposes the same registry.
	handle := m.Handle
	if *debugAddr != "" {
		startedAt := time.Now()
		closer, err := obs.ServeDebug(*debugAddr, m.Obs(), func() map[string]any {
			return map[string]any{
				"iods":           len(addrs),
				"uptime_seconds": int64(time.Since(startedAt).Seconds()),
			}
		})
		if err != nil {
			log.Fatalf("csar-mgr: debug listener: %v", err)
		}
		defer closer.Close() //nolint:errcheck
		fmt.Printf("csar-mgr: debug endpoints on http://%s/metrics\n", *debugAddr)
	}

	pol := def
	pol.CallTimeout = *callTimeout
	pol.Retries = *retries
	pol.BackoffBase = *backoff
	pol.BreakerThreshold = *breakerAt
	pol.ProbeAfter = *probeAfter
	pol.LockLease = *lockLease
	pol.LeaseRenewEvery = *leaseRenew
	if *promoteAfter > 0 && peers != nil {
		fmt.Printf("csar-mgr: automatic promotion after %v of lower-index unreachability\n", *promoteAfter)
		go promotionLoop(m, peers, *mgrIndex, *promoteAfter)
	}
	if *scrubEvery > 0 {
		fmt.Printf("csar-mgr: background scrub every %v\n", *scrubEvery)
		go func() {
			journals := make(map[string]*csar.ScrubJournal)
			for range time.Tick(*scrubEvery) {
				scrubPass(ln.Addr().String(), journals, *scrubRate, *scrubRepairData, pol)
			}
		}()
	}
	if *resyncEvery > 0 {
		fmt.Printf("csar-mgr: recovery loop every %v\n", *resyncEvery)
		go func() {
			for range time.Tick(*resyncEvery) {
				resyncPass(ln.Addr().String(), *resyncRate, *resyncDry, pol)
			}
		}()
	}
	if *migratePolicy != "off" {
		if *migratePolicy != "recommend" && *migratePolicy != "auto" {
			log.Fatalf("csar-mgr: -migrate-policy must be off, recommend or auto, not %q", *migratePolicy)
		}
		target, err := csar.ParseScheme(*migrateTo)
		if err != nil {
			log.Fatalf("csar-mgr: -migrate-to: %v", err)
		}
		if *migrateEvery <= 0 {
			log.Fatalf("csar-mgr: -migrate-policy %s needs -migrate-every > 0", *migratePolicy)
		}
		fmt.Printf("csar-mgr: migration policy %s (overflow > %.0f%% -> %v) every %v\n",
			*migratePolicy, *migrateFrac*100, target, *migrateEvery)
		go func() {
			for range time.Tick(*migrateEvery) {
				migratePass(ln.Addr().String(), *migratePolicy == "auto", target, *migrateFrac, *migrateRate, pol)
			}
		}()
	}
	for {
		conn, err := ln.Accept()
		if err != nil {
			log.Fatalf("csar-mgr: accept: %v", err)
		}
		go rpc.ServeConn(conn, handle, nil, nil) //nolint:errcheck
	}
}

// flagPassed reports whether the named flag was given explicitly on the
// command line (as opposed to holding its default).
func flagPassed(name string) bool {
	passed := false
	flag.Visit(func(f *flag.Flag) {
		if f.Name == name {
			passed = true
		}
	})
	return passed
}

// promotionLoop is the automatic failover policy: while this manager is a
// standby and every lower-index manager has been continuously unreachable
// for the promote-after window, it promotes itself via the deterministic
// rule (TryPromote re-probes, so a peer that returns at the last moment
// still wins). A single observation of an unreachable primary never
// promotes — transient blips must not bump the epoch and fence a healthy
// primary.
func promotionLoop(m *meta.Manager, peers []meta.Caller, idx int, after time.Duration) {
	tick := after / 4
	if tick < 250*time.Millisecond {
		tick = 250 * time.Millisecond
	}
	var downSince time.Time
	for range time.Tick(tick) {
		st, err := m.Handle(&wire.MetaStatus{})
		if err != nil {
			continue
		}
		if sr, ok := st.(*wire.MetaStatusResp); ok && sr.Primary {
			downSince = time.Time{}
			continue
		}
		lowerAlive := false
		for i, p := range peers {
			if i >= idx {
				break
			}
			if p == nil {
				continue
			}
			if _, err := p.Call(&wire.MetaStatus{}); err == nil {
				lowerAlive = true
				break
			}
		}
		if lowerAlive {
			downSince = time.Time{}
			continue
		}
		if downSince.IsZero() {
			downSince = time.Now()
			continue
		}
		if time.Since(downSince) < after {
			continue
		}
		won, err := m.TryPromote()
		switch {
		case err != nil:
			log.Printf("csar-mgr: promotion attempt failed: %v", err)
		case won:
			log.Printf("csar-mgr: promoted to primary (every lower-index manager unreachable for %v)", after)
			downSince = time.Time{}
		}
	}
}

// eachFile is one tick of a background loop: through a short-lived client of
// this very deployment it opens every file and hands it to fn; what names the
// loop in the log. A file that cannot be opened is logged and skipped. It
// returns the names listed, and false when the tick could not list them. The
// client is closed on every return path: the loops used to leak one set of
// server connections per tick, which on a long-lived manager exhausts
// descriptors.
func eachFile(addr string, pol csar.Policy, what string, fn func(cl *csar.Client, name string, f *csar.File)) ([]string, bool) {
	cl, err := csar.Dial(addr)
	if err != nil {
		log.Printf("csar-mgr: %s: dial: %v", what, err)
		return nil, false
	}
	defer cl.Close() //nolint:errcheck
	cl.SetResilience(pol)
	names, err := cl.List()
	if err != nil {
		log.Printf("csar-mgr: %s: list: %v", what, err)
		return nil, false
	}
	for _, name := range names {
		f, err := cl.Open(name)
		if err != nil {
			log.Printf("csar-mgr: %s %s: %v", what, name, err)
			continue
		}
		fn(cl, name, f)
	}
	return names, true
}

// scrubPass runs one background scrub over every file, keeping one checksum
// journal per file so repeated passes can attribute corruption to the right
// copy.
func scrubPass(addr string, journals map[string]*csar.ScrubJournal, rate float64, repairData bool, pol csar.Policy) {
	names, ok := eachFile(addr, pol, "scrub", func(cl *csar.Client, name string, f *csar.File) {
		j := journals[name]
		if j == nil {
			j = csar.NewScrubJournal()
			journals[name] = j
		}
		// Replay abandoned stripe intents first: a stripe fail-stopped
		// by a crashed writer would otherwise be skipped by the scrub
		// (it must not "repair" parity that replay still needs).
		if rr, err := cl.ReplayIntents(f); err != nil {
			log.Printf("csar-mgr: replay %s: %v", name, err)
		} else if rr.Replayed > 0 || len(rr.Problems) > 0 {
			log.Printf("csar-mgr: replay %s: %d stripes reconciled, %d deferred %v",
				name, rr.Replayed, rr.Skipped, rr.Problems)
		}
		rep, err := cl.Scrub(f, csar.ScrubOptions{
			RateLimit: rate, RepairData: repairData, Journal: j,
		})
		if err != nil {
			log.Printf("csar-mgr: scrub %s: %v", name, err)
			return
		}
		if !rep.Clean() {
			log.Printf("csar-mgr: scrub %s: %v", name, rep)
			for _, p := range rep.Problems {
				log.Printf("csar-mgr: scrub %s: %s", name, p)
			}
		}
	})
	if !ok {
		return
	}
	live := make(map[string]bool, len(names))
	for _, name := range names {
		live[name] = true
	}
	for name := range journals {
		if !live[name] {
			delete(journals, name)
		}
	}
}

// migratePass is one tick of the scheme-migration policy: a Hybrid file
// whose storage is dominated by the mirrored overflow region is taking
// mirroring's 2x space cost on most of its bytes — the workload is small
// unaligned writes, which plain mirroring serves at half the storage
// bookkeeping — so the policy recommends (or, in auto mode, performs) an
// online re-layout onto the configured target scheme. Migration runs under
// live writers; an aborted pass leaves its pinned shadow layout for the
// next tick to resume.
func migratePass(addr string, auto bool, target csar.Scheme, frac, rate float64, pol csar.Policy) {
	eachFile(addr, pol, "migrate", func(cl *csar.Client, name string, f *csar.File) {
		if f.Scheme() != csar.Hybrid || f.Scheme() == target {
			return
		}
		total, by, err := f.StorageBytes()
		if err != nil || total == 0 {
			return
		}
		overflow := float64(by[3]+by[4]) / float64(total)
		if overflow < frac {
			return
		}
		if !auto {
			log.Printf("csar-mgr: migrate %s: %.0f%% of %d storage bytes is overflow; would re-layout to %v",
				name, overflow*100, total, target)
			return
		}
		rep, err := cl.Migrate(f, target, 0, csar.MigrateOptions{RateLimit: rate})
		if err != nil {
			// An aborted pass leaves the shadow layout pinned; the next
			// tick resumes it.
			log.Printf("csar-mgr: migrate %s: %v", name, err)
			return
		}
		log.Printf("csar-mgr: migrate %s: %v -> %v, %d bytes re-encoded (file id %d)",
			name, rep.From, rep.To, rep.BytesCopied, rep.NewID)
	})
}

// resyncPass is one tick of the automatic re-admission path: it asks the
// surviving servers which peers hold un-replayed degraded writes (the
// dirty-region logs), health-probes those peers, and resyncs each one that
// has come back — replaying only the damaged regions, or falling back to a
// full rebuild when the log cannot be trusted — then re-admits it.
func resyncPass(addr string, rate float64, dry bool, pol csar.Policy) {
	eachFile(addr, pol, "resync", func(cl *csar.Client, name string, f *csar.File) {
		for _, dead := range cl.DirtyServers(f) {
			if !cl.ServerHealthy(dead) {
				continue // still out; leave the dirty log growing
			}
			if dry {
				rep, err := cl.Resync(f, dead, csar.ResyncOptions{RateLimit: rate, DryRun: true})
				if err != nil {
					log.Printf("csar-mgr: resync %s server %d (dry): %v", name, dead, err)
					continue
				}
				log.Printf("csar-mgr: resync %s server %d (dry): would replay %d units, %d mirrors, %d stripes (full rebuild: %v)",
					name, dead, rep.Units, rep.Mirrors, rep.Stripes, rep.FullRebuild)
				continue
			}
			// Plan around the stale server while we replay: its data
			// is out of date until the resync finishes.
			cl.MarkDown(dead)
			rep, err := cl.Resync(f, dead, csar.ResyncOptions{RateLimit: rate})
			if err != nil {
				// ErrResyncAborted leaves the dirty log intact; the
				// next tick re-runs and converges.
				log.Printf("csar-mgr: resync %s server %d: %v", name, dead, err)
				continue
			}
			cl.MarkUp(dead)
			if rep.FullRebuild {
				log.Printf("csar-mgr: resync %s server %d: dirty log untrusted, full rebuild done; re-admitted",
					name, dead)
				continue
			}
			log.Printf("csar-mgr: resync %s server %d: %d units, %d mirrors, %d stripes, %d overflow bytes in %d rounds; re-admitted",
				name, dead, rep.Units, rep.Mirrors, rep.Stripes, rep.OverflowBytes, rep.Rounds)
		}
	})
}
