package main

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math/rand"

	"csar/internal/wire"
)

// numClients is the number of load-generating goroutines, each with its own
// client. It equals nproc on the box the rates below were frozen on; more
// would measure the Go scheduler, not the file system.
const numClients = 2

const (
	stripeRAID5 = 5 * stripeUnit // 6 servers: 5 data units + 1 parity
	stripeRS42  = 4 * stripeUnit // RS(4,2): 4 data units + 2 parity
	mib         = 1 << 20
)

type opKind uint8

const (
	opWrite opKind = iota
	opRead
	opCreate
)

// op is one pre-generated operation. A write's payload is pool[src:src+n] of
// its client's random payload pool, so replaying a list costs no generation.
type op struct {
	kind opKind
	off  int64
	n    int32
	src  int32
}

// role is what one client goroutine does in a workload.
type role struct {
	kind    opKind
	list    string // op-list name: the same name and seed give the same list in any workload
	opBytes int
	aligned int64 // if non-zero, offsets are multiples of this (whole stripes)
	// rate is the frozen op count per second of -seconds: ops = rate × seconds.
	// It was measured once on the seed commit (2 shared cores) so that the
	// measured window lasts about -seconds there, and never changes: a run is
	// the same work on both sides of any comparison.
	rate int
}

type workload struct {
	name   string
	why    string
	scheme wire.Scheme
	parity int   // RS parity units
	file   int64 // preloaded bytes per file
	roles  [numClients]role
	// shared: client 1 opens client 0's file instead of creating its own, and
	// only client 1's operations are the reported ones.
	shared bool
	// rebuilds, when not 0, makes this the degraded workload: server 2 is
	// stopped and marked down before the window, and after it is replaced by a
	// blank server and rebuilt, this many times.
	rebuilds       int
	persistentMeta bool
}

// primary reports whether client c's operations feed the end-to-end numbers.
func (w *workload) primary(c int) bool { return !w.shared || c == 1 }

func both(r role) [numClients]role { return [numClients]role{r, r} }

// workloads are final: later issues cite them by name.
var workloads = []workload{
	{
		name:   "write_full_raid5",
		why:    "bulk full-stripe RAID5 writes: batch path, XOR parity and every payload copy between WriteAt and storage",
		scheme: wire.Raid5, file: 40 * mib,
		roles: both(role{kind: opWrite, list: "full_raid5", opBytes: 4 * stripeRAID5, aligned: stripeRAID5, rate: 440}),
	},
	{
		name:   "write_full_rs42",
		why:    "the same bulk writes under RS(4,2): the only write workload where gf256 works and RS full stripes go span by span",
		scheme: wire.ReedSolomon, parity: 2, file: 32 * mib,
		roles: both(role{kind: opWrite, list: "full_rs42", opBytes: 4 * stripeRS42, aligned: stripeRS42, rate: 360}),
	},
	{
		name:   "write_small_raid5",
		why:    "16 KiB unaligned RAID5 writes: parity lock, read-modify-write rounds, intent journal and lease; latency-bound",
		scheme: wire.Raid5, file: 32 * mib,
		roles: both(role{kind: opWrite, list: "small16k", opBytes: 16 << 10, rate: 2150}),
	},
	{
		name:   "write_small_hybrid",
		why:    "the same small-write list on Hybrid, the paper's contribution: mirrored overflow, no lock; control for write_small_raid5",
		scheme: wire.Hybrid, file: 32 * mib,
		roles: both(role{kind: opWrite, list: "small16k", opBytes: 16 << 10, rate: 7500}),
	},
	{
		name:   "read_healthy_raid5",
		why:    "1 MiB unaligned reads: the write path's layers in the opposite direction, so a change that helps writes and costs reads shows",
		scheme: wire.Raid5, file: 32 * mib,
		roles: both(role{kind: opRead, list: "read1m", opBytes: mib, rate: 800}),
	},
	{
		name:   "read_degraded_rs42",
		why:    "1 MiB reads of an RS(4,2) file with a server down, then rebuilds: reconstruction and recovery run nowhere else",
		scheme: wire.ReedSolomon, parity: 2, file: 32 * mib,
		roles:    both(role{kind: opRead, list: "read1m", opBytes: mib, rate: 420}),
		rebuilds: 3,
	},
	{
		name:   "mixed_rw_hybrid",
		why:    "1 MiB reads of a Hybrid file another client is fragmenting with small writes: overflow made costlier to read shows only here",
		scheme: wire.Hybrid, file: 32 * mib, shared: true,
		roles: [numClients]role{
			{kind: opWrite, list: "small16k", opBytes: 16 << 10, rate: 5500},
			{kind: opRead, list: "read1m", opBytes: mib, rate: 1150},
		},
	},
	{
		name:   "meta_create",
		why:    "file creates against a persistent manager: meta and its fsync-per-append WAL do all the work, the data path none",
		scheme: wire.Hybrid, file: 4 * stripeRAID5, persistentMeta: true,
		roles: both(role{kind: opCreate, list: "create", rate: 3400}),
	},
}

func findWorkload(name string) (*workload, error) {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i], nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

// poolBytes is the size of a client's random payload pool; a write takes its
// bytes from a random offset in it.
const poolBytes = 4 * mib

// listRNG seeds one client's generator from the run seed and the list name,
// not the workload name, so workloads that share a list replay the same ops.
func listRNG(seed int64, list string, clientID int, stream string) *rand.Rand {
	h := fnv.New64a()
	fmt.Fprintf(h, "%d/%s/%d/%s", seed, list, clientID, stream)
	return rand.New(rand.NewSource(int64(h.Sum64())))
}

// genOps makes client clientID's operation list of n ops over a file of
// fileBytes.
func genOps(seed int64, r role, clientID int, fileBytes int64, n int) []op {
	rng := listRNG(seed, r.list, clientID, "ops")
	ops := make([]op, n)
	for i := range ops {
		o := op{kind: r.kind, n: int32(r.opBytes)}
		switch {
		case r.kind == opCreate:
			o.off = int64(i) // the file's ordinal; createName turns it into a name
		case r.aligned > 0:
			o.off = r.aligned * rng.Int63n((fileBytes-int64(r.opBytes))/r.aligned+1)
		default:
			o.off = rng.Int63n(fileBytes - int64(r.opBytes) + 1)
		}
		if r.kind == opWrite {
			o.src = int32(rng.Intn(poolBytes))
		}
		ops[i] = o
	}
	return ops
}

// genBytes makes n seeded random bytes for the named stream (a payload pool
// or a file's preload contents).
func genBytes(seed int64, list string, clientID int, stream string, n int) []byte {
	b := make([]byte, n)
	listRNG(seed, list, clientID, stream).Read(b) //nolint:errcheck // math/rand never fails
	return b
}

func createName(clientID int, ordinal int64) string {
	return fmt.Sprintf("c%d-%07d", clientID, ordinal)
}

// opsHash fingerprints an op list, for the same-seed-same-inputs test.
func opsHash(ops []op) uint64 {
	h := fnv.New64a()
	var b [17]byte
	for _, o := range ops {
		b[0] = byte(o.kind)
		binary.LittleEndian.PutUint64(b[1:], uint64(o.off))
		binary.LittleEndian.PutUint32(b[9:], uint32(o.n))
		binary.LittleEndian.PutUint32(b[13:], uint32(o.src))
		h.Write(b[:]) //nolint:errcheck // hash.Hash never fails
	}
	return h.Sum64()
}
