// Package bench regenerates every figure and table of the paper's
// evaluation (Section 6) on the modeled cluster: it builds a fresh cluster
// per data point, runs the corresponding workload generator, measures
// bandwidth in simulated time, and prints the same rows and series the
// paper plots.
//
// Absolute numbers depend on the model parameters (NIC and disk rates of
// the 2003 testbed); the claims under test are the shapes — which scheme
// wins, by what factor, and where the crossovers fall. EXPERIMENTS.md
// records paper-vs-measured for each experiment.
package bench

import (
	"fmt"
	"io"
	"sort"
	"strings"
	"time"

	"csar"
	"csar/internal/client"
	"csar/internal/workload"
)

// Config scales the experiments.
type Config struct {
	// Scale is the wall-clock duration of one simulated second. Larger
	// values reduce CPU noise in the measurements; smaller values run
	// faster. Default 2s.
	Scale time.Duration
	// SizeDiv divides the paper's data sizes (and the servers' cache
	// size, to preserve cache-pressure effects). Default 16.
	SizeDiv int64
	// MaxServers caps the I/O server counts swept by the microbenchmarks.
	// Default 8, the size of the paper's first testbed.
	MaxServers int
	// Results, when non-nil, collects every measured data point (with its
	// op-latency percentiles) for machine-readable output alongside the
	// printed tables. csar-bench wires it to the -json flag.
	Results *Results
}

// ResultsSchemaVersion identifies the bench JSON layout. Version 1 carried
// bandwidth only; version 2 adds per-op latency percentiles.
const ResultsSchemaVersion = 2

// Results is the machine-readable output of a bench run.
type Results struct {
	SchemaVersion int      `json:"schema_version"`
	Points        []Result `json:"results"`
}

// Result is one measured data point: an experiment cell's bandwidth plus
// the latency distribution of every logical op path the workload exercised
// (op_write, op_write_full_stripe, op_write_rmw, parity_lock_wait, ...),
// merged over all clients the workload used.
type Result struct {
	Experiment    string                    `json:"experiment"`
	Scheme        string                    `json:"scheme,omitempty"`
	Servers       int                       `json:"servers,omitempty"`
	MBps          float64                   `json:"mbps"`
	OpLatenciesUS map[string]LatencySummary `json:"op_latencies_us,omitempty"`
}

// LatencySummary compresses one histogram into count + microsecond
// percentiles. Percentiles are upper bounds of the power-of-two bucket the
// rank falls in — within one bucket of exact.
type LatencySummary struct {
	Count int64 `json:"count"`
	P50   int64 `json:"p50"`
	P95   int64 `json:"p95"`
	P99   int64 `json:"p99"`
	Max   int64 `json:"max"`
}

// opLatencies extracts the op-path and lock-wait histograms from a merged
// client snapshot (simulated time under the model, like the MB/s figures).
func opLatencies(s csar.Stats) map[string]LatencySummary {
	out := make(map[string]LatencySummary)
	for _, h := range s.Hists {
		if h.Count == 0 {
			continue
		}
		if !strings.HasPrefix(h.Name, "op_") && h.Name != "parity_lock_wait" {
			continue
		}
		out[h.Name] = LatencySummary{
			Count: h.Count,
			P50:   h.P50().Microseconds(),
			P95:   h.P95().Microseconds(),
			P99:   h.P99().Microseconds(),
			Max:   h.Max.Microseconds(),
		}
	}
	if len(out) == 0 {
		return nil
	}
	return out
}

// DefaultConfig returns the standard experiment scaling.
func DefaultConfig() Config {
	return Config{Scale: 2 * time.Second, SizeDiv: 16, MaxServers: 8}
}

func (c Config) withDefaults() Config {
	if c.Scale <= 0 {
		c.Scale = 2 * time.Second
	}
	if c.SizeDiv <= 0 {
		c.SizeDiv = 16
	}
	if c.MaxServers <= 0 {
		c.MaxServers = 8
	}
	return c
}

// paperCacheBytes is the page cache of one testbed node (1 GB RAM).
const paperCacheBytes = 1 << 30

// model returns the timed cluster model at the config's scale, with the
// server cache scaled down alongside the data sizes.
func (c Config) model() csar.Model {
	m := csar.DefaultModel(c.Scale)
	m.ServerCacheBytes = paperCacheBytes / c.SizeDiv
	if m.ServerCacheBytes < 1<<20 {
		m.ServerCacheBytes = 1 << 20
	}
	return m
}

// newCluster builds a timed cluster of n servers.
func (c Config) newCluster(n int) (*csar.Cluster, error) {
	return csar.NewCluster(csar.ClusterOptions{Servers: n, Model: c.model()})
}

// newUntimedCluster builds a functional cluster (storage accounting runs
// need no timing and are much faster without it).
func (c Config) newUntimedCluster(n int) (*csar.Cluster, error) {
	return csar.NewCluster(csar.ClusterOptions{Servers: n})
}

// scaled divides a paper-scale byte count by the config's divisor,
// keeping at least min bytes.
func (c Config) scaled(bytes, min int64) int64 {
	n := bytes / c.SizeDiv
	if n < min {
		n = min
	}
	return n
}

// runTimed executes fn against a fresh timed cluster and returns the
// modeled bandwidth in MB/s.
func (c Config) runTimed(servers int, fn func(cl *csar.Cluster) (int64, error)) (float64, error) {
	return c.runTimedPoint("", "", servers, fn)
}

// runTimedPoint is runTimed plus result collection: when Config.Results is
// set and experiment is non-empty, the data point — bandwidth and the
// latency percentiles of every client op the workload ran — is appended to
// the machine-readable output.
func (c Config) runTimedPoint(experiment, scheme string, servers int, fn func(cl *csar.Cluster) (int64, error)) (float64, error) {
	cl, err := c.newCluster(servers)
	if err != nil {
		return 0, err
	}
	defer cl.Close()
	start := time.Now()
	bytes, err := fn(cl)
	if err != nil {
		return 0, err
	}
	sim := cl.SimElapsed(start)
	if sim <= 0 {
		return 0, fmt.Errorf("bench: no simulated time elapsed")
	}
	mbps := float64(bytes) / 1e6 / sim.Seconds()
	if c.Results != nil && experiment != "" {
		c.Results.Points = append(c.Results.Points, Result{
			Experiment:    experiment,
			Scheme:        scheme,
			Servers:       servers,
			MBps:          mbps,
			OpLatenciesUS: opLatencies(cl.ClientStats()),
		})
	}
	return mbps, nil
}

// Experiment is one regenerable figure or table.
type Experiment struct {
	Name  string
	Title string
	Run   func(cfg Config, w io.Writer) error
}

var experiments = map[string]Experiment{}

func register(e Experiment) { experiments[e.Name] = e }

// Experiments lists all registered experiments sorted by name.
func Experiments() []Experiment {
	out := make([]Experiment, 0, len(experiments))
	for _, e := range experiments {
		out = append(out, e)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// Run executes the named experiment ("all" runs every one in order).
func Run(name string, cfg Config, w io.Writer) error {
	cfg = cfg.withDefaults()
	if name == "all" {
		for _, e := range Experiments() {
			if err := e.Run(cfg, w); err != nil {
				return fmt.Errorf("%s: %w", e.Name, err)
			}
		}
		return nil
	}
	e, ok := experiments[name]
	if !ok {
		return fmt.Errorf("bench: unknown experiment %q (try -list)", name)
	}
	return e.Run(cfg, w)
}

// env builds a workload environment on a cluster.
func env(cl *csar.Cluster, scheme csar.Scheme, su int64) workload.Env {
	return workload.Env{Cluster: cl, Scheme: scheme, StripeUnit: su}
}

// column is one scheme column of a microbenchmark: a scheme, run on a
// cluster whose parity engine has the given ablation, labelled name in the
// table and the JSON points. The ablated RAID5 columns (Figure 3's no-lock,
// Figure 4a's npc) keep the names they had as schemes, so BENCH files
// compare across.
type column struct {
	name   string
	scheme csar.Scheme
	ablate client.Ablation
}

// r5NoLock is Figure 3's R5 NO LOCK: RAID5 without the parity lock.
var r5NoLock = column{"raid5-nolock", csar.Raid5, client.AblateLock}

// env binds a workload to cl, every client of which runs the column's
// ablation.
func (col column) env(cl *csar.Cluster, su int64) workload.Env {
	cl.Internal().Ablation = col.ablate
	return env(cl, col.scheme, su)
}
