// Command benchmark is this repository's real-code performance ledger: eight
// workloads over the deployment a csar.Dial user gets — six I/O servers and a
// manager on loopback TCP — collapsed into this one process, measured end to
// end and, with -trace 1, layer by layer from outside. See README.md.
//
// It is a module of its own (go.mod) so that the repository's go build ./...
// and go test ./... never depend on it. Build it, then run the binary; run.sh
// does both:
//
//	go build -o "$TMPDIR/csar-benchmark" . && "$TMPDIR/csar-benchmark" -workload write_small_raid5 -seed 1
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/pprof"
	"sort"
	"strings"
	"time"
)

// metricValue is one metric in the result line.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of standard output, exactly these keys.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// record is one run as -out appends it and -compare reads it.
type record struct {
	Workload string `json:"workload"`
	Seed     int64  `json:"seed"`
	Seconds  int    `json:"seconds"`
	Trace    int    `json:"trace"`
	Result   result `json:"result"`
}

func named(defs []metricDef, vals map[string]float64) map[string]metricValue {
	out := make(map[string]metricValue, len(defs))
	for _, d := range defs {
		out[d.Name] = metricValue{Value: vals[d.Name], Unit: d.Unit}
	}
	return out
}

// passSeed derives the seed of one pass of a run, so the passes replay
// different op lists and the run averages over inputs too.
func passSeed(seed int64, pass int) int64 { return seed*1000 + int64(pass) }

// runWorkload is one run of one workload. Untraced, it makes sc.passes passes
// and reports each end-to-end metric's median over them. Traced, it makes one
// untraced and one traced pass of the same inputs, plus the probes, and
// reports the per-layer metrics.
func runWorkload(log io.Writer, w *workload, seed int64, sc scale, trace bool, dump string) (result, error) {
	var total passResult
	add := func(r *passResult) {
		total.attempted += r.attempted
		total.failed += r.failed
		total.problems = append(total.problems, r.problems...)
	}
	if !trace {
		perPass := make(map[string][]float64)
		for i := 0; i < sc.passes; i++ {
			p := newPass(w, passSeed(seed, i), sc, nil)
			if err := p.run(); err != nil {
				return result{}, err
			}
			vals, tailQ, n := endToEndValues(w, &p.res)
			fmt.Fprintf(log, "%s seed %d pass %d: %d samples in a %.2f s window (clients took %.2f s and %.2f s); p95_ms holds p%g\n",
				w.name, seed, i, n, float64(p.res.windowNs)/1e9, p.res.clientSpan(0), p.res.clientSpan(1), tailQ)
			for k, v := range vals {
				perPass[k] = append(perPass[k], v)
			}
			add(&p.res)
		}
		vals := make(map[string]float64, len(perPass))
		for k, v := range perPass {
			vals[k] = median(v)
		}
		return finish(log, endToEnd, vals, &total), nil
	}
	plain := newPass(w, passSeed(seed, 0), sc, nil)
	traced := newPass(w, passSeed(seed, 0), sc, newTracer())
	if err := plain.run(); err != nil {
		return result{}, err
	}
	if err := traced.run(); err != nil {
		return result{}, err
	}
	if dump != "" {
		if err := traced.tr.dump(dump); err != nil {
			return result{}, err
		}
	}
	probes, err := runProbes(sc.probe)
	if err != nil {
		return result{}, err
	}
	fmt.Fprintf(log, "%s seed %d: traced pass of %d ops after an untraced pass of the same ops\n",
		w.name, seed, traced.res.window.ops)
	add(&plain.res)
	add(&traced.res)
	return finish(log, perLayer, perLayerValues(w, &plain.res, &traced.res, probes), &total), nil
}

func finish(log io.Writer, defs []metricDef, vals map[string]float64, r *passResult) result {
	for _, d := range defs {
		fmt.Fprintf(log, "  %-38s %14.6g %s\n", d.Name, vals[d.Name], d.Unit)
	}
	for _, pr := range r.problems {
		fmt.Fprintf(log, "  FAILED: %s\n", pr)
	}
	return result{Correct: r.failed == 0, Attempted: r.attempted, Failed: r.failed, Metrics: named(defs, vals)}
}

// clusters is how many clusters one run at this scale builds.
func (sc scale) clusters(trace bool) int {
	if trace {
		return 2
	}
	return sc.passes
}

// settle waits for the goroutines this process started to be gone: everything
// is stopped synchronously except the closed clients' lease heartbeats, which
// notice on their next 3.3 s tick; each of the clusters built so far is
// allowed one per client.
func settle(baseline, clusters int) error {
	allowed := baseline + numClients*clusters
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > allowed {
		if time.Now().After(deadline) {
			pprof.Lookup("goroutine").WriteTo(os.Stderr, 1) //nolint:errcheck // diagnostics
			return fmt.Errorf("%d goroutines still running, %d allowed (baseline %d)", runtime.NumGoroutine(), allowed, baseline)
		}
		time.Sleep(10 * time.Millisecond)
	}
	return nil
}

func appendRecord(path string, rec record) error {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return err
	}
	b, err := json.Marshal(rec)
	if err != nil {
		f.Close() //nolint:errcheck // reporting the marshal error
		return err
	}
	if _, err := f.Write(append(b, '\n')); err != nil {
		f.Close() //nolint:errcheck // reporting the write error
		return err
	}
	return f.Close()
}

func run() (code int, err error) {
	var (
		name    = flag.String("workload", "", "workload to run, or \"all\"; one of: "+workloadNames())
		seed    = flag.Int64("seed", 1, "seed the inputs are generated from")
		seconds = flag.Int("seconds", 7, "total measured time on the seed commit: over a run's passes each client replays rate × seconds operations")
		trace   = flag.Int("trace", 0, "0: end-to-end metrics from an untraced run; 1: per-layer metrics from a traced run")
		maxWall = flag.Duration("max-wall", 180*time.Second, "dump goroutines and exit 3 if the process is still alive after this long")
		out     = flag.String("out", "", "append each run's result to this file, for -compare")
		dump    = flag.String("trace-dump", "", "with -trace 1, write every recorded span to this file as JSON lines")
		smoke   = flag.Bool("smoke", false, "run every workload, both ways, on a few hundred operations and check the metric sets")
		compare = flag.Bool("compare", false, "compare two -out files: benchmark -compare A.jsonl B.jsonl")
	)
	flag.Parse()
	watchdog := time.AfterFunc(*maxWall, func() {
		fmt.Fprintf(os.Stderr, "benchmark: still running after %v; goroutines:\n", *maxWall)
		pprof.Lookup("goroutine").WriteTo(os.Stderr, 1) //nolint:errcheck // diagnostics
		os.Exit(3)
	})
	defer watchdog.Stop()

	if *compare {
		if flag.NArg() != 2 {
			return 2, errors.New("-compare takes two files")
		}
		return compareFiles(os.Stdout, flag.Arg(0), flag.Arg(1))
	}
	baseline := runtime.NumGoroutine()
	if *smoke {
		clusters, err := smokeAll(os.Stdout, *seed)
		if err != nil {
			return 1, err
		}
		return 0, settle(baseline, clusters)
	}
	if *seconds < 1 || (*trace != 0 && *trace != 1) {
		return 2, errors.New("-seconds must be at least 1 and -trace 0 or 1")
	}
	var todo []*workload
	if *name == "all" {
		for i := range workloads {
			todo = append(todo, &workloads[i])
		}
	} else {
		w, err := findWorkload(*name)
		if err != nil {
			return 2, err
		}
		todo = append(todo, w)
	}
	clusters := 0
	for _, w := range todo {
		sc := fullScale(w, *seconds)
		res, err := runWorkload(os.Stdout, w, *seed, sc, *trace == 1, *dump)
		if err != nil {
			return 1, err
		}
		clusters += sc.clusters(*trace == 1)
		if err := settle(baseline, clusters); err != nil {
			return 1, err
		}
		if *out != "" {
			if err := appendRecord(*out, record{w.name, *seed, *seconds, *trace, res}); err != nil {
				return 1, err
			}
		}
		line, err := json.Marshal(res)
		if err != nil {
			return 1, err
		}
		fmt.Printf("%s\n", line)
		if !res.Correct {
			code = 1
		}
	}
	return code, nil
}

func workloadNames() string {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return strings.Join(names, ", ")
}

// smokeAll runs every workload untraced and traced at smoke scale and fails
// unless each emits exactly the metrics the tables name, with no failed
// operation. It returns how many clusters it built, for settle.
func smokeAll(log io.Writer, seed int64) (clusters int, err error) {
	for i := range workloads {
		w := &workloads[i]
		for _, trace := range []bool{false, true} {
			sc := smokeScale(w)
			res, err := runWorkload(io.Discard, w, seed, sc, trace, "")
			if err != nil {
				return clusters, err
			}
			clusters += sc.clusters(trace)
			defs := endToEnd
			if trace {
				defs = perLayer
			}
			if err := checkMetricSet(defs, res); err != nil {
				return clusters, fmt.Errorf("%s (trace %v): %w", w.name, trace, err)
			}
			if !res.Correct {
				return clusters, fmt.Errorf("%s (trace %v): %d of %d attempts failed", w.name, trace, res.Failed, res.Attempted)
			}
			fmt.Fprintf(log, "ok %s trace=%v: %d attempts, %d metrics\n", w.name, trace, res.Attempted, len(res.Metrics))
		}
	}
	return clusters, nil
}

// checkMetricSet reports a metric that is missing, extra, or carries the
// wrong unit.
func checkMetricSet(defs []metricDef, res result) error {
	want := make(map[string]string, len(defs))
	for _, d := range defs {
		want[d.Name] = d.Unit
	}
	var bad []string
	for n, u := range want {
		if got, ok := res.Metrics[n]; !ok {
			bad = append(bad, "missing "+n)
		} else if got.Unit != u || got.Unit == "" {
			bad = append(bad, fmt.Sprintf("%s has unit %q, want %q", n, got.Unit, u))
		}
	}
	for n := range res.Metrics {
		if _, ok := want[n]; !ok {
			bad = append(bad, "unexpected "+n)
		}
	}
	if len(bad) > 0 {
		sort.Strings(bad)
		return fmt.Errorf("metric set: %v", bad)
	}
	return nil
}

func main() {
	code, err := run()
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		if code == 0 {
			code = 1
		}
	}
	os.Exit(code)
}
