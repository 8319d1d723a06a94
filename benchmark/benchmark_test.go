package main

import (
	"bytes"
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"runtime"
	"strings"
	"testing"
	"time"

	"csar/internal/wire"
)

func TestSelfTimeIsIntervalUnion(t *testing.T) {
	parent := interval{100, 200}
	cases := []struct {
		name     string
		children []interval
		want     int64
	}{
		{"no children", nil, 100},
		{"disjoint", []interval{{110, 120}, {150, 170}}, 70},
		{"overlapping count once", []interval{{110, 150}, {130, 170}}, 40},
		{"nested counts once", []interval{{110, 190}, {120, 130}, {140, 150}}, 20},
		{"clipped to the parent", []interval{{50, 120}, {180, 400}}, 60},
		{"outside the parent", []interval{{0, 50}, {300, 400}}, 100},
		{"covering", []interval{{0, 500}}, 0},
	}
	for _, c := range cases {
		if got := selfTime(parent, c.children); got != c.want {
			t.Errorf("%s: self time %d, want %d", c.name, got, c.want)
		}
	}
}

func TestUnionCountsDisjointGroups(t *testing.T) {
	covered, groups := union([]interval{{30, 40}, {0, 10}, {5, 15}, {15, 20}, {50, 60}})
	if covered != 40 || groups != 3 {
		t.Errorf("union = %d ns in %d groups, want 40 in 3", covered, groups)
	}
	if covered, groups := union(nil); covered != 0 || groups != 0 {
		t.Errorf("empty union = %d, %d", covered, groups)
	}
}

// TestAnalyseAttributesRPCsToOps builds two operations of one client by hand:
// the first fans out two overlapping RPCs and then a third (two rounds), the
// second does one RPC; a lease renewal lands inside the first and must not
// count.
func TestAnalyseAttributesRPCsToOps(t *testing.T) {
	tr := newTracer()
	rpc := func(start, end int64, kind wire.Kind, req, resp int64) {
		tr.rpcs[0].add(span{start: start, end: end, kind: kind, phase: int8(phaseWindow), who: 0, peer: 1, req: req, resp: resp})
	}
	rpc(10, 30, wire.KWriteData, 100, 10)
	rpc(15, 40, wire.KWriteParity, 50, 10)
	rpc(20, 25, wire.KRenewLease, 7, 7)
	rpc(60, 80, wire.KWriteData, 100, 10)
	rpc(110, 150, wire.KRead, 20, 1000)
	rpc(500, 510, wire.KRead, 20, 1000) // another phase's span must be ignored
	tr.rpcs[0].spans[5].phase = int8(phaseRebuild)
	tr.handler[1].add(span{start: 12, end: 28, kind: wire.KWriteData, phase: int8(phaseWindow), who: 1})
	tr.handler[1].add(span{start: 112, end: 148, kind: wire.KRead, phase: int8(phaseWindow), who: 1, failed: true})

	s := tr.analyse(phaseWindow, []opSpan{{client: 0, start: 0, end: 100}, {client: 0, start: 100, end: 160}}, 200)
	if s.ops != 2 || s.rpcs != 4 || s.timedRPCs != 1 {
		t.Errorf("ops %d rpcs %d timed %d, want 2 4 1", s.ops, s.rpcs, s.timedRPCs)
	}
	if s.rpcRounds != 3 {
		t.Errorf("rounds %d, want 3 (two in the first op, one in the second)", s.rpcRounds)
	}
	// Op 1: 100 − ([10,40) ∪ [60,80)) = 50; op 2: 60 − 40 = 20.
	if s.opSelfNs != 70 || s.rpcUnionNs != 90 || s.rpcSumNs != 20+25+20+40 {
		t.Errorf("self %d union %d sum %d, want 70 90 105", s.opSelfNs, s.rpcUnionNs, s.rpcSumNs)
	}
	if s.reqBytes != 270 || s.respBytes != 1030 {
		t.Errorf("wire bytes %d/%d, want 270/1030", s.reqBytes, s.respBytes)
	}
	if s.handlerCalls != 2 || s.handlerSumNs != 52 || s.handlerFails != 1 {
		t.Errorf("handler calls %d ns %d fails %d, want 2 52 1", s.handlerCalls, s.handlerSumNs, s.handlerFails)
	}
	if want := 52.0 / 200; s.busyMax != want || s.busyMean != want/numServers {
		t.Errorf("busy max %g mean %g, want %g and a sixth of it", s.busyMax, s.busyMean, want)
	}
}

func TestTailPercentileNeedsTenSamplesBeyond(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{{5, 50}, {99, 50}, {100, 90}, {199, 90}, {200, 95}, {999, 95}, {1000, 99}, {50000, 99}} {
		if got := tailPercentile(c.n, 99); got != c.want {
			t.Errorf("tailPercentile(%d) = p%g, want p%g", c.n, got, c.want)
		}
		if got := tailPercentile(c.n, 95); got != min(c.want, 95) {
			t.Errorf("tailPercentile(%d) capped at p95 = p%g, want p%g", c.n, got, min(c.want, 95))
		}
	}
	sorted := []int64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	for _, c := range []struct {
		q    float64
		want int64
	}{{50, 5}, {90, 9}, {99, 10}, {100, 10}, {1, 1}} {
		if got := percentile(sorted, c.q); got != c.want {
			t.Errorf("percentile(p%g) = %d, want %d", c.q, got, c.want)
		}
	}
}

// TestQuartilesMatchPython pins quartiles to what Python's
// statistics.quantiles(v, n=4) returns.
func TestQuartilesMatchPython(t *testing.T) {
	q1, q2, q3 := quartiles([]float64{10, 1, 2, 3, 4, 5, 6, 7, 8, 9})
	if q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Errorf("quartiles(1..10) = %g %g %g, want 2.75 5.5 8.25", q1, q2, q3)
	}
	q1, q2, q3 = quartiles([]float64{3, 1, 4, 1, 5})
	if q1 != 1 || q2 != 3 || q3 != 4.5 {
		t.Errorf("quartiles(3,1,4,1,5) = %g %g %g, want 1 3 4.5", q1, q2, q3)
	}
}

func TestSameSeedSameInputs(t *testing.T) {
	for i := range workloads {
		w := &workloads[i]
		for c, r := range w.roles {
			a := opsHash(genOps(7, r, c, w.file, 500))
			if b := opsHash(genOps(7, r, c, w.file, 500)); a != b {
				t.Errorf("%s client %d: same seed gave different op lists", w.name, c)
			}
			if r.kind == opCreate {
				continue // creates are ordinals; the seed has nothing to vary
			}
			if b := opsHash(genOps(8, r, c, w.file, 500)); a == b {
				t.Errorf("%s client %d: seeds 7 and 8 gave the same op list", w.name, c)
			}
		}
	}
	small, _ := findWorkload("write_small_raid5")
	hybrid, _ := findWorkload("write_small_hybrid")
	mixed, _ := findWorkload("mixed_rw_hybrid")
	a := opsHash(genOps(7, small.roles[0], 0, small.file, 500))
	if a != opsHash(genOps(7, hybrid.roles[0], 0, hybrid.file, 500)) || a != opsHash(genOps(7, mixed.roles[0], 0, mixed.file, 500)) {
		t.Error("the small-write workloads do not replay the same op list")
	}
	if !bytes.Equal(genBytes(7, "x", 0, "pool", 64), genBytes(7, "x", 0, "pool", 64)) ||
		bytes.Equal(genBytes(7, "x", 0, "pool", 64), genBytes(8, "x", 0, "pool", 64)) {
		t.Error("payload bytes do not follow the seed")
	}
}

type benchmarkJSON struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metricDef `json:"end_to_end"`
	PerLayer []metricDef `json:"per_layer"`
}

// TestMetricTablesMatchBenchmarkJSON holds the tables in this package and the
// contract file at the repository root to each other, and the contract file
// to its format's limits.
func TestMetricTablesMatchBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var doc benchmarkJSON
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&doc); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(doc.EndToEnd, endToEnd) {
		t.Errorf("end_to_end differs:\n json %v\n code %v", doc.EndToEnd, endToEnd)
	}
	if !reflect.DeepEqual(doc.PerLayer, perLayer) {
		t.Errorf("per_layer differs:\n json %v\n code %v", doc.PerLayer, perLayer)
	}
	if len(doc.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in code", len(doc.Workloads), len(workloads))
	}
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	use := func(n string) {
		if !name.MatchString(n) || seen[n] {
			t.Errorf("name %q is malformed or used twice", n)
		}
		seen[n] = true
	}
	for i, w := range doc.Workloads {
		if w.Name != workloads[i].name || w.Why != workloads[i].why {
			t.Errorf("workload %d: json %q differs from code %q", i, w.Name, workloads[i].name)
		}
		if len(w.Why) > 200 || strings.ContainsAny(w.Why, "\n\r") {
			t.Errorf("workload %s: why must be one line of at most 200 characters", w.Name)
		}
		use(w.Name)
	}
	hasSetup := false
	for _, d := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
		use(d.Name)
		if !unit.MatchString(d.Unit) || (d.Better != "higher" && d.Better != "lower") || d.Bound < 0 || d.Bound > 0.25 {
			t.Errorf("metric %+v breaks the contract's limits", d)
		}
		hasSetup = hasSetup || (d.Name == "setup_s" && d.Unit == "s" && d.Better == "lower" && d.Bound > 0)
	}
	if !hasSetup {
		t.Error("no setup_s end-to-end metric")
	}
	if len(endToEnd) > 16 || len(perLayer) > 128 || doc.RunSeconds < 1 || doc.RunSeconds > 60 || len(raw) > 64<<10 {
		t.Error("BENCHMARK.json is outside the contract's size limits")
	}
	// 4 + 22 × workloads runs, each a set-up, a warm-up second, the window
	// and the oracle, must fit 3420 s with room for two builds.
	if runs := 4 + 22*len(workloads); float64(runs)*float64(doc.RunSeconds+7) > 3420-120 {
		t.Errorf("%d runs of %d s windows do not fit the time limit", runs, doc.RunSeconds)
	}
}

// TestSmoke runs every workload, untraced and traced, on a few hundred
// operations: every metric BENCHMARK.json names must come out with its unit
// and nothing else may, no operation may fail the oracle, and no goroutine
// may be left behind.
func TestSmoke(t *testing.T) {
	baseline := runtime.NumGoroutine()
	clusters, err := smokeAll(io.Discard, 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := settle(baseline, clusters); err != nil {
		t.Error(err)
	}
}

// TestOracleCatchesCorruption flips one stored byte behind the file system's
// back and expects the run to report failed attempts, not a clean result.
func TestOracleCatchesCorruption(t *testing.T) {
	w, _ := findWorkload("read_healthy_raid5")
	p := newPass(w, 1, smokeScale(w), nil)
	p.base = time.Now()
	defer p.teardown() //nolint:errcheck // the test is about the oracle
	if err := p.setup(); err != nil {
		t.Fatal(err)
	}
	p.ref[0][12345] ^= 0xff // the reference now disagrees with what set-up stored
	p.window()
	p.oracle()
	if p.res.failed == 0 {
		t.Error("a byte that differs from the reference went unnoticed")
	}
}

func TestCompareVerdicts(t *testing.T) {
	dir := t.TempDir()
	write := func(name string, ops, p50 []float64, failed int) string {
		path := filepath.Join(dir, name)
		for i := range ops {
			rec := record{Workload: "meta_create", Seed: int64(i), Seconds: 5, Result: result{
				Correct: failed == 0, Attempted: 100, Failed: failed,
				Metrics: map[string]metricValue{
					"ops_per_s": {ops[i], "1/s"},
					"p50_ms":    {p50[i], "ms"},
				},
			}}
			if err := appendRecord(path, rec); err != nil {
				t.Fatal(err)
			}
		}
		return path
	}
	steady := []float64{1.00, 1.01, 0.99, 1.00, 1.02}
	noisy := []float64{1.0, 1.5, 0.6, 1.3, 0.8}
	base := write("a", []float64{1000, 1010, 990, 1005, 995}, steady, 0)

	var out bytes.Buffer
	same := write("b", []float64{1001, 1008, 992, 1003, 997}, steady, 0)
	if code, err := compareFiles(&out, base, same); err != nil || code != 0 {
		t.Errorf("equal sides: code %d err %v\n%s", code, err, out.String())
	}
	if strings.Contains(out.String(), "REGRESSION") || strings.Contains(out.String(), "unresolved") {
		t.Errorf("equal sides were not all ok:\n%s", out.String())
	}

	out.Reset()
	slower := write("c", []float64{600, 606, 594, 603, 597}, steady, 0) // −40% throughput, bound 25%
	if code, _ := compareFiles(&out, base, slower); code != 1 || !strings.Contains(out.String(), "REGRESSION") {
		t.Errorf("a 40%% throughput loss was not a regression (code %d):\n%s", code, out.String())
	}

	out.Reset()
	wobbly := write("d", []float64{1000, 1010, 990, 1005, 995}, noisy, 0)
	if code, _ := compareFiles(&out, base, wobbly); code != 0 || !strings.Contains(out.String(), "unresolved") {
		t.Errorf("a spread wider than the bound must read unresolved, not ok or regression (code %d):\n%s", code, out.String())
	}

	out.Reset()
	failing := write("e", []float64{1000, 1010, 990, 1005, 995}, steady, 3)
	if code, _ := compareFiles(&out, base, failing); code != 1 {
		t.Errorf("more failed operations must be a regression:\n%s", out.String())
	}
}
