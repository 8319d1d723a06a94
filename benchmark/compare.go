package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
)

// side is one -out file: the end-to-end values of its untraced runs, and the
// attempts and failures, per workload.
type side struct {
	values            map[string]map[string][]float64 // workload → metric → one value per run
	attempted, failed map[string]int
}

func readRecords(path string) (side, error) {
	s := side{values: map[string]map[string][]float64{}, attempted: map[string]int{}, failed: map[string]int{}}
	f, err := os.Open(path)
	if err != nil {
		return s, err
	}
	defer f.Close() //nolint:errcheck // only read
	sc := bufio.NewScanner(f)
	sc.Buffer(nil, 1<<20)
	for line := 1; sc.Scan(); line++ {
		if len(sc.Bytes()) == 0 {
			continue
		}
		var rec record
		if err := json.Unmarshal(sc.Bytes(), &rec); err != nil {
			return s, fmt.Errorf("%s:%d: %w", path, line, err)
		}
		if rec.Trace != 0 {
			continue // per-layer metrics carry no bound
		}
		if s.values[rec.Workload] == nil {
			s.values[rec.Workload] = map[string][]float64{}
		}
		for name, mv := range rec.Result.Metrics {
			s.values[rec.Workload][name] = append(s.values[rec.Workload][name], mv.Value)
		}
		s.attempted[rec.Workload] += rec.Result.Attempted
		s.failed[rec.Workload] += rec.Result.Failed
	}
	return s, sc.Err()
}

// spread is the distance between the first and third quartile as a share of
// the median — the run-to-run noise a difference has to exceed.
func spread(v []float64) float64 {
	if len(v) < 2 {
		return 0
	}
	q1, q2, q3 := quartiles(v)
	return ratio(q3-q1, math.Abs(q2))
}

// compareFiles prints, per workload and end-to-end metric, both medians, how
// much worse B is than A and the bound, and returns exit code 1 if any metric
// regressed. A pairing whose same-side spread exceeds the bound is
// "unresolved", never "ok": the runs cannot tell.
func compareFiles(out io.Writer, pathA, pathB string) (int, error) {
	a, err := readRecords(pathA)
	if err != nil {
		return 2, err
	}
	b, err := readRecords(pathB)
	if err != nil {
		return 2, err
	}
	code := 0
	fmt.Fprintf(out, "%-20s %-22s %13s %13s %8s %7s %7s  %s\n", "workload", "metric", "median A", "median B", "worse", "bound", "spread", "verdict")
	for i := range workloads {
		name := workloads[i].name
		if a.values[name] == nil || b.values[name] == nil {
			continue
		}
		for _, d := range endToEnd {
			va, vb := a.values[name][d.Name], b.values[name][d.Name]
			if len(va) == 0 || len(vb) == 0 {
				continue
			}
			ma, mb := median(va), median(vb)
			worse := ratio(mb-ma, ma)
			if d.Better == "higher" {
				worse = -worse
			}
			sp := math.Max(spread(va), spread(vb))
			verdict := "ok"
			switch {
			case sp > d.Bound:
				verdict = "unresolved"
			case worse > d.Bound:
				verdict = "REGRESSION"
				code = 1
			}
			fmt.Fprintf(out, "%-20s %-22s %13.6g %13.6g %+7.1f%% %6.1f%% %6.1f%%  %s\n",
				name, d.Name, ma, mb, worse*100, d.Bound*100, sp*100, verdict)
		}
		// Any increase in the share of failed operations is a regression.
		fa, fb := ratio(float64(a.failed[name]), float64(a.attempted[name])), ratio(float64(b.failed[name]), float64(b.attempted[name]))
		verdict := "ok"
		if fb > fa {
			verdict = "REGRESSION"
			code = 1
		}
		fmt.Fprintf(out, "%-20s %-22s %13.6g %13.6g %40s\n", name, "failed_ops_frac", fa, fb, verdict)
	}
	return code, nil
}
