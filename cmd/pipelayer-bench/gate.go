package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"slices"
	"strings"
)

// benchmarkFile declares the repository benchmark: its workloads and the
// end-to-end metrics with their bounds. -diff reads it from the working
// directory, the repository root.
const benchmarkFile = "BENCHMARK.json"

// Gate verdicts, one per workload and metric.
const (
	verdictOK         = "ok"
	verdictBetter     = "better"     // every head run beats every base run
	verdictUnresolved = "UNRESOLVED" // the base runs spread wider than the bound
	verdictRegressed  = "REGRESSED"  // the head median is worse by more than the bound
)

// gateSpec is the part of BENCHMARK.json the gate reads.
type gateSpec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []gateMetric `json:"end_to_end"`
}

// gateMetric is one bounded end-to-end metric.
type gateMetric struct {
	Name   string  `json:"name"`
	Better string  `json:"better"` // "higher" or "lower"
	Bound  float64 `json:"bound"`  // largest tolerated relative change for the worse
}

// runLine is one perfbench result, the last line of a run's standard output.
type runLine struct {
	Correct   bool  `json:"correct"`
	Attempted int64 `json:"attempted"`
	Failed    int64 `json:"failed"`
	Metrics   map[string]struct {
		Value float64 `json:"value"`
	} `json:"metrics"`
}

// gateRow is the verdict on one metric of one workload.
type gateRow struct {
	Workload, Metric string
	Base, Head       float64 // medians of the runs
	Change           float64 // (head − base) / base
	Spread           float64 // base runs' spread / median (see spread)
	Bound            float64
	Verdict          string
}

// gateResult is the whole comparison. Problems fail the gate whatever the
// metrics say: a wrong answer, a higher failed share, a missing or unpaired
// workload file, a missing metric.
type gateResult struct {
	Rows     []gateRow
	Problems []string
}

// Failed reports whether the gate must exit non-zero.
func (r gateResult) Failed() bool {
	return len(r.Problems) > 0 || r.count(verdictRegressed) > 0
}

func (r gateResult) count(verdict string) int {
	n := 0
	for _, row := range r.Rows {
		if row.Verdict == verdict {
			n++
		}
	}
	return n
}

// runGate judges the perfbench runs under headDir against those under
// baseDir by the metrics and bounds declared in specPath, prints the table
// to w and returns an error when the gate fails.
func runGate(specPath, baseDir, headDir string, w io.Writer) error {
	data, err := os.ReadFile(specPath)
	if err != nil {
		return err
	}
	var spec gateSpec
	if err := json.Unmarshal(data, &spec); err != nil {
		return fmt.Errorf("%s: %w", specPath, err)
	}
	if len(spec.Workloads) == 0 || len(spec.EndToEnd) == 0 {
		return fmt.Errorf("%s declares no workloads or no end-to-end metrics", specPath)
	}
	res := gate(spec, baseDir, headDir)
	res.render(w)
	if !res.Failed() {
		return nil
	}
	var regressed []string
	for _, row := range res.Rows {
		if row.Verdict == verdictRegressed {
			regressed = append(regressed, row.Workload+" "+row.Metric)
		}
	}
	return fmt.Errorf("bench-regression failed: regressed [%s], %d problems", strings.Join(regressed, ", "), len(res.Problems))
}

// gate compares, for every workload, the runs in <baseDir>/<workload>.jsonl
// with those in <headDir>/<workload>.jsonl.
func gate(spec gateSpec, baseDir, headDir string) gateResult {
	var res gateResult
	for _, wl := range spec.Workloads {
		base, err := readRuns(filepath.Join(baseDir, wl.Name+".jsonl"))
		if err != nil {
			res.Problems = append(res.Problems, err.Error())
		}
		head, herr := readRuns(filepath.Join(headDir, wl.Name+".jsonl"))
		if herr != nil {
			res.Problems = append(res.Problems, herr.Error())
		}
		if err != nil || herr != nil {
			continue
		}
		if len(base) != len(head) {
			res.Problems = append(res.Problems, fmt.Sprintf("%s: %d base runs but %d head runs; a run that printed no result breaks its pair", wl.Name, len(base), len(head)))
		}
		for _, side := range []struct {
			name string
			runs []runLine
		}{{"base", base}, {"head", head}} {
			for i, r := range side.runs {
				if !r.Correct {
					res.Problems = append(res.Problems, fmt.Sprintf("%s: %s run %d reported correct=false (a response differed from the serial reference)", wl.Name, side.name, i+1))
				}
			}
		}
		if b, h := failedShare(base), failedShare(head); h > b {
			res.Problems = append(res.Problems, fmt.Sprintf("%s: failed share rose from %.6f to %.6f", wl.Name, b, h))
		}
		for _, m := range spec.EndToEnd {
			bv, bok := values(base, m.Name)
			hv, hok := values(head, m.Name)
			if !bok || !hok {
				res.Problems = append(res.Problems, fmt.Sprintf("%s: metric %s missing from a run", wl.Name, m.Name))
				continue
			}
			row := judge(m, bv, hv)
			row.Workload = wl.Name
			res.Rows = append(res.Rows, row)
		}
	}
	slices.Sort(res.Problems)
	return res
}

// judge compares one metric's base and head runs. A metric regresses when
// the head median is worse than the base median by more than the bound and
// the base runs agree with each other to within the bound; when they do
// not, the comparison cannot resolve the bound and is reported unresolved,
// unless every head run beats every base run.
func judge(m gateMetric, base, head []float64) gateRow {
	row := gateRow{Metric: m.Name, Base: median(base), Head: median(head), Bound: m.Bound}
	row.Change = ratio(row.Head-row.Base, row.Base)
	row.Spread = ratio(spread(base), row.Base)
	worse := row.Change
	if m.Better == "higher" {
		worse = -worse
	}
	switch {
	case beatsAll(m, head, base):
		row.Verdict = verdictBetter
	case row.Spread > m.Bound:
		row.Verdict = verdictUnresolved
	case worse > m.Bound:
		row.Verdict = verdictRegressed
	default:
		row.Verdict = verdictOK
	}
	return row
}

// beatsAll reports whether every head value is strictly better than every
// base value.
func beatsAll(m gateMetric, head, base []float64) bool {
	if m.Better == "higher" {
		return slices.Min(head) > slices.Max(base)
	}
	return slices.Max(head) < slices.Min(base)
}

// ratio is num / |den|; a zero den gives 0 when num is zero too and an
// infinity of num's sign otherwise.
func ratio(num, den float64) float64 {
	if den == 0 {
		if num == 0 {
			return 0
		}
		return math.Copysign(math.Inf(1), num)
	}
	return num / math.Abs(den)
}

// iqrRuns is the run count from which spread is the interquartile range.
// The range (max − min) grows with the number of runs, so adding pairs
// under it would leave more metrics unresolved, not fewer; the IQR does
// not, and at a given run count it is never above the range.
const iqrRuns = 5

// spread is the runs' dispersion: the interquartile range from iqrRuns runs
// on, the range below that.
func spread(v []float64) float64 {
	s := slices.Clone(v)
	slices.Sort(s)
	if len(s) < iqrRuns {
		return s[len(s)-1] - s[0]
	}
	return quartile(s, 0.75) - quartile(s, 0.25)
}

// quartile interpolates sorted s at position q·(n−1), so five runs give
// s[1] and s[3]. q must be below 1.
func quartile(s []float64, q float64) float64 {
	pos := q * float64(len(s)-1)
	i := int(pos)
	return s[i] + (pos-float64(i))*(s[i+1]-s[i])
}

func median(v []float64) float64 {
	s := slices.Clone(v)
	slices.Sort(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func failedShare(runs []runLine) float64 {
	var failed, attempted int64
	for _, r := range runs {
		failed += r.Failed
		attempted += r.Attempted
	}
	if attempted == 0 {
		return 0
	}
	return float64(failed) / float64(attempted)
}

// values collects one metric across the runs; ok is false when a run
// lacks it.
func values(runs []runLine, name string) (v []float64, ok bool) {
	v = make([]float64, len(runs))
	for i, r := range runs {
		m, ok := r.Metrics[name]
		if !ok {
			return nil, false
		}
		v[i] = m.Value
	}
	return v, true
}

// readRuns parses one JSON result per non-empty line.
func readRuns(path string) ([]runLine, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var runs []runLine
	sc := bufio.NewScanner(f)
	for n := 1; sc.Scan(); n++ {
		line := strings.TrimSpace(sc.Text())
		if line == "" {
			continue
		}
		var r runLine
		if err := json.Unmarshal([]byte(line), &r); err != nil {
			return nil, fmt.Errorf("%s:%d: not a perfbench result: %w", path, n, err)
		}
		runs = append(runs, r)
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if len(runs) == 0 {
		return nil, fmt.Errorf("%s: no runs", path)
	}
	return runs, nil
}

// render prints one line per workload and metric, then the problems and a
// summary line.
func (r gateResult) render(w io.Writer) {
	fmt.Fprintf(w, "%-12s %-18s %14s %14s %9s %9s %7s  %s\n",
		"workload", "metric", "base median", "head median", "change", "spread", "bound", "verdict")
	for _, row := range r.Rows {
		fmt.Fprintf(w, "%-12s %-18s %14.4f %14.4f %+8.1f%% %8.1f%% %6.0f%%  %s\n",
			row.Workload, row.Metric, row.Base, row.Head, 100*row.Change, 100*row.Spread, 100*row.Bound, row.Verdict)
	}
	for _, p := range r.Problems {
		fmt.Fprintf(w, "PROBLEM: %s\n", p)
	}
	fmt.Fprintf(w, "bench-regression: %d metrics, %d regressed, %d unresolved, %d better, %d problems\n",
		len(r.Rows), r.count(verdictRegressed), r.count(verdictUnresolved), r.count(verdictBetter), len(r.Problems))
}
