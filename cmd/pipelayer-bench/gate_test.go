package main

import (
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// testSpec declares one workload with one higher-is-better and one
// lower-is-better metric.
func testSpec() gateSpec {
	var spec gateSpec
	if err := json.Unmarshal([]byte(`{
		"workloads": [{"name": "mlp-serve"}],
		"end_to_end": [
			{"name": "sat_rps", "better": "higher", "bound": 0.25},
			{"name": "p50_ms_lo", "better": "lower", "bound": 0.2}
		]}`), &spec); err != nil {
		panic(err)
	}
	return spec
}

// result is one perfbench result line, shaped as perfbench prints it.
type result struct {
	correct bool
	failed  int64
	metrics map[string]float64
}

func ok(rps, p50 float64) result {
	return result{correct: true, metrics: map[string]float64{"sat_rps": rps, "p50_ms_lo": p50}}
}

// writeRuns writes <dir>/<workload>.jsonl, one line per run.
func writeRuns(t *testing.T, dir, workload string, runs ...result) {
	t.Helper()
	var sb strings.Builder
	for _, r := range runs {
		m := map[string]any{}
		for k, v := range r.metrics {
			m[k] = map[string]any{"value": v, "unit": "x"}
		}
		line, err := json.Marshal(map[string]any{
			"correct": r.correct, "attempted": 1000, "failed": r.failed, "metrics": m,
		})
		if err != nil {
			t.Fatal(err)
		}
		sb.Write(line)
		sb.WriteByte('\n')
	}
	if err := os.WriteFile(filepath.Join(dir, workload+".jsonl"), []byte(sb.String()), 0o644); err != nil {
		t.Fatal(err)
	}
}

// runPair gates head runs against base runs of the test workload.
func runPair(t *testing.T, base, head []result) gateResult {
	t.Helper()
	baseDir, headDir := t.TempDir(), t.TempDir()
	writeRuns(t, baseDir, "mlp-serve", base...)
	writeRuns(t, headDir, "mlp-serve", head...)
	return gate(testSpec(), baseDir, headDir)
}

func verdicts(res gateResult) map[string]string {
	out := map[string]string{}
	for _, row := range res.Rows {
		out[row.Metric] = row.Verdict
	}
	return out
}

func TestGateSameRunsPass(t *testing.T) {
	runs := []result{ok(100, 2.0), ok(104, 2.1), ok(98, 1.9)}
	res := runPair(t, runs, runs)
	if res.Failed() || len(res.Problems) > 0 {
		t.Fatalf("identical runs failed the gate: %+v", res)
	}
	if v := verdicts(res); v["sat_rps"] != verdictOK || v["p50_ms_lo"] != verdictOK {
		t.Fatalf("verdicts %v, want ok for both", v)
	}
}

func TestGateRegressed(t *testing.T) {
	base := []result{ok(100, 2.0), ok(104, 2.1), ok(98, 1.9)}
	head := []result{ok(70, 2.6), ok(72, 2.5), ok(110, 2.7)}
	res := runPair(t, base, head)
	v := verdicts(res)
	if v["sat_rps"] != verdictRegressed || v["p50_ms_lo"] != verdictRegressed {
		t.Fatalf("verdicts %v, want both regressed (rps −28 %%, p50 +30 %%)", v)
	}
	if !res.Failed() {
		t.Fatal("a regression did not fail the gate")
	}
	var sb strings.Builder
	res.render(&sb)
	if !strings.Contains(sb.String(), "mlp-serve    sat_rps") || !strings.Contains(sb.String(), verdictRegressed) {
		t.Fatalf("render does not name the workload, metric and verdict:\n%s", sb.String())
	}
}

func TestGateWithinBoundPasses(t *testing.T) {
	base := []result{ok(100, 2.0), ok(104, 2.1), ok(98, 1.9)}
	head := []result{ok(80, 2.3), ok(82, 2.35), ok(120, 2.4)}
	res := runPair(t, base, head)
	if v := verdicts(res); res.Failed() || v["sat_rps"] != verdictOK || v["p50_ms_lo"] != verdictOK {
		t.Fatalf("changes inside the bounds (rps −18 %%, p50 +17.5 %%) judged %v", v)
	}
}

func TestGateUnresolved(t *testing.T) {
	// Base runs spread by 80 % of their median: a 25 % bound is not
	// resolvable, so even a large drop is reported, not failed.
	base := []result{ok(100, 2.0), ok(60, 1.0), ok(140, 3.0)}
	head := []result{ok(50, 3.0), ok(65, 3.5), ok(40, 2.5)}
	res := runPair(t, base, head)
	v := verdicts(res)
	if v["sat_rps"] != verdictUnresolved || v["p50_ms_lo"] != verdictUnresolved {
		t.Fatalf("verdicts %v, want both unresolved", v)
	}
	if res.Failed() {
		t.Fatalf("an unresolved comparison failed the gate: %+v", res)
	}
}

func TestGateAllBetterIsNotUnresolved(t *testing.T) {
	base := []result{ok(100, 2.0), ok(60, 1.0), ok(140, 3.0)}
	head := []result{ok(150, 0.5), ok(160, 0.6), ok(141, 0.9)}
	res := runPair(t, base, head)
	if v := verdicts(res); res.Failed() || v["sat_rps"] != verdictBetter || v["p50_ms_lo"] != verdictBetter {
		t.Fatalf("every head run beats every base run, judged %v", v)
	}
}

func TestGateFailedShareRose(t *testing.T) {
	base := []result{ok(100, 2.0), ok(100, 2.0)}
	worse := ok(100, 2.0)
	worse.failed = 3
	res := runPair(t, base, []result{ok(100, 2.0), worse})
	if !res.Failed() || len(res.Problems) != 1 || !strings.Contains(res.Problems[0], "failed share") {
		t.Fatalf("a higher failed share did not fail the gate: %+v", res)
	}
	// The same share on both sides is not a rise.
	if res := runPair(t, []result{ok(100, 2.0), worse}, []result{worse, ok(100, 2.0)}); res.Failed() {
		t.Fatalf("an equal failed share failed the gate: %+v", res)
	}
}

func TestGateCorrectFalse(t *testing.T) {
	wrong := ok(100, 2.0)
	wrong.correct = false
	res := runPair(t, []result{ok(100, 2.0), ok(100, 2.0)}, []result{ok(100, 2.0), wrong})
	if !res.Failed() || len(res.Problems) != 1 || !strings.Contains(res.Problems[0], "head run 2 reported correct=false") {
		t.Fatalf("a wrong answer did not fail the gate: %+v", res)
	}
}

func TestGateMissingMetricOrWorkload(t *testing.T) {
	partial := result{correct: true, metrics: map[string]float64{"sat_rps": 100}}
	res := runPair(t, []result{ok(100, 2.0)}, []result{partial})
	if !res.Failed() || len(res.Problems) != 1 || !strings.Contains(res.Problems[0], "metric p50_ms_lo missing") {
		t.Fatalf("a missing metric did not fail the gate: %+v", res)
	}

	baseDir, headDir := t.TempDir(), t.TempDir()
	writeRuns(t, baseDir, "mlp-serve", ok(100, 2.0))
	if res := gate(testSpec(), baseDir, headDir); !res.Failed() || len(res.Problems) != 1 {
		t.Fatalf("a missing workload file did not fail the gate: %+v", res)
	}
	writeRuns(t, headDir, "mlp-serve", ok(100, 2.0), ok(100, 2.0))
	if res := gate(testSpec(), baseDir, headDir); !res.Failed() || !strings.Contains(strings.Join(res.Problems, "\n"), "1 base runs but 2 head runs") {
		t.Fatalf("unpaired runs did not fail the gate: %+v", res)
	}
	if err := os.WriteFile(filepath.Join(headDir, "mlp-serve.jsonl"), []byte("perfbench: build failed\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if res := gate(testSpec(), baseDir, headDir); !res.Failed() || !strings.Contains(strings.Join(res.Problems, "\n"), "not a perfbench result") {
		t.Fatalf("a non-result line did not fail the gate: %+v", res)
	}
}

// TestGateReadsBenchmarkDeclaration runs the gate end to end on the
// repository's own BENCHMARK.json: identical runs of every declared
// workload, carrying every declared metric, pass.
func TestGateReadsBenchmarkDeclaration(t *testing.T) {
	path := filepath.Join("..", "..", benchmarkFile)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var spec gateSpec
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) == 0 || len(spec.EndToEnd) == 0 {
		t.Fatalf("%s: no workloads or end-to-end metrics", path)
	}
	r := result{correct: true, metrics: map[string]float64{}}
	for _, m := range spec.EndToEnd {
		if m.Better != "higher" && m.Better != "lower" || m.Bound <= 0 {
			t.Fatalf("metric %s: better %q bound %v", m.Name, m.Better, m.Bound)
		}
		r.metrics[m.Name] = 1
	}
	baseDir, headDir := t.TempDir(), t.TempDir()
	for _, wl := range spec.Workloads {
		writeRuns(t, baseDir, wl.Name, r, r, r)
		writeRuns(t, headDir, wl.Name, r, r, r)
	}
	if err := runGate(path, baseDir, headDir, io.Discard); err != nil {
		t.Fatal(err)
	}
}
