package telemetry

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"sort"
	"strconv"
	"strings"
	"time"
)

// Snapshot is a point-in-time copy of every instrument in a registry, in a
// shape that marshals directly to JSON for machine consumption (the
// -metrics flag of the cmd binaries and the BENCH_telemetry.json trajectory
// file both write this).
type Snapshot struct {
	// CapturedAt is the wall-clock capture instant in RFC3339 (UTC), and
	// UptimeSeconds the monotonic time since NewRegistry — together they let
	// BENCH_*.json artifacts and trace.json files from the same run be
	// correlated across commits.
	CapturedAt    string                       `json:"captured_at"`
	UptimeSeconds float64                      `json:"uptime_seconds"`
	Counters      map[string]int64             `json:"counters,omitempty"`
	Gauges        map[string]float64           `json:"gauges,omitempty"`
	Histograms    map[string]HistogramSnapshot `json:"histograms,omitempty"`
	Spans         map[string]SpanSnapshot      `json:"spans,omitempty"`
}

// HistogramSnapshot is one histogram's frozen state. Counts has one entry
// per finite bound plus a final +Inf bucket.
type HistogramSnapshot struct {
	Bounds []float64 `json:"bounds"`
	Counts []uint64  `json:"counts"`
	Sum    float64   `json:"sum"`
	Count  uint64    `json:"count"`
}

// Quantile estimates the q-quantile (0 ≤ q ≤ 1) of the observed values by
// linear interpolation within the bucket containing the target rank — the
// same estimator Prometheus's histogram_quantile uses, so smoke-run
// percentiles and CI dashboards read from the same instrument and agree.
// Values in the +Inf bucket clamp to the highest finite bound. Returns 0 on
// an empty histogram.
func (h HistogramSnapshot) Quantile(q float64) float64 {
	if h.Count == 0 || len(h.Bounds) == 0 || len(h.Counts) != len(h.Bounds)+1 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	target := q * float64(h.Count)
	cum := 0.0
	for i, b := range h.Bounds {
		next := cum + float64(h.Counts[i])
		if next >= target && h.Counts[i] > 0 {
			lo := 0.0
			if i > 0 {
				lo = h.Bounds[i-1]
			}
			frac := (target - cum) / float64(h.Counts[i])
			if frac < 0 {
				frac = 0
			}
			return lo + (b-lo)*frac
		}
		cum = next
	}
	// Rank falls in the +Inf bucket: clamp to the largest finite bound.
	return h.Bounds[len(h.Bounds)-1]
}

// SpanSnapshot is one span's frozen state, in seconds.
type SpanSnapshot struct {
	Count        int64   `json:"count"`
	TotalSeconds float64 `json:"total_seconds"`
	MeanSeconds  float64 `json:"mean_seconds"`
}

// Snapshot freezes the registry's current state.
func (r *Registry) Snapshot() Snapshot {
	now := time.Now()
	r.mu.RLock()
	defer r.mu.RUnlock()
	s := Snapshot{
		CapturedAt:    now.UTC().Format(time.RFC3339),
		UptimeSeconds: now.Sub(r.start).Seconds(),
		Counters:      map[string]int64{},
		Gauges:        map[string]float64{},
		Histograms:    map[string]HistogramSnapshot{},
		Spans:         map[string]SpanSnapshot{},
	}
	for name, c := range r.counters {
		s.Counters[name] = c.Value()
	}
	for name, g := range r.gauges {
		s.Gauges[name] = jsonSafe(g.Value())
	}
	for name, h := range r.histograms {
		s.Histograms[name] = h.snapshot()
	}
	for name, sp := range r.spans {
		n, total := sp.snapshot()
		s.Spans[name] = SpanSnapshot{
			Count:        n,
			TotalSeconds: total.Seconds(),
			MeanSeconds:  mean(n, total).Seconds(),
		}
	}
	return s
}

// jsonSafe maps NaN/±Inf — which encoding/json rejects — to 0 so a stray
// degenerate gauge can never abort a snapshot write.
func jsonSafe(v float64) float64 {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return 0
	}
	return v
}

// JSONSnapshot marshals the registry's current state as indented JSON.
func (r *Registry) JSONSnapshot() ([]byte, error) {
	return json.MarshalIndent(r.Snapshot(), "", "  ")
}

// WriteJSONFile writes the registry's JSON snapshot to path (0644,
// truncating any existing file).
func (r *Registry) WriteJSONFile(path string) error {
	data, err := r.JSONSnapshot()
	if err != nil {
		return fmt.Errorf("telemetry: marshal snapshot: %w", err)
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// Reporter renders a registry for humans (Text) or for a Prometheus scrape
// (Prometheus). Both renderings are deterministic: series sort by name.
type Reporter struct {
	Registry *Registry
}

// Text renders the registry as an aligned human-readable listing.
func (rp Reporter) Text() string {
	s := rp.Registry.Snapshot()
	var sb strings.Builder
	section := func(title string, lines []string) {
		if len(lines) == 0 {
			return
		}
		sb.WriteString(title)
		sb.WriteByte('\n')
		for _, l := range lines {
			sb.WriteString("  ")
			sb.WriteString(l)
			sb.WriteByte('\n')
		}
	}
	var lines []string
	for _, name := range sortedKeys(s.Counters) {
		lines = append(lines, fmt.Sprintf("%-56s %d", name, s.Counters[name]))
	}
	section("counters", lines)
	lines = nil
	for _, name := range sortedKeys(s.Gauges) {
		lines = append(lines, fmt.Sprintf("%-56s %s", name, formatFloat(s.Gauges[name])))
	}
	section("gauges", lines)
	lines = nil
	for _, name := range sortedKeys(s.Histograms) {
		h := s.Histograms[name]
		lines = append(lines, fmt.Sprintf("%-56s count=%d sum=%s", name, h.Count, formatFloat(h.Sum)))
		for i, b := range h.Bounds {
			lines = append(lines, fmt.Sprintf("  le=%-10s %d", formatFloat(b), h.Counts[i]))
		}
		lines = append(lines, fmt.Sprintf("  le=%-10s %d", "+Inf", h.Counts[len(h.Counts)-1]))
	}
	section("histograms", lines)
	lines = nil
	for _, name := range sortedKeys(s.Spans) {
		sp := s.Spans[name]
		lines = append(lines, fmt.Sprintf("%-56s count=%d total=%.6fs mean=%.6fs",
			name, sp.Count, sp.TotalSeconds, sp.MeanSeconds))
	}
	section("spans", lines)
	return sb.String()
}

// Prometheus renders the registry in the Prometheus text exposition format
// (version 0.0.4). Counters render as counters, gauges as gauges,
// histograms as cumulative `le` histograms, and spans as summaries with
// _sum (seconds) and _count samples. One TYPE line is emitted per base
// metric name; labeled series built with Name group under their base.
func (rp Reporter) Prometheus() string {
	s := rp.Registry.Snapshot()
	var sb strings.Builder
	typed := map[string]bool{}
	emitType := func(base, kind string) {
		if !typed[base] {
			fmt.Fprintf(&sb, "# TYPE %s %s\n", base, kind)
			typed[base] = true
		}
	}

	for _, name := range sortedKeys(s.Counters) {
		base, labels := splitName(name)
		emitType(base, "counter")
		fmt.Fprintf(&sb, "%s%s %d\n", base, labels, s.Counters[name])
	}
	for _, name := range sortedKeys(s.Gauges) {
		base, labels := splitName(name)
		emitType(base, "gauge")
		fmt.Fprintf(&sb, "%s%s %s\n", base, labels, formatFloat(s.Gauges[name]))
	}
	for _, name := range sortedKeys(s.Histograms) {
		h := s.Histograms[name]
		base, labels := splitName(name)
		emitType(base, "histogram")
		cum := uint64(0)
		for i, b := range h.Bounds {
			cum += h.Counts[i]
			fmt.Fprintf(&sb, "%s_bucket%s %d\n", base, withLabel(labels, "le", formatFloat(b)), cum)
		}
		cum += h.Counts[len(h.Counts)-1]
		fmt.Fprintf(&sb, "%s_bucket%s %d\n", base, withLabel(labels, "le", "+Inf"), cum)
		fmt.Fprintf(&sb, "%s_sum%s %s\n", base, labels, formatFloat(h.Sum))
		fmt.Fprintf(&sb, "%s_count%s %d\n", base, labels, h.Count)
	}
	for _, name := range sortedKeys(s.Spans) {
		sp := s.Spans[name]
		base, labels := splitName(name)
		emitType(base, "summary")
		fmt.Fprintf(&sb, "%s_sum%s %s\n", base, labels, formatFloat(sp.TotalSeconds))
		fmt.Fprintf(&sb, "%s_count%s %d\n", base, labels, sp.Count)
	}
	return sb.String()
}

// withLabel merges one extra label pair into an existing label block
// (`{a="b"}` or empty), producing `{a="b",le="0.5"}`.
func withLabel(labels, key, value string) string {
	extra := fmt.Sprintf("%s=%q", key, value)
	if labels == "" {
		return "{" + extra + "}"
	}
	return labels[:len(labels)-1] + "," + extra + "}"
}

func formatFloat(v float64) string {
	return strconv.FormatFloat(v, 'g', -1, 64)
}

func sortedKeys[M ~map[string]V, V any](m M) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
