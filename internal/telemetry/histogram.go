package telemetry

import (
	"fmt"
	"math"
	"sort"
	"sync"
)

// Histogram counts observations into fixed buckets with Prometheus `le`
// (less-or-equal) semantics: bucket i counts observations v with
// v <= bounds[i]; one implicit +Inf bucket catches the rest. Bucket
// boundaries are fixed at creation.
type Histogram struct {
	mu     sync.Mutex
	bounds []float64 // strictly increasing finite upper bounds
	counts []uint64  // len(bounds)+1; last is the +Inf bucket
	sum    float64
	count  uint64
}

func newHistogram(bounds []float64) *Histogram {
	if !sort.Float64sAreSorted(bounds) {
		panic(fmt.Sprintf("telemetry: histogram bounds must be sorted, got %v", bounds))
	}
	for i, b := range bounds {
		if math.IsNaN(b) || math.IsInf(b, 0) {
			panic("telemetry: histogram bounds must be finite")
		}
		if i > 0 && bounds[i-1] == b {
			panic(fmt.Sprintf("telemetry: duplicate histogram bound %v", b))
		}
	}
	h := &Histogram{
		bounds: append([]float64(nil), bounds...),
		counts: make([]uint64, len(bounds)+1),
	}
	return h
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	i := sort.SearchFloat64s(h.bounds, v) // first bound >= v, i.e. v <= bounds[i]
	h.mu.Lock()
	h.counts[i]++
	h.sum += v
	h.count++
	h.mu.Unlock()
}

// Bounds returns a copy of the finite bucket upper bounds.
func (h *Histogram) Bounds() []float64 {
	return append([]float64(nil), h.bounds...)
}

// snapshot copies the whole state under one lock acquisition, so its counts,
// sum and count describe the same observations even while Observe runs.
func (h *Histogram) snapshot() HistogramSnapshot {
	h.mu.Lock()
	defer h.mu.Unlock()
	return HistogramSnapshot{
		Bounds: h.Bounds(),
		Counts: append([]uint64(nil), h.counts...),
		Sum:    jsonSafe(h.sum),
		Count:  h.count,
	}
}

// Count returns the total number of observations.
func (h *Histogram) Count() uint64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.count
}
