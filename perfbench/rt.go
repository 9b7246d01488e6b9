package main

import (
	"math"
	"runtime/metrics"
	"syscall"
	"time"
)

// runtime/metrics names the benchmark reads.
const (
	rtAllocBytes = "/gc/heap/allocs:bytes"
	rtHeapLive   = "/gc/heap/live:bytes"
	rtGCCycles   = "/gc/cycles/total:gc-cycles"
	rtGCCPU      = "/cpu/classes/gc/total:cpu-seconds"
	rtGCPauses   = "/sched/pauses/total/gc:seconds"
	rtSchedLat   = "/sched/latencies:seconds"
)

var rtNames = []string{rtAllocBytes, rtHeapLive, rtGCCycles, rtGCCPU, rtGCPauses, rtSchedLat}

// rtSnap is one reading of the runtime metrics plus the process CPU time.
type rtSnap struct {
	samples []metrics.Sample
	cpu     time.Duration // user + system CPU of the process
}

func readRT() rtSnap {
	s := make([]metrics.Sample, len(rtNames))
	for i, n := range rtNames {
		s[i].Name = n
	}
	metrics.Read(s)
	var ru syscall.Rusage
	var cpu time.Duration
	if syscall.Getrusage(syscall.RUSAGE_SELF, &ru) == nil {
		cpu = time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
	}
	return rtSnap{samples: s, cpu: cpu}
}

func (r rtSnap) sample(name string) metrics.Value {
	for _, s := range r.samples {
		if s.Name == name {
			return s.Value
		}
	}
	return metrics.Value{}
}

func (r rtSnap) value(name string) float64 {
	v := r.sample(name)
	switch v.Kind() {
	case metrics.KindUint64:
		return float64(v.Uint64())
	case metrics.KindFloat64:
		return v.Float64()
	}
	return math.NaN()
}

// delta is r − before for a scalar metric.
func (r rtSnap) delta(before rtSnap, name string) float64 {
	return r.value(name) - before.value(name)
}

// histQuantile is the q-quantile of the observations a runtime histogram
// gained between before and r (upper bucket bound; 0 when none).
func (r rtSnap) histQuantile(before rtSnap, name string, q float64) float64 {
	a, b := before.sample(name), r.sample(name)
	if a.Kind() != metrics.KindFloat64Histogram || b.Kind() != metrics.KindFloat64Histogram {
		return math.NaN()
	}
	ha, hb := a.Float64Histogram(), b.Float64Histogram()
	counts := make([]uint64, len(hb.Counts))
	total := uint64(0)
	for i := range counts {
		counts[i] = hb.Counts[i] - ha.Counts[i]
		total += counts[i]
	}
	if total == 0 {
		return 0
	}
	target := uint64(math.Ceil(q * float64(total)))
	cum := uint64(0)
	for i, c := range counts {
		cum += c
		if cum >= target {
			up := hb.Buckets[i+1]
			if math.IsInf(up, 1) {
				up = hb.Buckets[i]
			}
			return up
		}
	}
	return hb.Buckets[len(hb.Buckets)-1]
}
