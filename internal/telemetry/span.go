package telemetry

import (
	"sync/atomic"
	"time"
)

// Span accumulates the durations and the count of one named region of code.
// A span keeps no clock: the caller reads the region's start and end on its
// own clock, the same two readings it gives any trace event of the region,
// and adds the difference. The hot path is two atomic adds per region:
//
//	s := reg.Span("solve")
//	for ... { t0 := clock(); work(); s.Add(time.Duration(clock() - t0)) }
type Span struct {
	ns atomic.Int64 // total elapsed nanoseconds
	n  atomic.Int64 // completed timings
}

// Add records one completed timing of duration d.
func (s *Span) Add(d time.Duration) {
	s.ns.Add(int64(d))
	s.n.Add(1)
}

// Count returns the number of completed timings.
func (s *Span) Count() int64 { return s.n.Load() }

// Total returns the accumulated wall-clock time.
func (s *Span) Total() time.Duration { return time.Duration(s.ns.Load()) }

// Mean returns the average duration per timing (0 if none).
func (s *Span) Mean() time.Duration {
	n := s.n.Load()
	if n == 0 {
		return 0
	}
	return time.Duration(s.ns.Load() / n)
}
