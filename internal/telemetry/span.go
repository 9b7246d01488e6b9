package telemetry

import (
	"sync"
	"time"
)

// Span accumulates the durations and the count of one named region of code.
// A span keeps no clock: the caller reads the region's start and end on its
// own clock, the same two readings it gives any trace event of the region,
// and adds the difference. The hot path is one lock per region:
//
//	s := reg.Span("solve")
//	for ... { t0 := clock(); work(); s.Add(time.Duration(clock() - t0)) }
type Span struct {
	mu sync.Mutex
	ns int64 // total elapsed nanoseconds
	n  int64 // completed timings
}

// Add records one completed timing of duration d.
func (s *Span) Add(d time.Duration) {
	s.mu.Lock()
	s.ns += int64(d)
	s.n++
	s.mu.Unlock()
}

// snapshot reads the count and the total under one lock, so the two
// describe the same timings even while Add runs.
func (s *Span) snapshot() (n int64, total time.Duration) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.n, time.Duration(s.ns)
}

// Count returns the number of completed timings.
func (s *Span) Count() int64 {
	n, _ := s.snapshot()
	return n
}

// Total returns the accumulated wall-clock time.
func (s *Span) Total() time.Duration {
	_, total := s.snapshot()
	return total
}

// Mean returns the average duration per timing (0 if none).
func (s *Span) Mean() time.Duration { return mean(s.snapshot()) }

func mean(n int64, total time.Duration) time.Duration {
	if n == 0 {
		return 0
	}
	return total / time.Duration(n)
}
