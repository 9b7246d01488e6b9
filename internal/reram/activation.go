package reram

import (
	"fmt"
	"math"
)

// LUT is the activation component's configurable look-up table (Section
// 4.2.3): the activation function sampled over a bounded input domain.
// Inputs outside [Lo, Hi] clamp to the boundary entries.
type LUT struct {
	Lo, Hi    float64
	entries   []float64
	exactReLU bool
}

// NewLUT samples f at n uniformly spaced points on [lo, hi].
func NewLUT(f func(float64) float64, lo, hi float64, n int) *LUT {
	if n < 2 {
		panic(fmt.Sprintf("reram: LUT needs at least 2 entries, got %d", n))
	}
	if hi <= lo {
		panic("reram: LUT requires hi > lo")
	}
	l := &LUT{Lo: lo, Hi: hi, entries: make([]float64, n)}
	for i := range l.entries {
		x := lo + (hi-lo)*float64(i)/float64(n-1)
		l.entries[i] = f(x)
	}
	return l
}

// Lookup returns the nearest-entry approximation of the sampled function.
// The rectifier (ReLULUT) is exact: hardware realizes it as a sign check.
func (l *LUT) Lookup(x float64) float64 {
	if v, ok := l.lookupExact(x); ok {
		return v
	}
	if x <= l.Lo {
		return l.entries[0]
	}
	if x >= l.Hi {
		return l.entries[len(l.entries)-1]
	}
	i := int(math.Round((x - l.Lo) / (l.Hi - l.Lo) * float64(len(l.entries)-1)))
	return l.entries[i]
}

// Size returns the number of LUT entries.
func (l *LUT) Size() int { return len(l.entries) }

// ReLULUT builds the rectifier LUT used by default in PipeLayer. Because
// ReLU is piecewise linear, the LUT realizes it exactly on its grid; the
// implementation special-cases it to be exact everywhere.
func ReLULUT() *LUT {
	// ReLU is exact: represent it with a two-entry marker LUT and handle it
	// in Lookup via the exactReLU flag.
	l := NewLUT(func(x float64) float64 {
		if x > 0 {
			return x
		}
		return 0
	}, -1, 1, 2)
	l.exactReLU = true
	return l
}

// exactReLU marks the hardware rectifier, which is exact (a sign check)
// rather than table-sampled.
func (l *LUT) lookupExact(x float64) (float64, bool) {
	if l.exactReLU {
		if x > 0 {
			return x, true
		}
		return 0, true
	}
	return 0, false
}

// SigmoidLUT builds a sampled sigmoid over [-8, 8] with n entries.
func SigmoidLUT(n int) *LUT {
	return NewLUT(func(x float64) float64 { return 1 / (1 + math.Exp(-x)) }, -8, 8, n)
}
