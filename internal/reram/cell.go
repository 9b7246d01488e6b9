// Package reram models the ReRAM substrate of PipeLayer: metal-oxide
// resistive cells with 4-bit programmable conductance, crossbar arrays that
// perform analog matrix–vector multiplication driven by the spike package,
// the positive/negative array pairs and four-group resolution compensation of
// Sections 4.2.3 and 5.1, the activation component's configurable LUT, and
// the morphable/memory subarray abstraction of Section 3.
package reram

import (
	"fmt"
	"math/rand"
)

// CellLevels is the number of programmable conductance levels of one cell
// (4-bit cells, the paper's default).
const CellLevels = 16

// MaxCellCode is the largest programmable conductance code.
const MaxCellCode = CellLevels - 1

// Cell is one ReRAM cross-point device. Its conductance is a 4-bit code plus
// optional static device variation (programming inaccuracy), fixed at
// program time as in real arrays.
type Cell struct {
	code        uint8
	conductance float64
}

// Program sets the cell's conductance code (0..15). variation is the
// relative standard deviation of the programmed conductance (0 for ideal
// devices); rng supplies the randomness and may be nil when variation is 0.
func (c *Cell) Program(code uint8, variation float64, rng *rand.Rand) {
	if code > MaxCellCode {
		panic(fmt.Sprintf("reram: cell code %d exceeds %d", code, MaxCellCode))
	}
	c.code = code
	g := float64(code)
	if variation > 0 {
		if rng == nil {
			panic("reram: variation requires rng")
		}
		g *= 1 + variation*rng.NormFloat64()
		if g < 0 {
			g = 0
		}
	}
	c.conductance = g
}

// Code returns the programmed 4-bit code.
func (c *Cell) Code() uint8 { return c.code }

// Conductance returns the effective (possibly variation-perturbed) analog
// conductance in units of the per-level conductance step.
func (c *Cell) Conductance() float64 { return c.conductance }
