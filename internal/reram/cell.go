// Package reram is the ideal, spike-exact model of PipeLayer's ReRAM
// substrate: cells with 4-bit programmable conductance, crossbar arrays that
// perform analog matrix–vector multiplication driven by the spike package,
// the positive/negative array pairs and four-group resolution compensation of
// Sections 4.2.3 and 5.1, and the activation component's configurable LUT.
// It is the reference internal/arch's quantized readout is tested against
// bit for bit; device faults (stuck cells, drift, wear, write failures and
// their repair) are modeled once, in internal/arch's fault model.
package reram

import "fmt"

// CellLevels is the number of programmable conductance levels of one cell
// (4-bit cells, the paper's default).
const CellLevels = 16

// MaxCellCode is the largest programmable conductance code.
const MaxCellCode = CellLevels - 1

// Cell is one ideal ReRAM cross-point device: its conductance is its 4-bit
// code, in units of the per-level conductance step.
type Cell struct {
	code uint8
}

// Program sets the cell's conductance code (0..15).
func (c *Cell) Program(code uint8) {
	if code > MaxCellCode {
		panic(fmt.Sprintf("reram: cell code %d exceeds %d", code, MaxCellCode))
	}
	c.code = code
}

// Code returns the programmed 4-bit code.
func (c *Cell) Code() uint8 { return c.code }

// Conductance returns the analog conductance in units of the per-level
// conductance step.
func (c *Cell) Conductance() float64 { return float64(c.code) }
