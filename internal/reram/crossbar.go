package reram

import (
	"fmt"

	"pipelayer/internal/parallel"
	"pipelayer/internal/spike"
)

// Stats accumulates the device-level event counts the energy model consumes.
type Stats struct {
	// InputSpikes is the number of spikes driven into word lines (reads).
	InputSpikes int
	// OutputSpikes is the number of spikes fired by Integration-and-Fire units.
	OutputSpikes int
	// CellWrites is the number of cell programming operations.
	CellWrites int
}

// Add accumulates another Stats into s.
func (s *Stats) Add(o Stats) {
	s.InputSpikes += o.InputSpikes
	s.OutputSpikes += o.OutputSpikes
	s.CellWrites += o.CellWrites
}

// Crossbar is a Rows×Cols ReRAM array. Word lines (rows) carry the
// spike-coded input vector; each bit line (column) sums the currents of its
// cells, so one analog pass computes inputᵀ·G for all columns — the paper's
// in-situ matrix–vector multiplication.
type Crossbar struct {
	Rows, Cols int
	cells      []Cell // row-major
	stats      Stats
}

// NewCrossbar allocates an ideal crossbar.
func NewCrossbar(rows, cols int) *Crossbar {
	if rows <= 0 || cols <= 0 {
		panic(fmt.Sprintf("reram: invalid crossbar size %dx%d", rows, cols))
	}
	return &Crossbar{Rows: rows, Cols: cols, cells: make([]Cell, rows*cols)}
}

// ProgramCodes writes a full row-major code matrix into the array. Each cell
// write is counted for the energy model (the paper's spike driver doubles as
// the write driver, Section 4.2.1).
func (x *Crossbar) ProgramCodes(codes []uint8) {
	if len(codes) != x.Rows*x.Cols {
		panic(fmt.Sprintf("reram: ProgramCodes got %d codes for %dx%d array", len(codes), x.Rows, x.Cols))
	}
	for i, c := range codes {
		x.cells[i].Program(c)
	}
	x.stats.CellWrites += len(codes)
}

// MatVecSpike performs the spike-domain matrix–vector multiplication: the
// input codes (one per row, inBits wide) are encoded as weighted spike
// trains, driven through the word lines, and each column's current is
// integrated and fired into a digital count. Returns one count per column.
func (x *Crossbar) MatVecSpike(inputCodes []uint64, inBits int) []int {
	if len(inputCodes) != x.Rows {
		panic(fmt.Sprintf("reram: MatVecSpike got %d inputs for %d rows", len(inputCodes), x.Rows))
	}
	trains := spike.EncodeVector(inputCodes, inBits)
	out := make([]int, x.Cols)
	inSpikes := make([]int, x.Cols)
	// Bit lines integrate independently — exactly the hardware's column
	// parallelism — so columns chunk across the worker pool, each chunk with
	// its own conductance buffer and IF units. The stats counters accumulate
	// serially afterwards so they match the serial path exactly.
	parallel.Default().For(x.Cols, parallel.Grain(x.Rows*inBits), func(lo, hi int) {
		col := make([]float64, x.Rows)
		for j := lo; j < hi; j++ {
			for i := 0; i < x.Rows; i++ {
				col[i] = x.cells[i*x.Cols+j].Conductance()
			}
			f := spike.NewIntegrateFire(1)
			out[j], inSpikes[j] = spike.DotProduct(trains, col, f)
		}
	})
	for j, count := range out {
		// Input spikes are physically shared across all bit lines of the
		// array; charge them once (for j == 0) rather than per column.
		if j == 0 {
			x.stats.InputSpikes += inSpikes[0]
		}
		x.stats.OutputSpikes += count
	}
	return out
}

// Stats returns the accumulated event counts.
func (x *Crossbar) Stats() Stats { return x.stats }

// ResetStats clears the event counters.
func (x *Crossbar) ResetStats() { x.stats = Stats{} }
