// Package trace renders the PipeLayer training schedule as an ASCII Gantt
// chart, the paper's Figure 6 visualization. It only draws: the ops and the
// hardware units they occupy come from internal/pipeline, whose schedule the
// cycle simulator and the functional pipelined executor play too. Each row
// is one hardware unit (forward arrays A_l, the output-error unit ErrL,
// error arrays A_lE, derivative arrays A_lD and the update unit); each
// column is one logical cycle; the glyph is the image index occupying the
// unit.
package trace

import (
	"bytes"
	"fmt"
	"strings"

	"pipelayer/internal/pipeline"
)

// Gantt renders the pipelined training schedule of L weighted layers for
// the first `cycles` logical cycles of a run with batch size B. Image
// indices print modulo 10 so the chart stays aligned. Non-positive
// dimensions are an error, not a panic, so CLI callers can report bad
// flags cleanly.
func Gantt(L, B, cycles int) (string, error) {
	if L <= 0 || B <= 0 || cycles <= 0 {
		return "", fmt.Errorf("trace: L, B and cycles must be positive, got L=%d B=%d cycles=%d", L, B, cycles)
	}
	// Images enter at most one per cycle, so the first `cycles` images,
	// rounded up to whole batches, fill the window, and the last of them
	// runs past it.
	n := (cycles + B - 1) / B * B
	sched := pipeline.Schedule(pipeline.Config{L: L, B: B, N: n, Pipelined: true, Training: true})
	names := pipeline.UnitNames(L)
	rows := make([][]byte, len(names))
	for i := range rows {
		rows[i] = bytes.Repeat([]byte{'.'}, cycles)
	}
	for c, ops := range sched[:cycles] {
		for _, op := range ops {
			glyph := byte('0' + op.Image%10)
			if op.Kind == pipeline.Update {
				glyph = '#'
			}
			units, k := op.Units(L)
			for _, u := range units[:k] {
				rows[u][c] = glyph
			}
		}
	}

	var sb strings.Builder
	sb.WriteString("      cycle ")
	for c := 1; c <= cycles; c++ {
		sb.WriteByte(byte('0' + c%10))
	}
	sb.WriteByte('\n')
	for i, name := range names {
		fmt.Fprintf(&sb, "%11s %s\n", name, rows[i])
	}
	return sb.String(), nil
}
