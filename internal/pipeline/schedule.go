package pipeline

import "fmt"

// OpKind is what one scheduled operation computes.
type OpKind uint8

const (
	// Forward runs layer l's forward arrays A_l: d_l from d_{l−1}.
	Forward OpKind = iota
	// OutputError runs the output-error unit ErrL: δ_L from d_L and the
	// label.
	OutputError
	// Backward runs layer l's error arrays A_lE and derivative arrays A_lD,
	// which fire in the same cycle from the same inputs δ_l and d_{l−1}:
	// A_lE computes δ_{l−1} (l > 1) and A_lD computes ∂W_l.
	Backward
	// Update applies the batch's accumulated ∂W to every layer.
	Update
)

// Op is one scheduled operation: its kind, the 1-based layer it runs (L for
// OutputError, 0 for Update) and the 0-based image it serves (the batch's
// last image for Update).
type Op struct {
	Kind  OpKind
	Layer int
	Image int
}

// Schedule expands cfg into its operations bucketed by cycle: element c−1
// holds the ops of cycle c, in image order and, per image, forward 1..L,
// output error, backward L..1, then the batch update. From an image's entry
// cycle e, its ops run at
//
//	Forward l:     e + l − 1
//	OutputError:   e + L
//	Backward l:    e + 2L − l + 1
//	Update:        e + 2L + 1   (after the last image of a batch)
//
// so a training image occupies 2L+1 cycles, Figure 3's T1..T7 for L = 3,
// and d_l, written at e+l−1 and last read by Backward l+1 at e+2L−l, lives
// 2(L−l)+1 cycles: the buffer depth of Section 3.3. Testing runs only the
// forward ops. Schedule panics on a configuration no run can have.
func Schedule(cfg Config) [][]Op {
	if cfg.L <= 0 || cfg.N <= 0 {
		panic("pipeline: L and N must be positive")
	}
	if cfg.Training && (cfg.B <= 0 || cfg.N%cfg.B != 0) {
		panic(fmt.Sprintf("pipeline: batch %d must divide N %d", cfg.B, cfg.N))
	}
	L := cfg.L
	var s [][]Op
	at := func(c int, op Op) {
		for len(s) < c {
			s = append(s, nil)
		}
		s[c-1] = append(s[c-1], op)
	}
	for g := 0; g < cfg.N; g++ {
		e := cfg.entry(g)
		for l := 1; l <= L; l++ {
			at(e+l-1, Op{Forward, l, g})
		}
		if !cfg.Training {
			continue
		}
		at(e+L, Op{OutputError, L, g})
		for l := L; l >= 1; l-- {
			at(e+2*L-l+1, Op{Backward, l, g})
		}
		if (g+1)%cfg.B == 0 {
			at(e+2*L+1, Op{Update, 0, g})
		}
	}
	return s
}

// entry is image g's first cycle. Pipelined training (Figure 6) admits a
// batch's images one per cycle and the next batch only after the update,
// every 2L+B+1 cycles; sequential training (Figure 7a) runs one image's
// 2L+1 cycles at a time plus one update cycle per batch. Pipelined testing
// admits an image every cycle, sequential testing every L cycles.
func (cfg Config) entry(g int) int {
	L := cfg.L
	switch {
	case cfg.Training && cfg.Pipelined:
		return g/cfg.B*(2*L+cfg.B+1) + g%cfg.B + 1
	case cfg.Training:
		return g*(2*L+1) + g/cfg.B + 1
	case cfg.Pipelined:
		return g + 1
	}
	return g*L + 1
}

// UnitNames lists the 3L+1 hardware units of an L-layer schedule in the
// Figure 6 chart's row order: forward arrays A1..AL, the output-error unit
// ErrL, error arrays A_LE..A2E, derivative arrays A_LD..A1D and the update
// unit Upd. Op.Units indexes this list.
func UnitNames(L int) []string {
	names := make([]string, 0, 3*L+1)
	for l := 1; l <= L; l++ {
		names = append(names, fmt.Sprintf("A%d", l))
	}
	names = append(names, "ErrL")
	for l := L; l >= 2; l-- {
		names = append(names, fmt.Sprintf("A%dE", l))
	}
	for l := L; l >= 1; l-- {
		names = append(names, fmt.Sprintf("A%dD", l))
	}
	return append(names, "Upd")
}

// Units returns the indices into UnitNames(L) of the n units op occupies:
// one, or two for a Backward op above layer 1, whose A_lE and A_lD fire
// together.
func (op Op) Units(L int) (units [2]int, n int) {
	switch op.Kind {
	case Forward:
		return [2]int{op.Layer - 1}, 1
	case OutputError:
		return [2]int{L}, 1
	case Backward:
		if op.Layer > 1 {
			return [2]int{2*L + 1 - op.Layer, 3*L - op.Layer}, 2
		}
		return [2]int{3*L - 1}, 1
	}
	return [2]int{3 * L}, 1
}
