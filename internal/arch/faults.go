package arch

import (
	"pipelayer/internal/fault"
	"pipelayer/internal/fixed"
	"pipelayer/internal/reram"
)

// Fault support for the fast functional model, and the repository's only
// device fault model: internal/reram is the ideal spike-exact reference. A
// Quantized array with an attached fault.Injector models the device at the
// resolution the functional model works at: every 16-bit weight is
// physically 8 nibble cells (4 resolution groups × pos/neg array), so the
// stuck-at map is drawn per nibble slot and corrupted weights are recomposed
// nibble-wise. Endurance and transient write failures act on the weight cell
// (the 8-nibble group programs as one unit): a failed write is retried up to
// Config.Retries times, and a cell that wears out or exhausts its retries
// freezes at the codes it last held. Damaged columns are remapped to spare
// columns and, once spares run out, degraded to exact digital emulation or
// left corrupt (ColumnState).
//
// All fault state mutates inside Program/AttachFaults/Tick only — serial in
// every execution path — so the parallel MatVec readout stays race-free and
// bit-identical across worker counts.

// ColumnState classifies one logical column of a faulty array.
type ColumnState uint8

const (
	// ColHealthy computes on its original physical column.
	ColHealthy ColumnState = iota
	// ColRemapped computes on a spare physical column.
	ColRemapped
	// ColDegraded is emulated digitally (exact ideal result) because every
	// spare was exhausted and graceful degradation is enabled.
	ColDegraded
	// ColCorrupt keeps computing on faulty cells: no spare was available
	// and degradation is disabled, so its outputs are wrong.
	ColCorrupt
)

// nibblesPerCell is the number of physical ReRAM cells behind one 16-bit
// weight: fixed.Groups 4-bit slices in each of the pos/neg arrays.
const nibblesPerCell = fixed.Groups * 2

// qFaults is the fault state of one Quantized array.
type qFaults struct {
	inj      *fault.Injector
	id       uint64
	physCols int // Cols + spares
	// stuck forces a nibble slot to 0 (stuck-off) or 15 (stuck-on);
	// stuckCells marks weight cells owning at least one stuck nibble.
	stuck      map[int]uint8
	stuckCells map[int]bool
	// frozen marks weight cells dead from wear-out or retry exhaustion;
	// phys holds the signed code every physical weight cell actually
	// carries (frozen cells stop tracking new programs).
	frozen map[int]bool
	phys   []int32
	writes []int64
	// remap/class/nextSpare implement spare-column repair per logical column.
	remap     []int
	class     []ColumnState
	nextSpare int
	// eff is the column-major effective readout (stuck overrides applied,
	// remap resolved, degraded columns ideal) the MatVec hot loop consumes.
	eff   []float64
	age   int64
	drift float64
}

// AttachFaults wires the injector into the array under the given array id,
// builds the static stuck-at map, and re-programs the current weights through
// the fault path. Returns the number of stuck nibble cells. A nil injector
// detaches. Callers must pick a unique id per array.
func (q *Quantized) AttachFaults(inj *fault.Injector, id uint64) int {
	if inj == nil {
		q.faults = nil
		return 0
	}
	cfg := inj.Config()
	f := &qFaults{
		inj:        inj,
		id:         id,
		physCols:   q.Cols + cfg.Spares,
		stuck:      make(map[int]uint8),
		stuckCells: make(map[int]bool),
		frozen:     make(map[int]bool),
		remap:      make([]int, q.Cols),
		class:      make([]ColumnState, q.Cols),
		eff:        make([]float64, q.Rows*q.Cols),
		drift:      1,
	}
	f.phys = make([]int32, q.Rows*f.physCols)
	f.writes = make([]int64, q.Rows*f.physCols)
	for j := range f.remap {
		f.remap[j] = j
	}
	n := 0
	for cell := 0; cell < q.Rows*f.physCols; cell++ {
		for k := 0; k < nibblesPerCell; k++ {
			slot := cell*nibblesPerCell + k
			switch inj.StuckAt(id, slot) {
			case fault.StuckOff:
				f.stuck[slot] = 0
			case fault.StuckOn:
				f.stuck[slot] = reram.MaxCellCode
			default:
				continue
			}
			f.stuckCells[cell] = true
			n++
		}
	}
	inj.NoteInjected(int64(n))
	q.faults = f
	f.refresh(q)
	return n
}

// Faulty reports whether a fault injector is attached.
func (q *Quantized) Faulty() bool { return q.faults != nil }

// ColumnStates returns the per-logical-column fault classification (all
// healthy without an injector).
func (q *Quantized) ColumnStates() []ColumnState {
	out := make([]ColumnState, q.Cols)
	if q.faults != nil {
		copy(out, q.faults.class)
	}
	return out
}

// Tick advances the array's drift age by n compute cycles. Call only from
// serial sections, never concurrently with MatVec.
func (q *Quantized) Tick(n int64) {
	if f := q.faults; f != nil && f.inj.Config().Drift > 0 && n > 0 {
		f.age += n
		f.drift = f.inj.DriftFactor(f.age)
	}
}

// refresh pushes the array's intended codes through the fault model: every
// live column is (re)written to its mapped physical column, damage found by
// the writes triggers remapping/degrading, the effective readout is rebuilt,
// and the drift clock restarts (a full reprogram restores conductances).
func (f *qFaults) refresh(q *Quantized) {
	for j := 0; j < q.Cols; j++ {
		if f.class[j] == ColDegraded {
			continue // emulated digitally; no point wearing dead silicon
		}
		f.programColumn(q, j, f.remap[j])
	}
	f.reclassify(q)
	f.rebuild(q)
	f.age, f.drift = 0, 1
}

// programColumn writes logical column j into physical column phys, one
// weight cell at a time through the endurance/transient-failure model.
func (f *qFaults) programColumn(q *Quantized, j, phys int) {
	cfg := f.inj.Config()
	for r := 0; r < q.Rows; r++ {
		cell := r*f.physCols + phys
		if f.frozen[cell] {
			continue
		}
		code := q.codes[r*q.Cols+j]
		for attempt := 1; ; attempt++ {
			f.writes[cell]++
			if cfg.Endurance > 0 && f.writes[cell] > cfg.Endurance {
				f.frozen[cell] = true
				f.inj.NoteWornOut(1)
				break
			}
			if !f.inj.WriteFails(f.id, cell, f.writes[cell]) {
				f.phys[cell] = code
				break
			}
			if attempt > cfg.Retries {
				f.frozen[cell] = true
				f.inj.NoteWriteFailed(1)
				break
			}
			f.inj.NoteRetried(1)
		}
	}
}

// cellDamaged reports whether a physical weight cell cannot faithfully hold
// arbitrary codes.
func (f *qFaults) cellDamaged(cell int) bool {
	return f.stuckCells[cell] || f.frozen[cell]
}

// columnFaulty reports whether any weight cell of the physical column is
// damaged — the repair trigger.
func (f *qFaults) columnFaulty(q *Quantized, phys int) bool {
	for r := 0; r < q.Rows; r++ {
		if f.cellDamaged(r*f.physCols + phys) {
			return true
		}
	}
	return false
}

// reclassify applies the spare-column repair policy after a program: faulty
// live columns move to the next healthy spare (and are written there); once
// spares run out the column degrades to digital emulation or — with degrade
// disabled — is left corrupt. Degraded/corrupt are terminal; a remapped
// column whose spare later dies is rerouted again.
func (f *qFaults) reclassify(q *Quantized) {
	spares := f.physCols - q.Cols
	for j := 0; j < q.Cols; j++ {
		if f.class[j] == ColDegraded || f.class[j] == ColCorrupt {
			continue
		}
		if !f.columnFaulty(q, f.remap[j]) {
			continue
		}
		remapped := false
		for f.nextSpare < spares {
			phys := q.Cols + f.nextSpare
			f.nextSpare++
			if f.columnFaulty(q, phys) {
				continue // spare born bad — skip it for good
			}
			f.remap[j] = phys
			f.class[j] = ColRemapped
			f.inj.NoteRemapped(1)
			f.programColumn(q, j, phys)
			remapped = true
			break
		}
		if remapped {
			continue
		}
		if f.inj.Config().Degrade {
			f.class[j] = ColDegraded
			f.inj.NoteDegraded(1)
		} else {
			f.class[j] = ColCorrupt
			f.inj.NoteCorrupted(1)
		}
	}
}

// effCode returns the effective signed code a physical weight cell reads as:
// the code it holds, with any stuck nibbles forced in the recomposition.
func (f *qFaults) effCode(cell int) float64 {
	c := f.phys[cell]
	if !f.stuckCells[cell] {
		return float64(c)
	}
	neg := c < 0
	mag := c
	if neg {
		mag = -mag
	}
	segs := fixed.Decompose16(uint16(mag))
	var posN, negN [fixed.Groups]uint8
	if neg {
		negN = segs
	} else {
		posN = segs
	}
	base := cell * nibblesPerCell
	e := int32(0)
	for g := 0; g < fixed.Groups; g++ {
		if v, ok := f.stuck[base+2*g]; ok {
			posN[g] = v
		}
		if v, ok := f.stuck[base+2*g+1]; ok {
			negN[g] = v
		}
		e += (int32(posN[g]) - int32(negN[g])) << uint(fixed.CellBits*g)
	}
	return float64(e)
}

// rebuild refreshes the column-major effective readout: degraded columns use
// the ideal intended codes (digital emulation), everything else reads its
// mapped physical column through the stuck overrides.
func (f *qFaults) rebuild(q *Quantized) {
	for j := 0; j < q.Cols; j++ {
		col := f.eff[j*q.Rows : (j+1)*q.Rows]
		if f.class[j] == ColDegraded {
			for r := range col {
				col[r] = float64(q.codes[r*q.Cols+j])
			}
			continue
		}
		phys := f.remap[j]
		for r := 0; r < q.Rows; r++ {
			col[r] = f.effCode(r*f.physCols + phys)
		}
	}
}
