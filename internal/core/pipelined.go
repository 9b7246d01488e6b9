package core

import (
	"errors"
	"fmt"
	"sync"

	"pipelayer/internal/nn"
	"pipelayer/internal/parallel"
	"pipelayer/internal/telemetry"
	"pipelayer/internal/tensor"
)

// Functional pipelined execution: this file plays the Figure 6 schedule with
// real tensors. Up to B images are in flight simultaneously; every
// inter-stage d value lives in a circular ring of 2(L−l)+1 entries exactly
// as Section 3.3 prescribes; every unit performs at most one operation per
// logical cycle; and because the weights are frozen within a batch and the
// per-layer gradient accumulation order matches the sequential machine's,
// the result is bit-identical to sequential execution —
// TestPipelinedTrainMatchesSequential verifies it weight-for-weight.
//
// Per-image cycle offsets (entry cycle e, stages 1..L):
//
//	forward stage k:        e + k − 1        writes ring d_k, peeks d_{k−1}
//	output error (ErrL):    e + L            consumes d_L, writes δ_L
//	error+derivative C_l:   e + 2L − l       consumes δ_{l+1} and d_l,
//	  (l = L−1 .. 1)                         writes δ_l
//	first-stage gradient:   e + 2L           consumes δ_1
//	batch update:           e + 2L + 1       (last image of the batch)
//
// so d_l written at e+l−1 is last read at e+2L−l — a gap of 2(L−l)+1
// cycles, the paper's ring depth, with the consume-before-write ordering
// that lets the slot be rewritten in the very cycle it drains.
type ring struct {
	name string
	// mu serializes the live-flag scans against concurrent same-cycle ops:
	// different ops touch different entries, but peek's scan reads every
	// entry's live flag while consume clears another's.
	mu      sync.Mutex
	entries []ringEntry
	wp      int
}

type ringEntry struct {
	image int
	data  *tensor.Tensor
	live  bool
}

func newRing(name string, depth int) *ring {
	if depth <= 0 {
		panic("core: ring depth must be positive")
	}
	return &ring{name: name, entries: make([]ringEntry, depth)}
}

func (r *ring) write(image int, t *tensor.Tensor) {
	r.mu.Lock()
	defer r.mu.Unlock()
	e := &r.entries[r.wp]
	if e.live {
		panic(fmt.Sprintf("core: ring %s overwrites live data of image %d with image %d", r.name, e.image, image))
	}
	*e = ringEntry{image: image, data: t, live: true}
	r.wp = (r.wp + 1) % len(r.entries)
}

// peek returns image's live entry without retiring it.
func (r *ring) peek(image int) *tensor.Tensor {
	r.mu.Lock()
	defer r.mu.Unlock()
	for i := range r.entries {
		e := &r.entries[i]
		if e.live && e.image == image {
			return e.data
		}
	}
	panic(fmt.Sprintf("core: ring %s has no live entry for image %d", r.name, image))
}

// consume retires image's entry and returns its tensor.
func (r *ring) consume(image int) *tensor.Tensor {
	r.mu.Lock()
	defer r.mu.Unlock()
	for i := range r.entries {
		e := &r.entries[i]
		if e.live && e.image == image {
			e.live = false
			return e.data
		}
	}
	panic(fmt.Sprintf("core: ring %s has no live entry for image %d", r.name, image))
}

// pipelinedOp is one scheduled operation.
type pipelinedOp struct {
	cycle int
	kind  opKind
	image int
	stage int // 1-based stage index where applicable
}

type opKind int

const (
	opForward opKind = iota
	opErrLast
	opErrChain // C_l: error through stage l+1's arrays + stage l's mask
	opGradFirst
	opUpdate
)

// TrainPipelined runs the same training computation as Train but through
// the cycle-by-cycle pipelined schedule with ring-buffered intermediates.
func (a *Accelerator) TrainPipelined(samples []nn.Sample, batch int, lr float64) (Report, error) {
	if !a.loaded {
		return Report{}, errors.New("core: Train before Weight_load")
	}
	if batch <= 0 || len(samples) == 0 || len(samples)%batch != 0 {
		return Report{}, fmt.Errorf("core: sample count %d must be a positive multiple of batch %d", len(samples), batch)
	}
	if err := a.checkTrain(samples); err != nil {
		return Report{}, err
	}
	L := len(a.engines)

	dRing := make([]*ring, L+1)
	for l := 1; l < L; l++ {
		dRing[l] = newRing(fmt.Sprintf("d%d", l), 2*(L-l)+1)
	}
	dRing[L] = newRing(fmt.Sprintf("d%d", L), 2)
	deltaRing := make([]*ring, L+1)
	for l := 1; l <= L; l++ {
		deltaRing[l] = newRing(fmt.Sprintf("delta%d", l), 2)
	}

	ops := buildPipelinedSchedule(len(samples), batch, L)
	byCycle := map[int][]pipelinedOp{}
	last := 0
	for _, op := range ops {
		byCycle[op.cycle] = append(byCycle[op.cycle], op)
		if op.cycle > last {
			last = op.cycle
		}
	}

	totalLoss := 0.0
	classes := a.spec.Classes
	// Per-stage spans: forward ops time against their stage; each combined
	// error op (opErrLast/opErrChain/opGradFirst) times against the stage
	// whose error arrays execute it.
	tel := a.stageTelemetrySlice()
	pool := parallel.Default()
	for c := 1; c <= last; c++ {
		// All reads/consumes execute during the cycle; the produced tensors
		// are written to the rings at the cycle boundary (consume-before-
		// write, Section 3.3).
		//
		// Within a cycle every op runs on a distinct unit — the schedule
		// places at most one op per engine stage per cycle, ops of one cycle
		// touch different ring entries, and per-engine gradient accumulation
		// stays ordered by the serial cycle loop — so a cycle's ops fan out
		// across the worker pool exactly like the hardware's concurrent
		// stages. Each op records its ring writes and loss term in its own
		// slot; the slots drain in op order at the cycle boundary, keeping
		// ring write-pointer order and loss summation order identical to the
		// serial schedule. Weight updates (always alone in their cycle) run
		// inline.
		type pendingWrite struct {
			ring  *ring
			image int
			data  *tensor.Tensor
		}
		ops := byCycle[c]
		writes := make([][]pendingWrite, len(ops))
		losses := make([]float64, len(ops))
		runOp := func(oi int) {
			op := ops[oi]
			ft := a.flight.Now()
			var tm telemetry.SpanTimer
			timed := false
			if tel != nil {
				switch op.kind {
				case opForward:
					tm, timed = tel[op.stage-1].forward.Start(), true
				case opErrLast:
					tm, timed = tel[L-1].backward.Start(), true
				case opErrChain:
					tm, timed = tel[op.stage].backward.Start(), true
				case opGradFirst:
					tm, timed = tel[0].backward.Start(), true
				}
			}
			switch op.kind {
			case opForward:
				var x *tensor.Tensor
				if op.stage == 1 {
					x = samples[op.image].Input
				} else {
					x = dRing[op.stage-1].peek(op.image)
				}
				y := a.engines[op.stage-1].forward([]*tensor.Tensor{x})[0]
				writes[oi] = append(writes[oi], pendingWrite{dRing[op.stage], op.image, y})
			case opErrLast:
				y := dRing[L].consume(op.image)
				t := nn.OneHot(samples[op.image].Label, classes)
				losses[oi] = a.loss.Loss(y, t)
				raw := a.loss.Grad(y, t)
				g := a.engines[L-1].maskError(raw, y)
				writes[oi] = append(writes[oi], pendingWrite{deltaRing[L], op.image, g})
			case opErrChain:
				l := op.stage // producing δ_l from δ_{l+1}
				delta := deltaRing[l+1].consume(op.image)
				dl := dRing[l].consume(op.image) // final user of d_l
				raw := errorBackward(a.engines[l], delta, dl)
				g := a.engines[l-1].maskError(raw, dl)
				writes[oi] = append(writes[oi], pendingWrite{deltaRing[l], op.image, g})
			case opGradFirst:
				delta := deltaRing[1].consume(op.image)
				// Only ∂W: nothing upstream consumes the first stage's error.
				a.engines[0].derivative(delta, samples[op.image].Input)
			case opUpdate:
				a.updateStages(tel, lr, batch)
			}
			if timed {
				tm.Stop()
			}
			// Flight spans replay the Figure 6 schedule from the live machine:
			// every op times against the stage whose arrays execute it,
			// attributed to its 1-based image ordinal.
			switch op.kind {
			case opForward:
				a.flight.Record("core_stage_forward", uint64(op.image)+1, flightTrainTrackBase+uint64(op.stage-1), ft, int64(op.stage-1))
			case opErrLast:
				a.flight.Record("core_stage_backward", uint64(op.image)+1, flightTrainTrackBase+uint64(L-1), ft, int64(L-1))
			case opErrChain:
				a.flight.Record("core_stage_backward", uint64(op.image)+1, flightTrainTrackBase+uint64(op.stage), ft, int64(op.stage))
			case opGradFirst:
				a.flight.Record("core_stage_backward", uint64(op.image)+1, flightTrainTrackBase, ft, 0)
			}
		}
		serial := len(ops) == 1
		for _, op := range ops {
			if op.kind == opUpdate {
				serial = true // updates mutate every engine; never overlap them
			}
		}
		if serial {
			for oi := range ops {
				runOp(oi)
			}
		} else {
			tasks := make([]func(), len(ops))
			for oi := range ops {
				oi := oi
				tasks[oi] = func() { runOp(oi) }
			}
			pool.Run(tasks)
		}
		for oi := range ops {
			for _, w := range writes[oi] {
				w.ring.write(w.image, w.data)
			}
			totalLoss += losses[oi]
		}
		// Cycle boundary — the only serial point: age every array by one
		// pipeline cycle and run the periodic drift refresh. The pipelined
		// machine ticks per cycle (its natural time base) where the serial
		// executor ticks per image, so drifted trajectories differ between
		// the two executors by design; at zero drift both are untouched.
		a.tickEngines(1)
		a.maybeRefresh(int64(c))
	}

	n := len(samples)
	a.countImages("core_train_images_total", n)
	return Report{
		Images:   n,
		MeanLoss: totalLoss / float64(n),
		Cycles:   last,
		Seconds:  a.model.TrainingTime(a.spec, a.plans, n, batch, true),
		Energy:   a.model.TrainingEnergy(a.spec, a.plans, n, batch, true),
	}, nil
}

// buildPipelinedSchedule expands the Figure 6 offsets over all images.
func buildPipelinedSchedule(n, batch, L int) []pipelinedOp {
	var ops []pipelinedOp
	period := 2*L + batch + 1
	for img := 0; img < n; img++ {
		b, i := img/batch, img%batch
		e := b*period + i + 1
		for k := 1; k <= L; k++ {
			ops = append(ops, pipelinedOp{cycle: e + k - 1, kind: opForward, image: img, stage: k})
		}
		ops = append(ops, pipelinedOp{cycle: e + L, kind: opErrLast, image: img, stage: L})
		for l := L - 1; l >= 1; l-- {
			ops = append(ops, pipelinedOp{cycle: e + 2*L - l, kind: opErrChain, image: img, stage: l})
		}
		ops = append(ops, pipelinedOp{cycle: e + 2*L, kind: opGradFirst, image: img, stage: 1})
		if (img+1)%batch == 0 {
			ops = append(ops, pipelinedOp{cycle: e + 2*L + 1, kind: opUpdate, image: img})
		}
	}
	return ops
}
