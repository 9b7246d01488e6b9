package core

import (
	"errors"
	"fmt"

	"pipelayer/internal/nn"
	"pipelayer/internal/parallel"
	"pipelayer/internal/pipeline"
	"pipelayer/internal/tensor"
)

// Functional pipelined execution: TrainPipelined plays internal/pipeline's
// Figure 6 schedule with real tensors. Up to B images are in flight
// simultaneously; every inter-stage d value lives in the pipeline's
// circular buffer of 2(L−l)+1 entries exactly as Section 3.3 prescribes;
// every unit performs at most one operation per logical cycle; and because
// the weights are frozen within a batch and the per-layer gradient
// accumulation order matches the sequential machine's, the result is
// bit-identical to sequential execution — TestPipelinedTrainMatchesSequential
// verifies it weight-for-weight.

// pipelinedSlot carries one op of a cycle: the inputs its buffer reads
// resolved before the cycle's compute, and the result and loss term it
// leaves for the cycle boundary.
type pipelinedSlot struct {
	x, delta, out *tensor.Tensor
	loss          float64
}

// TrainPipelined runs the same training computation as Train but through
// the cycle-by-cycle pipelined schedule with buffered intermediates.
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
	cfg := pipeline.Config{L: L, B: batch, N: len(samples), Pipelined: true, Training: true}
	sched := pipeline.Schedule(cfg)
	bufs := pipeline.NewBuffers[*tensor.Tensor](cfg)

	totalLoss := 0.0
	classes := a.spec.Classes
	tel := a.stageTelemetrySlice()
	pool := parallel.Default()
	var slots []pipelinedSlot
	for c, ops := range sched {
		// Every buffer read resolves here, serially and in op order, before
		// the cycle's compute; every result is written at the cycle boundary
		// (consume-before-write, Section 3.3). So only this goroutine touches
		// the buffers.
		slots = slots[:0]
		for _, op := range ops {
			x, delta := bufs.Read(op)
			if x == nil {
				x = samples[op.Image].Input // layer 1 reads the image itself
			}
			slots = append(slots, pipelinedSlot{x: x, delta: delta})
		}
		// Every op closes against the stage whose arrays execute it, so the
		// spans and flight events replay the Figure 6 schedule from the live
		// machine: a forward op as its stage's forward, the output error and
		// each backward op as a backward of the stage whose error arrays run
		// it, attributed to the 1-based image ordinal.
		runOp := func(i int) {
			op, s := ops[i], &slots[i]
			if op.Kind == pipeline.Update {
				a.updateStages(tel, lr, batch)
				return
			}
			st, kind := op.Layer-1, stageBackward
			t0 := a.clock()
			switch op.Kind {
			case pipeline.Forward:
				s.out = a.engines[st].forward([]*tensor.Tensor{s.x})[0]
				kind = stageForward
			case pipeline.OutputError:
				t := nn.OneHot(samples[op.Image].Label, classes)
				s.loss = a.loss.Loss(s.x, t)
				s.out = a.engines[st].maskError(a.loss.Grad(s.x, t), s.x)
			case pipeline.Backward:
				if st == 0 {
					// Only ∂W: nothing upstream consumes the first stage's error.
					a.engines[0].derivative(s.delta, s.x)
				} else {
					s.out = a.engines[st-1].maskError(errorBackward(a.engines[st], s.delta, s.x), s.x)
				}
			}
			a.endStage(tel, kind, st, uint64(op.Image)+1, t0)
		}
		// Within a cycle every op runs on a distinct unit and per-engine
		// gradient accumulation stays ordered by the serial cycle loop, so
		// a cycle's ops fan out across the worker pool exactly like the
		// hardware's concurrent stages. A weight update, which mutates every
		// engine, always has its cycle to itself and runs inline.
		if len(ops) == 1 {
			runOp(0)
		} else {
			pool.For(len(ops), 1, func(lo, hi int) {
				for i := lo; i < hi; i++ {
					runOp(i)
				}
			})
		}
		// The results drain in op order, keeping buffer write-pointer order
		// and loss summation order identical to the serial schedule.
		for i, op := range ops {
			if out := bufs.Out(op); out != nil {
				out.Write(op.Image, slots[i].out)
			}
			totalLoss += slots[i].loss
		}
		// Cycle boundary — the only serial point: age every array by one
		// pipeline cycle and run the periodic drift refresh. The pipelined
		// machine ticks per cycle (its natural time base) where the serial
		// executor ticks per image, so drifted trajectories differ between
		// the two executors by design; at zero drift both are untouched.
		a.tickEngines(1)
		a.maybeRefresh(int64(c + 1))
	}

	n := len(samples)
	a.countImages("core_train_images_total", n)
	return Report{
		Images:   n,
		MeanLoss: totalLoss / float64(n),
		Cycles:   len(sched),
		Seconds:  a.model.TrainingTime(a.spec, a.plans, n, batch, true),
		Energy:   a.model.TrainingEnergy(a.spec, a.plans, n, batch, true),
	}, nil
}
