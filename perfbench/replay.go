package main

import (
	"fmt"
	"math"
	"runtime"
	"time"

	"pipelayer/internal/arch"
	"pipelayer/internal/core"
	"pipelayer/internal/dataset"
	"pipelayer/internal/energy"
	"pipelayer/internal/mapping"
	"pipelayer/internal/networks"
	"pipelayer/internal/shard"
	"pipelayer/internal/telemetry"
	"pipelayer/internal/telemetry/flight"
	"pipelayer/internal/tensor"
)

// Replay timing: each measurement is the median of replayBlocks blocks of
// at least replayBlock each, after one warm-up call; allocations are
// counted over replayAllocCalls calls.
const (
	replayBlocks     = 5
	replayBlock      = 20 * time.Millisecond
	replayAllocCalls = 20
	replayBatch      = 16
)

// replayer times calls into one layer and records one span per call of its
// allocation pass on the replay track; arg identifies the replayed call.
type replayer struct {
	rec *flight.Recorder
	arg int64
}

// ns returns the median ns per call of f.
func (r *replayer) ns(f func()) float64 {
	f()
	per := make([]float64, replayBlocks)
	for i := range per {
		n := 0
		t0 := time.Now()
		for {
			f()
			n++
			if d := time.Since(t0); d >= replayBlock {
				per[i] = float64(d) / float64(n)
				break
			}
		}
	}
	return median(per)
}

// allocs returns heap objects and bytes allocated per call of f.
func (r *replayer) allocs(f func()) (objs, bytes float64) {
	var a, b runtime.MemStats
	runtime.ReadMemStats(&a)
	for range replayAllocCalls {
		t0 := r.rec.Now()
		f()
		r.rec.Record("bench_replay", 0, trackBenchReplay, t0, r.arg)
	}
	runtime.ReadMemStats(&b)
	r.arg++
	return float64(b.Mallocs-a.Mallocs) / replayAllocCalls, float64(b.TotalAlloc-a.TotalAlloc) / replayAllocCalls
}

// replayAll replays every layer of both networks — the served one on its
// trained weights, the other on seeded initial weights — plus the shard
// hand-off and a solo training batch. It returns the backend time per
// request at the observed saturation batch size, in µs.
func (b *bench) replayAll(served *core.Accelerator, rec *flight.Recorder, m layerMetrics, batch float64) (float64, error) {
	rp := &replayer{rec: rec}
	var backendUs float64
	for _, net := range []string{"tiny-cnn", "tiny-mlp"} {
		acc := served
		if net != b.wl.network {
			var err error
			if acc, err = freshMachine(net, b.seed); err != nil {
				return 0, err
			}
		}
		inputs := replayInputs(acc.Spec(), b.seed)
		if err := replayNetwork(rp, acc, inputs, m); err != nil {
			return 0, err
		}
		if net != b.wl.network {
			continue
		}
		var err error
		if backendUs, err = b.replayShard(rp, acc, inputs, m, batch); err != nil {
			return 0, err
		}
		train := dataset.Generate(trainBatch, dataset.DefaultOptions(acc.Spec().Layers[0].Kind == mapping.KindFC), b.seed)
		fresh, err := freshMachine(net, b.seed)
		if err != nil {
			return 0, err
		}
		var trainErr error
		ms := rp.ns(func() {
			if _, err := fresh.Train(train, trainBatch, trainLR); err != nil {
				trainErr = err
			}
		}) / 1e6
		if trainErr != nil {
			return 0, trainErr
		}
		m.put("core.train_ms_per_batch_solo", ms, "ms")
	}
	return backendUs, nil
}

func replayInputs(spec networks.Spec, seed int64) []*tensor.Tensor {
	samples := dataset.Generate(replayBatch, dataset.DefaultOptions(spec.Layers[0].Kind == mapping.KindFC), seed+7919)
	xs := make([]*tensor.Tensor, len(samples))
	for i, s := range samples {
		xs[i] = s.Input
	}
	return xs
}

// replayNetwork times each engine alone (core), each weighted layer's
// crossbar readout (arch) and each convolution's Im2Col (tensor), feeding
// every layer the previous layer's real outputs.
func replayNetwork(rp *replayer, acc *core.Accelerator, xs []*tensor.Tensor, m layerMetrics) error {
	spec := acc.Spec()
	rep, err := acc.NewReplica()
	if err != nil {
		return err
	}
	if rep.Engines() != len(spec.Layers) {
		return fmt.Errorf("%s: %d engines for %d layers", spec.Name, rep.Engines(), len(spec.Layers))
	}
	costs := rep.ForwardCosts()
	n16 := make([]float64, len(costs))
	weights := acc.WeightsSnapshot()
	bits := energy.DefaultModel().SpikeBits
	weighted := 0
	for i, l := range spec.Layers {
		sub, err := rep.Sub(i, i+1)
		if err != nil {
			return err
		}
		p := "core." + l.Name + "."
		k := 0
		m.put(p+"ns_per_sample_n1", rp.ns(func() { sub.Infer(xs[k%len(xs)]); k++ }), "ns")
		n16[i] = rp.ns(func() { sub.InferBatch(xs) }) / float64(len(xs))
		m.put(p+"ns_per_sample_n16", n16[i], "ns")
		objs, bytes := rp.allocs(func() { sub.InferBatch(xs) })
		m.put(p+"allocs_per_sample_n16", objs/float64(len(xs)), "count")
		m.put(p+"bytes_per_sample_n16", bytes/float64(len(xs)), "B")

		if l.Kind != mapping.KindPool {
			replayReadout(rp, l, weights[2*weighted], xs, bits, m)
			weighted++
		}
		if l.Kind == mapping.KindConv {
			x := xs[0]
			tp := "tensor.im2col." + l.Name + "."
			m.put(tp+"ns_per_sample", rp.ns(func() { tensor.Im2Col(x, l.K, l.K, l.Stride, l.Pad) }), "ns")
			_, bytes := rp.allocs(func() { tensor.Im2Col(x, l.K, l.K, l.Stride, l.Pad) })
			m.put(tp+"bytes_per_sample", bytes, "B")
		}
		xs = sub.InferBatch(xs)
	}
	sumN, sumC := 0.0, 0.0
	for i := range costs {
		sumN += n16[i]
		sumC += costs[i]
	}
	for i, l := range spec.Layers {
		m.put("core."+l.Name+".model_ratio", (n16[i]/sumN)/(costs[i]/sumC), "ratio")
	}
	return nil
}

// replayReadout programs a Quantized of the engine's shape and bits with the
// layer's trained weights and times MatVecCols at 1 and 16 columns. The
// columns are the layer's real input vectors (Im2Col windows for a conv).
func replayReadout(rp *replayer, l mapping.Layer, w *tensor.Tensor, xs []*tensor.Tensor, bits int, m layerMetrics) {
	var rows, cols int
	var cols16 *tensor.Tensor
	if l.Kind == mapping.KindConv {
		rows, cols = l.InC*l.K*l.K, l.OutC
		win := tensor.Im2Col(xs[0], l.K, l.K, l.Stride, l.Pad)
		cols16 = firstCols(win, replayBatch)
		w = w.Reshape(l.OutC, rows)
	} else {
		rows, cols = l.FCIn, l.FCOut
		cols16 = arch.PackCols(xs)
	}
	q := arch.NewQuantized(tensor.Transpose(w), rows, cols, bits)
	col1 := firstCols(cols16, 1)
	p := "arch." + l.Name + "."
	m.put(p+"ns_per_col_n1", rp.ns(func() { q.MatVecCols(col1) }), "ns")
	m.put(p+"ns_per_col_n16", rp.ns(func() { q.MatVecCols(cols16) })/replayBatch, "ns")
	objs, _ := rp.allocs(func() { q.MatVecCols(cols16) })
	m.put(p+"allocs_per_call", objs, "count")
	// Computed, not measured: one multiply-accumulate per cell per column,
	// and the float64 code matrix streamed once per 16-column call plus
	// each column's input and output vector.
	m.put(p+"macs_per_col", float64(rows*cols), "count")
	m.put(p+"bytes_moved_per_col", float64(rows*cols*8)/replayBatch+float64((rows+cols)*8), "B")
}

// firstCols copies the first n columns of a (rows × N) matrix.
func firstCols(t *tensor.Tensor, n int) *tensor.Tensor {
	rows, all := t.Dim(0), t.Dim(1)
	out := tensor.New(rows, n)
	od, td := out.Data(), t.Data()
	for r := 0; r < rows; r++ {
		for c := 0; c < n; c++ {
			od[r*n+c] = td[r*all+c%all]
		}
	}
	return out
}

// replayShard measures the two-shard chain of the served network: the
// hand-off cost (single-caller Chain.Forward minus its ranges' InferBatch),
// shard utilization under two closed-loop callers when the workload itself
// does not serve through a chain, and the backend time per request at the
// observed batch size (summed over the ranges: CPU time, not wall time).
func (b *bench) replayShard(rp *replayer, acc *core.Accelerator, xs []*tensor.Tensor, m layerMetrics, batch float64) (float64, error) {
	rep, err := acc.NewReplica()
	if err != nil {
		return 0, err
	}
	reg := telemetry.NewRegistry()
	chain, err := shard.New(rep, shard.Config{Shards: 2, Metrics: reg})
	if err != nil {
		return 0, err
	}
	defer chain.Close()
	ranges := chain.Ranges()

	var forwardErr error
	chainNs := rp.ns(func() {
		if _, err := chain.Forward(xs); err != nil {
			forwardErr = err
		}
	})
	if forwardErr != nil {
		return 0, forwardErr
	}
	nb := min(max(int(math.Round(batch)), 1), len(xs))
	subNs, backendNs := 0.0, 0.0
	in := xs
	for _, r := range ranges {
		sub, err := rep.Sub(r.Lo, r.Hi)
		if err != nil {
			return 0, err
		}
		x := in
		subNs += rp.ns(func() { sub.InferBatch(x) })
		if b.wl.serve.Sharded() {
			backendNs += rp.ns(func() { sub.Forward(x[:nb]) }) / float64(nb)
		}
		in = sub.InferBatch(x)
	}
	m.put("shard.handoff_us_per_batch", (chainNs-subNs)/1e3, "us")
	if !b.wl.serve.Sharded() {
		backendNs = rp.ns(func() { rep.Forward(xs[:nb]) }) / float64(nb)
		before := reg.Snapshot()
		start := time.Now()
		done := make(chan error, 2)
		for range 2 {
			go func() {
				var err error
				for time.Since(start) < 10*replayBlock && err == nil {
					_, err = chain.Forward(xs)
				}
				done <- err
			}()
		}
		for range 2 {
			if err := <-done; err != nil {
				return 0, err
			}
		}
		b.shardUtil(m, before, reg.Snapshot(), time.Since(start))
	}
	return backendNs / 1e3, nil
}
