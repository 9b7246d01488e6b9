package shard_test

// The sharded-serving conformance suite: the tentpole invariant is that the
// layer-sharded pipeline is bit-identical to the unsharded path at every
// shard count × worker count × fault config. This is enforced here by
// sweeping the full matrix against the serial single-request reference —
// the same oracle the unsharded serve determinism test pins against.

import (
	"context"
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"testing"
	"time"

	"pipelayer/internal/core"
	"pipelayer/internal/energy"
	"pipelayer/internal/fault"
	"pipelayer/internal/parallel"
	"pipelayer/internal/serve"
	"pipelayer/internal/shard"
	"pipelayer/internal/tensor"
	"pipelayer/internal/testutil"
)

// loadedCNN builds a weight-loaded TinyDeepCNN — conv, pool, conv, pool, fc:
// five engines, all three engine kinds — optionally with faults attached.
func loadedCNN(t testing.TB, inj *fault.Injector) *core.Accelerator {
	t.Helper()
	a := core.New(energy.DefaultModel())
	if inj != nil {
		if err := a.SetFaults(inj); err != nil {
			t.Fatal(err)
		}
	}
	if err := a.TopologySet(testutil.TinyDeepCNN("conformance-cnn"), 1); err != nil {
		t.Fatal(err)
	}
	if err := a.WeightLoad(nil, rand.New(rand.NewSource(77))); err != nil {
		t.Fatal(err)
	}
	return a
}

func cnnInputs(t testing.TB, n int) []*tensor.Tensor {
	t.Helper()
	samples := testutil.ImageSamples(n, 9)
	xs := make([]*tensor.Tensor, n)
	for i, s := range samples {
		xs[i] = s.Input
	}
	return xs
}

func serialReference(t testing.TB, a *core.Accelerator, xs []*tensor.Tensor) []*tensor.Tensor {
	t.Helper()
	rep, err := a.NewReplica()
	if err != nil {
		t.Fatal(err)
	}
	out := make([]*tensor.Tensor, len(xs))
	for i, x := range xs {
		out[i] = rep.Infer(x)
	}
	return out
}

// faultConfigs is the conformance fault axis: pristine arrays, stuck-cell
// remapping, and remapping with degrade-to-digital fallback — the same
// configs the unsharded serve suite pins.
func faultConfigs() []struct {
	name string
	inj  *fault.Injector
} {
	return []struct {
		name string
		inj  *fault.Injector
	}{
		{"none", nil},
		{"remap", fault.MustNew(fault.Config{Seed: 3, StuckOff: 2e-4, StuckOn: 1e-4, Drift: 0.05, Spares: 4})},
		{"remap+degrade", fault.MustNew(fault.Config{Seed: 3, StuckOff: 2e-4, StuckOn: 1e-4, Drift: 0.05, Spares: 4, Degrade: true})},
	}
}

// TestShardedServeConformance sweeps chain shapes × pool workers {1, 2, 7,
// GOMAXPROCS} × fault configs {none, remap, remap+degrade}: every response
// from the server must bit-match the serial single-request reference of the
// same machine. The shapes are shards {1, 2, 3, all-layers} at one replica
// per shard, and shards=2 with a budget of 3 replicas, which replicates the
// bottleneck shard: g = (1, 2) on this net. shards=1 takes its full-stack
// range explicitly, so the explicit-range path is covered at every point.
func TestShardedServeConformance(t *testing.T) {
	const n = 16
	saved := parallel.Workers()
	defer parallel.SetWorkers(saved)

	engines := 5 // TinyDeepCNN: conv, pool, conv, pool, fc
	shapes := []struct{ shards, replicas int }{{1, 0}, {2, 0}, {3, 0}, {engines, 0}, {2, 3}}
	workerCounts := []int{1, 2, 7, runtime.GOMAXPROCS(0)}

	for _, fc := range faultConfigs() {
		a := loadedCNN(t, fc.inj)
		xs := cnnInputs(t, n)
		want := serialReference(t, a, xs)
		for _, sh := range shapes {
			shape := fmt.Sprintf("shards=%d", sh.shards)
			if sh.replicas > 0 {
				shape += fmt.Sprintf("/replicas=%d", sh.replicas)
			}
			for _, workers := range workerCounts {
				t.Run(fmt.Sprintf("faults=%s/%s/workers=%d", fc.name, shape, workers), func(t *testing.T) {
					parallel.SetWorkers(workers)
					cfg := serve.Config{Replicas: sh.replicas, MaxBatch: 4, MaxWait: 200 * time.Microsecond, QueueCap: n}
					if sh.shards == 1 {
						cfg.ShardRanges = []shard.Range{{Lo: 0, Hi: engines}}
					} else {
						cfg.Shards = sh.shards
					}
					s, err := serve.New(a, cfg)
					if err != nil {
						t.Fatal(err)
					}
					defer s.Close()
					var wg sync.WaitGroup
					for i := 0; i < n; i++ {
						wg.Add(1)
						go func(i int) {
							defer wg.Done()
							res, err := s.Predict(context.Background(), xs[i])
							if err != nil {
								t.Errorf("request %d: %v", i, err)
								return
							}
							g, w := res.Scores.Data(), want[i].Data()
							for j := range g {
								if g[j] != w[j] {
									t.Errorf("request %d score %d: %v != %v (bit-identity broken)", i, j, g[j], w[j])
									return
								}
							}
						}(i)
					}
					wg.Wait()
				})
			}
		}
	}
}

// TestShardedServeConformanceMLP covers the dense-only stack too: the
// 3-engine TinyDeepMLP at every shard count, workers fixed at GOMAXPROCS.
func TestShardedServeConformanceMLP(t *testing.T) {
	const n = 24
	a := core.New(energy.DefaultModel())
	if err := a.TopologySet(testutil.TinyDeepMLP("conformance-mlp"), 1); err != nil {
		t.Fatal(err)
	}
	if err := a.WeightLoad(nil, rand.New(rand.NewSource(78))); err != nil {
		t.Fatal(err)
	}
	samples := testutil.FlatSamples(n, 11)
	xs := make([]*tensor.Tensor, n)
	for i, s := range samples {
		xs[i] = s.Input
	}
	want := serialReference(t, a, xs)
	for shards := 2; shards <= 3; shards++ {
		s, err := serve.New(a, serve.Config{Shards: shards, MaxBatch: 8, MaxWait: 200 * time.Microsecond, QueueCap: n})
		if err != nil {
			t.Fatal(err)
		}
		var wg sync.WaitGroup
		for i := 0; i < n; i++ {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				res, err := s.Predict(context.Background(), xs[i])
				if err != nil {
					t.Errorf("shards=%d request %d: %v", shards, i, err)
					return
				}
				g, w := res.Scores.Data(), want[i].Data()
				for j := range g {
					if g[j] != w[j] {
						t.Errorf("shards=%d request %d score %d: %v != %v", shards, i, j, g[j], w[j])
						return
					}
				}
			}(i)
		}
		wg.Wait()
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
	}
}
