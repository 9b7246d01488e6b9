package shard_test

// The sharded chaos/soak test: 200 concurrent lanes hammer a layer-sharded
// server while hot swaps promote three new weight versions mid-flight and
// Close finally drains under load. Every response must carry exactly one
// weight version and bit-match that version's serial reference — no lost,
// duplicate, or torn responses — and every goroutine must be joined.

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"pipelayer/internal/core"
	"pipelayer/internal/energy"
	"pipelayer/internal/serve"
	"pipelayer/internal/tensor"
	"pipelayer/internal/testutil"
)

// mlpMachine builds a weight-loaded TinyMLP from the given seed — each seed
// is one "weight version" for the swap chaos.
func mlpMachine(t testing.TB, seed int64) *core.Accelerator {
	t.Helper()
	a := core.New(energy.DefaultModel())
	if err := a.TopologySet(testutil.TinyMLP("soak-mlp"), 1); err != nil {
		t.Fatal(err)
	}
	if err := a.WeightLoad(nil, rand.New(rand.NewSource(seed))); err != nil {
		t.Fatal(err)
	}
	return a
}

func assertNoGoroutineLeaksSoak(t *testing.T, base int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		if runtime.NumGoroutine() <= base {
			return
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<20)
			n := runtime.Stack(buf, true)
			t.Fatalf("goroutine leak: %d goroutines, baseline %d\n%s",
				runtime.NumGoroutine(), base, buf[:n])
		}
		time.Sleep(10 * time.Millisecond)
	}
}

func TestShardedSwapSoak(t *testing.T) {
	base := runtime.NumGoroutine()
	const (
		lanes    = 200
		versions = 4
		nInputs  = 8
		replicas = 3
	)

	// One machine per weight version, same spec; version v's serial
	// references are the torn-response oracle.
	machines := make([]*core.Accelerator, versions)
	refs := make([][]*tensor.Tensor, versions)
	samples := testutil.FlatSamples(nInputs, 9)
	xs := make([]*tensor.Tensor, nInputs)
	for i, s := range samples {
		xs[i] = s.Input
	}
	for v := 0; v < versions; v++ {
		machines[v] = mlpMachine(t, 100+int64(v))
		refs[v] = serialReference(t, machines[v], xs)
	}

	s, err := serve.New(machines[0], serve.Config{
		Shards:   2,
		Replicas: replicas,
		MaxBatch: 8,
		MaxWait:  200 * time.Microsecond,
		QueueCap: 256,
	})
	if err != nil {
		t.Fatal(err)
	}

	// HTTP face for the exactly-one-X-Weight-Version check, exercised while
	// the soak runs.
	hs := httptest.NewServer(s.Handler(2 * time.Second))

	type obs struct {
		input   int
		version uint64
		scores  []float64
	}
	var (
		mu        sync.Mutex
		observed  []obs
		successes int64
	)
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for lane := 0; lane < lanes; lane++ {
		wg.Add(1)
		go func(lane int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(lane) * 7919))
			for {
				select {
				case <-stop:
					return
				default:
				}
				i := rng.Intn(nInputs)
				ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
				res, err := s.Predict(ctx, xs[i])
				cancel()
				switch {
				case err == nil:
					mu.Lock()
					observed = append(observed, obs{input: i, version: res.Version, scores: append([]float64(nil), res.Scores.Data()...)})
					successes++
					mu.Unlock()
				case errors.Is(err, serve.ErrOverloaded):
					// shed: back off a hair and keep going
					time.Sleep(time.Duration(rng.Intn(200)) * time.Microsecond)
				case errors.Is(err, serve.ErrClosed):
					return
				case errors.Is(err, context.DeadlineExceeded):
					// drain raced the deadline; fine under chaos
				default:
					t.Errorf("lane %d: unexpected error %v", lane, err)
					return
				}
			}
		}(lane)
	}

	// A few HTTP requests per version window: every 200 must carry the
	// version header exactly once and a body matching that version's
	// reference for its input.
	checkHTTP := func() {
		body := strings.NewReader(fmt.Sprintf(`{"input":%s}`, mustJSON(t, xs[0].Data())))
		resp, err := http.Post(hs.URL+"/predict", "application/json", body)
		if err != nil {
			t.Errorf("http predict: %v", err)
			return
		}
		defer resp.Body.Close()
		if resp.StatusCode == http.StatusServiceUnavailable {
			return // overloaded or draining mid-chaos: allowed
		}
		if resp.StatusCode != http.StatusOK {
			t.Errorf("http predict: status %d", resp.StatusCode)
			return
		}
		hdrs := resp.Header.Values(serve.WeightVersionHeader)
		if len(hdrs) != 1 {
			t.Errorf("response carries %d %s headers, want exactly 1", len(hdrs), serve.WeightVersionHeader)
			return
		}
		v, err := strconv.ParseUint(hdrs[0], 10, 64)
		if err != nil || v < 1 || v > versions {
			t.Errorf("%s = %q, want a version in [1,%d]", serve.WeightVersionHeader, hdrs[0], versions)
			return
		}
		var pr serve.PredictResponse
		if err := json.NewDecoder(resp.Body).Decode(&pr); err != nil {
			t.Errorf("decode response: %v", err)
			return
		}
		want := refs[v-1][0].Data()
		for j := range pr.Scores {
			if pr.Scores[j] != want[j] {
				t.Errorf("http response torn: version %d score %d is %v, want %v", v, j, pr.Scores[j], want[j])
				return
			}
		}
	}

	// Mid-flight promotions: v2, v3, v4 while the lanes hammer.
	for v := 2; v <= versions; v++ {
		time.Sleep(30 * time.Millisecond)
		checkHTTP()
		if err := s.Swap(machines[v-1], uint64(v)); err != nil {
			t.Fatalf("swap to v%d: %v", v, err)
		}
	}
	time.Sleep(30 * time.Millisecond)
	checkHTTP()

	// Close drain under load: lanes still firing when intake shuts. They
	// exit on ErrClosed; everything already admitted must still be answered.
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	close(stop)
	wg.Wait()
	hs.Close()

	// Verify: every observed response is attributed to a known version and
	// bit-matches that version's serial reference — no torn or misattributed
	// responses anywhere in the run; response count equals success count —
	// nothing lost or duplicated.
	mu.Lock()
	defer mu.Unlock()
	if int64(len(observed)) != successes {
		t.Fatalf("%d recorded responses for %d successful calls", len(observed), successes)
	}
	if len(observed) == 0 {
		t.Fatal("soak produced no responses")
	}
	seen := map[uint64]int{}
	for _, o := range observed {
		if o.version < 1 || o.version > versions {
			t.Fatalf("response attributed to unknown version %d", o.version)
		}
		seen[o.version]++
		want := refs[o.version-1][o.input].Data()
		for j := range o.scores {
			if o.scores[j] != want[j] {
				t.Fatalf("torn response: version %d input %d score %d is %v, want %v",
					o.version, o.input, j, o.scores[j], want[j])
			}
		}
	}
	if len(seen) < 2 {
		t.Errorf("chaos observed only versions %v; swaps did not land mid-flight", seen)
	}
	t.Logf("soak: %d responses across versions %v", len(observed), seen)

	assertNoGoroutineLeaksSoak(t, base)
}

func mustJSON(t testing.TB, v any) string {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}
