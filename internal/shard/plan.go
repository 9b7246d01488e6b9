// Package shard splits a trained core.Replica into contiguous layer-range
// shards and runs batches through the shard chain: shard k computes batch
// i+1 while shard k+1 computes batch i — the paper's Figure 6 inter-layer
// pipeline lifted out of the cycle simulator into the real serving path.
// Each shard is a pool of sub-replicas (core.Replica.Sub), sized by
// the paper's replication factor G (§3.2.3) under a total replica budget;
// a caller carries its batch from pool to pool. The chain's outputs stay
// bit-identical to the unsharded path because every shard runs the very
// same kernels the whole-model replica would.
package shard

import (
	"errors"
	"fmt"
	"math"
	"strconv"

	"pipelayer/internal/telemetry"
)

// Range is one shard's contiguous half-open engine range [Lo, Hi) over the
// replica's layer-engine stack.
type Range struct {
	Lo int `json:"lo"`
	Hi int `json:"hi"`
}

// ValidateRanges checks that ranges tile [0, engines) exactly: in order,
// non-empty, gapless, starting at 0 and ending at engines.
func ValidateRanges(ranges []Range, engines int) error {
	if len(ranges) == 0 {
		return errors.New("shard: empty range list")
	}
	at := 0
	for i, r := range ranges {
		if r.Lo != at {
			return fmt.Errorf("shard: range %d starts at %d, want %d (ranges must tile the stack gaplessly)", i, r.Lo, at)
		}
		if r.Hi <= r.Lo {
			return fmt.Errorf("shard: range %d [%d,%d) is empty", i, r.Lo, r.Hi)
		}
		at = r.Hi
	}
	if at != engines {
		return fmt.Errorf("shard: ranges end at %d, stack has %d engines", at, engines)
	}
	return nil
}

// BalancedRanges partitions the engine stack into n contiguous ranges
// minimizing the maximum per-range cost — the classic linear-partition
// dynamic program, deterministic with ties broken toward the earliest split.
// A pipeline's throughput is set by its slowest stage, so minimizing the
// bottleneck range is the right objective.
func BalancedRanges(costs []float64, n int) ([]Range, error) {
	m := len(costs)
	if m == 0 {
		return nil, errors.New("shard: no engines to partition")
	}
	if n < 1 || n > m {
		return nil, fmt.Errorf("shard: cannot split %d engines into %d shards", m, n)
	}
	prefix := make([]float64, m+1)
	for i, c := range costs {
		if c < 0 || math.IsNaN(c) {
			return nil, fmt.Errorf("shard: engine %d has invalid cost %v", i, c)
		}
		prefix[i+1] = prefix[i] + c
	}
	// dp[j][i] is the minimal bottleneck cost of splitting the first i
	// engines into j ranges; cut[j][i] the split point achieving it.
	dp := make([][]float64, n+1)
	cut := make([][]int, n+1)
	for j := range dp {
		dp[j] = make([]float64, m+1)
		cut[j] = make([]int, m+1)
		for i := range dp[j] {
			dp[j][i] = math.Inf(1)
		}
	}
	for i := 1; i <= m; i++ {
		dp[1][i] = prefix[i]
	}
	for j := 2; j <= n; j++ {
		for i := j; i <= m; i++ {
			for k := j - 1; k < i; k++ {
				cost := math.Max(dp[j-1][k], prefix[i]-prefix[k])
				if cost < dp[j][i] {
					dp[j][i] = cost
					cut[j][i] = k
				}
			}
		}
	}
	ranges := make([]Range, n)
	hi := m
	for j := n; j >= 1; j-- {
		lo := 0
		if j > 1 {
			lo = cut[j][hi]
		}
		ranges[j-1] = Range{Lo: lo, Hi: hi}
		hi = lo
	}
	return ranges, nil
}

// MeasuredCosts extracts per-engine forward seconds from a telemetry
// snapshot: the trainer's core_stage_forward_seconds{stage="k"} spans
// (1-based over the engine stack). It reports ok only when every engine has
// a strictly positive measured total — partial telemetry falls back to the
// analytic costs rather than skewing the balance.
func MeasuredCosts(snap telemetry.Snapshot, engines int) ([]float64, bool) {
	costs := make([]float64, engines)
	for i := range costs {
		name := telemetry.Name("core_stage_forward_seconds", map[string]string{"stage": strconv.Itoa(i + 1)})
		sp, ok := snap.Spans[name]
		if !ok || sp.TotalSeconds <= 0 {
			return nil, false
		}
		costs[i] = sp.TotalSeconds
	}
	return costs, true
}

// stageReplicas spreads a budget of replicas over shards with the given
// costs. Every shard gets one; each further replica goes to the shard with
// the highest cost per replica, ties to the earliest. A budget at or below
// the shard count therefore gives one replica per shard, a one-shard chain
// gets the whole budget, and all-zero costs send every extra replica to
// shard 0.
func stageReplicas(costs []float64, budget int) []int {
	g := make([]int, len(costs))
	for k := range g {
		g[k] = 1
	}
	for n := len(costs); n < budget; n++ {
		best := 0
		for k := 1; k < len(costs); k++ {
			if costs[k]/float64(g[k]) > costs[best]/float64(g[best]) {
				best = k
			}
		}
		g[best]++
	}
	return g
}
