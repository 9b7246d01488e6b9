package shard

import (
	"math"
	"reflect"
	"strconv"
	"testing"
	"time"

	"pipelayer/internal/telemetry"
)

func rangeCost(prefix []float64, r Range) float64 { return prefix[r.Hi] - prefix[r.Lo] }

// bruteBottleneck finds the optimal bottleneck cost by trying every
// contiguous partition — the oracle BalancedRanges must match.
func bruteBottleneck(costs []float64, n int) float64 {
	m := len(costs)
	best := math.Inf(1)
	var rec func(start, parts int, worst float64)
	rec = func(start, parts int, worst float64) {
		if parts == 1 {
			s := 0.0
			for _, c := range costs[start:] {
				s += c
			}
			best = math.Min(best, math.Max(worst, s))
			return
		}
		s := 0.0
		for end := start + 1; end <= m-parts+1; end++ {
			s += costs[end-1]
			rec(end, parts-1, math.Max(worst, s))
		}
	}
	rec(0, n, 0)
	return best
}

func TestBalancedRangesOptimalAndValid(t *testing.T) {
	cases := [][]float64{
		{1, 1, 1, 1, 1},
		{10, 1, 1, 1, 1},
		{1, 1, 1, 1, 10},
		{3, 1, 4, 1, 5, 9, 2, 6},
		{0, 0, 5, 0},
		{2.5, 7.1, 0.3, 0.3, 0.3, 4},
	}
	for ci, costs := range cases {
		prefix := make([]float64, len(costs)+1)
		for i, c := range costs {
			prefix[i+1] = prefix[i] + c
		}
		for n := 1; n <= len(costs); n++ {
			ranges, err := BalancedRanges(costs, n)
			if err != nil {
				t.Fatalf("case %d n=%d: %v", ci, n, err)
			}
			if len(ranges) != n {
				t.Fatalf("case %d n=%d: got %d ranges", ci, n, len(ranges))
			}
			if err := ValidateRanges(ranges, len(costs)); err != nil {
				t.Fatalf("case %d n=%d: invalid partition: %v", ci, n, err)
			}
			worst := 0.0
			for _, r := range ranges {
				worst = math.Max(worst, rangeCost(prefix, r))
			}
			if want := bruteBottleneck(costs, n); worst != want {
				t.Errorf("case %d n=%d: bottleneck %v, optimal %v (ranges %v)", ci, n, worst, want, ranges)
			}
		}
	}
}

func TestBalancedRangesDeterministic(t *testing.T) {
	costs := []float64{3, 1, 4, 1, 5, 9, 2, 6}
	a, err := BalancedRanges(costs, 3)
	if err != nil {
		t.Fatal(err)
	}
	b, err := BalancedRanges(costs, 3)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("two runs disagree: %v vs %v", a, b)
	}
}

func TestBalancedRangesErrors(t *testing.T) {
	if _, err := BalancedRanges(nil, 1); err == nil {
		t.Error("empty costs must fail")
	}
	if _, err := BalancedRanges([]float64{1, 2}, 0); err == nil {
		t.Error("zero shards must fail")
	}
	if _, err := BalancedRanges([]float64{1, 2}, 3); err == nil {
		t.Error("more shards than engines must fail")
	}
	if _, err := BalancedRanges([]float64{1, -2}, 1); err == nil {
		t.Error("negative cost must fail")
	}
	if _, err := BalancedRanges([]float64{1, math.NaN()}, 1); err == nil {
		t.Error("NaN cost must fail")
	}
}

func TestValidateRanges(t *testing.T) {
	good := []Range{{0, 2}, {2, 3}, {3, 5}}
	if err := ValidateRanges(good, 5); err != nil {
		t.Fatalf("valid partition rejected: %v", err)
	}
	bad := []struct {
		name   string
		ranges []Range
	}{
		{"empty list", nil},
		{"gap", []Range{{0, 2}, {3, 5}}},
		{"overlap", []Range{{0, 3}, {2, 5}}},
		{"late start", []Range{{1, 5}}},
		{"short end", []Range{{0, 4}}},
		{"empty range", []Range{{0, 2}, {2, 2}, {2, 5}}},
	}
	for _, tc := range bad {
		if err := ValidateRanges(tc.ranges, 5); err == nil {
			t.Errorf("%s: accepted %v", tc.name, tc.ranges)
		}
	}
}

func TestMeasuredCosts(t *testing.T) {
	reg := telemetry.NewRegistry()
	for i := 1; i <= 3; i++ {
		name := telemetry.Name("core_stage_forward_seconds", map[string]string{"stage": strconv.Itoa(i)})
		reg.Span(name).Add(time.Duration(i) * time.Millisecond)
	}
	costs, ok := MeasuredCosts(reg.Snapshot(), 3)
	if !ok {
		t.Fatal("complete telemetry reported not ok")
	}
	if len(costs) != 3 || costs[0] >= costs[1] || costs[1] >= costs[2] {
		t.Fatalf("costs %v do not reflect the recorded spans", costs)
	}
	// A fourth stage was never timed: partial telemetry must refuse rather
	// than balance on a zero.
	if _, ok := MeasuredCosts(reg.Snapshot(), 4); ok {
		t.Fatal("partial telemetry reported ok")
	}
}

// TestStageReplicas pins the replica-count rule: one replica per shard,
// then each further one to the shard with the highest cost per replica,
// ties to the earliest.
func TestStageReplicas(t *testing.T) {
	cases := []struct {
		name   string
		costs  []float64
		budget int
		want   []int
	}{
		{"zero budget", []float64{3, 1, 2}, 0, []int{1, 1, 1}},
		{"below the shard count", []float64{3, 1, 2}, 2, []int{1, 1, 1}},
		{"at the shard count", []float64{3, 1, 2}, 3, []int{1, 1, 1}},
		{"above the shard count", []float64{3, 1, 2}, 5, []int{2, 1, 2}},
		{"one shard takes the budget", []float64{5}, 4, []int{4}},
		{"bottleneck last", []float64{1, 4}, 4, []int{1, 3}},
		{"tie goes to the earliest", []float64{2, 2}, 3, []int{2, 1}},
		{"tie after replication", []float64{4, 2}, 4, []int{3, 1}},
		{"zero costs", []float64{0, 0, 0}, 5, []int{3, 1, 1}},
		{"one zero-cost shard", []float64{0, 5}, 3, []int{1, 2}},
	}
	for _, tc := range cases {
		if got := stageReplicas(tc.costs, tc.budget); !reflect.DeepEqual(got, tc.want) {
			t.Errorf("%s: stageReplicas(%v, %d) = %v, want %v", tc.name, tc.costs, tc.budget, got, tc.want)
		}
	}
}
