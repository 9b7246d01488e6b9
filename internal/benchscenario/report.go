// Package benchscenario holds the run-environment stamp the repository
// benchmark (perfbench/) prints at the top of every report: the build
// identity and a host-speed calibration constant.
package benchscenario

import (
	"time"

	"pipelayer/internal/telemetry"
)

// Env is the run-wide provenance collected once per benchmark invocation:
// the build identity and the host-speed calibration constant.
type Env struct {
	Build       telemetry.BuildInfo
	CalibMFLOPS float64
}

// CollectEnv resolves the build info and measures the calibration constant
// (~30 ms of serial matmul).
func CollectEnv() Env {
	return Env{Build: telemetry.CollectBuildInfo(), CalibMFLOPS: calibrate()}
}

// calibrate measures the host's serial float64 matmul rate on a fixed
// 64×64×64 kernel, in MFLOP/s. It runs on one goroutine regardless of the
// worker-pool size, so the constant tracks single-core speed — the main
// axis hosts differ on — and a reader can tell a slow host from a slow
// commit. Best of several short windows: background load on a shared host
// only ever slows a window down, so the max is the host's real rate.
func calibrate() float64 {
	const n = 64
	a := make([]float64, n*n)
	b := make([]float64, n*n)
	c := make([]float64, n*n)
	for i := range a {
		a[i] = float64(i%13) * 0.25
		b[i] = float64(i%7) * 0.5
	}
	const windows = 5
	const minDur = 10 * time.Millisecond
	best := 0.0
	for w := 0; w < windows; w++ {
		iters := 0
		start := time.Now()
		for time.Since(start) < minDur {
			for i := 0; i < n; i++ {
				for k := 0; k < n; k++ {
					aik := a[i*n+k]
					for j := 0; j < n; j++ {
						c[i*n+j] += aik * b[k*n+j]
					}
				}
			}
			iters++
		}
		elapsed := time.Since(start).Seconds()
		if elapsed <= 0 || c[0] < 0 { // c[0] read keeps the kernel from being dead code
			continue
		}
		if rate := float64(iters) * 2 * n * n * n / elapsed / 1e6; rate > best {
			best = rate
		}
	}
	return best
}
