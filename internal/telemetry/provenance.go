package telemetry

import (
	"os"
	"os/exec"
	"runtime"
	"strings"
	"time"
)

// BuildInfo identifies the build a benchmark artifact came from: the
// commit, the Go toolchain, and the RFC3339 capture instant. Every
// BENCH_*.json file embeds one and perfbench prints one at the top of its
// report, so two artifacts can always be attributed to their producing
// commits.
type BuildInfo struct {
	Commit     string `json:"commit"`
	GoVersion  string `json:"go_version"`
	CapturedAt string `json:"captured_at"`
}

// CollectBuildInfo resolves the current build's provenance. The commit
// comes from GITHUB_SHA when CI set it, else from `git rev-parse HEAD`,
// else "unknown" (e.g. a source tarball without git); the other fields
// never fail.
func CollectBuildInfo() BuildInfo {
	return BuildInfo{
		Commit:     resolveCommit(),
		GoVersion:  runtime.Version(),
		CapturedAt: time.Now().UTC().Format(time.RFC3339),
	}
}

func resolveCommit() string {
	if sha := os.Getenv("GITHUB_SHA"); sha != "" {
		return sha
	}
	out, err := exec.Command("git", "rev-parse", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	if sha := strings.TrimSpace(string(out)); sha != "" {
		return sha
	}
	return "unknown"
}
