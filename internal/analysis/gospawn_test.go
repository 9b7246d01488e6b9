package analysis_test

import (
	"testing"

	"pipelayer/internal/analysis"
	"pipelayer/internal/analysis/analysistest"
)

// TestGoSpawn proves the analyzer forbids raw go statements in ordinary
// packages and in internal/shard, exempts internal/parallel- and
// cmd/-shaped import paths, enforces the reason on //pipelayer:allow-spawn,
// and still flags a package merely *named* parallel outside internal/ (the
// exemption matches path segments, not package names).
func TestGoSpawn(t *testing.T) {
	analysistest.Run(t, analysis.AnalyzerGoSpawn,
		"gospawn/app", "gospawn/internal/parallel", "gospawn/internal/shard",
		"gospawn/parallel", "gospawn/cmd/app")
}
