package telemetry

import (
	"testing"
	"time"
)

func TestCollectBuildInfo(t *testing.T) {
	bi := CollectBuildInfo()
	if bi.GoVersion == "" {
		t.Fatal("no go version")
	}
	if bi.Commit == "" {
		t.Fatal("commit must resolve to a hash or the literal \"unknown\", never empty")
	}
	if _, err := time.Parse(time.RFC3339, bi.CapturedAt); err != nil {
		t.Fatalf("captured_at %q is not RFC3339: %v", bi.CapturedAt, err)
	}
}
