package analysis

import (
	"go/ast"
)

// spawnExemptPkgs may use raw go statements: the worker pool, the serving
// layer and the online-training supervisor are the sanctioned concurrency
// owners, and cmd binaries own their process lifetime.
var spawnExemptPkgs = []string{
	"internal/parallel",
	"internal/serve",
	"internal/online",
}

// AnalyzerGoSpawn forbids raw `go` statements outside internal/parallel,
// internal/serve, internal/online, and cmd/. Everything else
// must dispatch through the pool so fan-out stays bounded, deterministic
// where required, and leak-checked. Escape hatch:
// //pipelayer:allow-spawn <reason>.
var AnalyzerGoSpawn = &Analyzer{
	Name: "spawn",
	Doc: "forbid raw go statements outside internal/parallel, internal/serve, internal/online, and cmd/ " +
		"so all fan-out stays pool-governed and leak-checked",
	Run: runGoSpawn,
}

func runGoSpawn(pass *Pass) error {
	for _, s := range spawnExemptPkgs {
		if pathHasSuffixSegment(pass.PkgPath, s) {
			return nil
		}
	}
	if pathHasSegment(pass.PkgPath, "cmd") {
		return nil
	}
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			g, ok := n.(*ast.GoStmt)
			if !ok {
				return true
			}
			if !pass.Allowed(g.Pos(), "spawn") {
				pass.Reportf(g.Pos(), "raw go statement outside internal/parallel, internal/serve, internal/online, and cmd/; "+
					"dispatch through parallel.Pool so fan-out stays bounded and leak-checked, "+
					"or annotate with //pipelayer:allow-spawn <reason>")
			}
			return true
		})
	}
	return nil
}
