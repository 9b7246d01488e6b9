package analysis

import (
	"go/ast"
	"go/types"
)

// ctxflowPkgs are the request-path packages: every call made on behalf of a
// serving request must observe that request's deadline and cancellation, so
// minting a fresh root context mid-path silently detaches the work from the
// caller that is waiting on it.
var ctxflowPkgs = []string{
	"internal/serve",
	"internal/shard",
	"internal/online",
}

func isCtxflowPkg(path string) bool {
	for _, s := range ctxflowPkgs {
		if pathHasSuffixSegment(path, s) {
			return true
		}
	}
	return false
}

// AnalyzerCtxFlow forbids context.Background() and context.TODO() in the
// request-path packages (serve, shard, online): a function on
// the request path must thread the context it was handed, otherwise deadlines
// and cancellation stop composing end-to-end — a canceled request would keep
// computing, and a drain would wait on work nobody wants. Root contexts
// belong in cmd/ binaries and tests (test files are not loaded by the suite).
// Escape hatch: //pipelayer:allow-ctxflow <reason>.
var AnalyzerCtxFlow = &Analyzer{
	Name: "ctxflow",
	Doc: "request-path packages (serve, shard, online) must thread their incoming " +
		"context.Context; context.Background()/TODO() only in cmd/, test files, or annotated sites",
	Run: runCtxFlow,
}

func runCtxFlow(pass *Pass) error {
	if !isCtxflowPkg(pass.PkgPath) || pathHasSegment(pass.PkgPath, "cmd") {
		return nil
	}
	for _, f := range pass.Files {
		// A dot-import of context would make Background() a bare call,
		// invisible to the selector walk below.
		for _, imp := range f.Imports {
			if imp.Name != nil && imp.Name.Name == "." && importPath(imp) == "context" {
				pass.Reportf(imp.Pos(), "dot-import of \"context\" defeats the ctxflow check; use a named import")
			}
		}
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			sel, ok := call.Fun.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			id, ok := sel.X.(*ast.Ident)
			if !ok || pass.PkgNameOf(id) != "context" {
				return true
			}
			name := sel.Sel.Name
			if name != "Background" && name != "TODO" {
				return true
			}
			if pass.Allowed(call.Pos(), "ctxflow") {
				return true
			}
			hint := "thread the incoming request context instead"
			if fn := enclosingFuncWithoutCtxParam(pass, f, call); fn != "" {
				hint = "add a context.Context parameter to " + fn + " and thread the caller's context through"
			}
			pass.Reportf(call.Pos(), "context.%s() in request-path package %s detaches this call from the request's "+
				"deadline and cancellation; %s, or annotate with //pipelayer:allow-ctxflow <reason>",
				name, pass.Pkg.Name(), hint)
			return true
		})
	}
	return nil
}

// enclosingFuncWithoutCtxParam names the function declaration containing pos
// when that function has no context.Context parameter (the usual fix is to
// add one); "" when the enclosing function already receives a context or
// cannot be determined.
func enclosingFuncWithoutCtxParam(pass *Pass, f *ast.File, n ast.Node) string {
	var fn *ast.FuncDecl
	ast.Inspect(f, func(m ast.Node) bool {
		d, ok := m.(*ast.FuncDecl)
		if ok && d.Pos() <= n.Pos() && n.End() <= d.End() {
			fn = d
		}
		return true
	})
	if fn == nil || fn.Type.Params == nil {
		return ""
	}
	for _, field := range fn.Type.Params.List {
		if isContextType(pass.TypeOf(field.Type)) {
			return "" // a context is already in scope; threading it is the fix
		}
	}
	return fn.Name.Name
}

func isContextType(t types.Type) bool {
	named, ok := t.(*types.Named)
	if !ok || named.Obj().Pkg() == nil {
		return false
	}
	return named.Obj().Pkg().Path() == "context" && named.Obj().Name() == "Context"
}
