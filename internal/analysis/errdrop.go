package analysis

import (
	"go/ast"
	"go/types"
	"sort"
	"strings"
)

// errdropSentinels names the backpressure/lifecycle sentinels whose loss
// breaks the serving tier end-to-end: a dropped ErrOverloaded means the load
// shedder upstream never learns the queue is full; a dropped ErrClosed means
// a caller keeps submitting into a drained server. Any function whose
// package declares one of these is treated as a carrier.
var errdropSentinels = []string{"ErrOverloaded", "ErrClosed"}

// AnalyzerErrDrop forbids discarding the error from a sentinel-carrying call
// — `_ = srv.Predict(...)` or a bare `c.Close()` expression statement — when
// the callee's package declares ErrOverloaded or ErrClosed.
// Backpressure only works if every hop propagates it; one `_ =` turns bounded
// admission into silent loss. Deferred calls are exempt (defer cannot
// propagate anyway; cleanup-path errors are reported through the primary
// return). Escape hatch: //pipelayer:allow-errdrop <reason>.
var AnalyzerErrDrop = &Analyzer{
	Name: "errdrop",
	Doc: "forbid discarding errors (`_ =` or bare call statement) from calls whose package declares the " +
		"ErrOverloaded/ErrClosed sentinels; backpressure must propagate, not vanish",
	Run: runErrDrop,
}

func runErrDrop(pass *Pass) error {
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.ExprStmt:
					call, ok := ast.Unparen(n.X).(*ast.CallExpr)
					if !ok {
						return true
					}
					fn, sentinels := carrierCallee(pass, call)
					if fn == nil {
						return true
					}
					if pass.Allowed(call.Pos(), "errdrop") {
						return true
					}
					pass.Reportf(call.Pos(), "result of %s discarded: it can return %s, and dropping it breaks "+
						"backpressure propagation; handle or return the error, "+
						"or annotate with //pipelayer:allow-errdrop <reason>",
						fn.Name(), strings.Join(sentinels, "/"))
				case *ast.AssignStmt:
					checkAssignDrop(pass, n)
				}
				return true
			})
		}
	}
	return nil
}

// checkAssignDrop flags `_` in the error position of a carrier call's
// results: `_ = c.Close()` and `out, _ := c.Forward(xs)` both lose the
// sentinel.
func checkAssignDrop(pass *Pass, as *ast.AssignStmt) {
	report := func(call *ast.CallExpr, fn *types.Func, sentinels []string) {
		if pass.Allowed(call.Pos(), "errdrop") {
			return
		}
		pass.Reportf(call.Pos(), "error from %s assigned to _: it can return %s, and dropping it breaks "+
			"backpressure propagation; handle or return the error, "+
			"or annotate with //pipelayer:allow-errdrop <reason>",
			fn.Name(), strings.Join(sentinels, "/"))
	}
	if len(as.Rhs) == 1 && len(as.Lhs) > 1 {
		// out, err := f(): one call, results map positionally to the Lhs.
		call, ok := ast.Unparen(as.Rhs[0]).(*ast.CallExpr)
		if !ok {
			return
		}
		fn, sentinels := carrierCallee(pass, call)
		if fn == nil {
			return
		}
		sig, ok := fn.Type().(*types.Signature)
		if !ok || sig.Results().Len() != len(as.Lhs) {
			return
		}
		for i, lhs := range as.Lhs {
			if isBlank(lhs) && isErrorType(sig.Results().At(i).Type()) {
				report(call, fn, sentinels)
				return
			}
		}
		return
	}
	for i, rhs := range as.Rhs {
		if i >= len(as.Lhs) || !isBlank(as.Lhs[i]) {
			continue
		}
		call, ok := ast.Unparen(rhs).(*ast.CallExpr)
		if !ok {
			continue
		}
		fn, sentinels := carrierCallee(pass, call)
		if fn == nil {
			continue
		}
		if sig, ok := fn.Type().(*types.Signature); ok && sig.Results().Len() == 1 && isErrorType(sig.Results().At(0).Type()) {
			report(call, fn, sentinels)
		}
	}
}

// carrierCallee resolves call's static callee and, when the callee returns an
// error and its package declares one of the errdrop sentinels as a
// package-level error variable, returns the callee and the sorted sentinel
// names. Otherwise (nil, nil). Only same-module packages count as carriers:
// the standard library also declares an ErrClosed (os, net, io/fs), but those
// are ordinary cleanup errors, not the serving tier's backpressure signals.
func carrierCallee(pass *Pass, call *ast.CallExpr) (*types.Func, []string) {
	if pass.TypesInfo == nil {
		return nil, nil
	}
	var fn *types.Func
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		fn, _ = pass.TypesInfo.Uses[fun].(*types.Func)
	case *ast.SelectorExpr:
		fn, _ = pass.TypesInfo.Uses[fun.Sel].(*types.Func)
	}
	if fn == nil || fn.Pkg() == nil {
		return nil, nil
	}
	if firstPathSegment(fn.Pkg().Path()) != firstPathSegment(pass.PkgPath) {
		return nil, nil
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok || !signatureReturnsError(sig) {
		return nil, nil
	}
	scope := fn.Pkg().Scope()
	var found []string
	for _, name := range errdropSentinels {
		if v, ok := scope.Lookup(name).(*types.Var); ok && isErrorType(v.Type()) {
			found = append(found, name)
		}
	}
	if len(found) == 0 {
		return nil, nil
	}
	sort.Strings(found)
	return fn, found
}

func signatureReturnsError(sig *types.Signature) bool {
	for i := 0; i < sig.Results().Len(); i++ {
		if isErrorType(sig.Results().At(i).Type()) {
			return true
		}
	}
	return false
}

func isErrorType(t types.Type) bool {
	return t != nil && types.Identical(t, types.Universe.Lookup("error").Type())
}

func isBlank(e ast.Expr) bool {
	id, ok := e.(*ast.Ident)
	return ok && id.Name == "_"
}

// firstPathSegment returns the import path's leading segment ("pipelayer" for
// pipelayer/internal/serve), the cheap same-module test that works for both
// the repo and fixture package trees.
func firstPathSegment(path string) string {
	if i := strings.IndexByte(path, '/'); i >= 0 {
		return path[:i]
	}
	return path
}
