package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
)

// AnalyzerDrainProto requires every `go` statement in the spawn-allowlisted
// packages (internal/parallel, internal/serve, internal/online — the same
// list gospawn exempts) to be tracked by a drain protocol: either a
// sync.WaitGroup.Add call before the spawn whose Done runs in the spawned
// function, or a done-channel the goroutine closes/sends on that some
// Close/Wait method in the package receives from. An untracked
// goroutine is exactly how drain regresses silently — Close returns while a
// worker is still touching the backend, and the next Swap races it. The
// spawned function is searched transitively (three call levels deep, same
// package) so `go c.run(k)` patterns where run carries the defer wg.Done()
// are recognized. Escape hatch: //pipelayer:allow-drainproto <reason>.
var AnalyzerDrainProto = &Analyzer{
	Name: "drainproto",
	Doc: "every go statement in the spawn-allowlisted packages must be tracked by a WaitGroup.Add/Done " +
		"pair or a done-channel received from in a Close/Wait method, so drain protocols cannot silently regress",
	Run: runDrainProto,
}

func runDrainProto(pass *Pass) error {
	inScope := false
	for _, s := range spawnExemptPkgs {
		if pathHasSuffixSegment(pass.PkgPath, s) {
			inScope = true
			break
		}
	}
	if !inScope {
		return nil
	}

	bodies := packageFuncBodies(pass)
	closeRecvKeys := drainCloseRecvKeys(pass)
	pkgDoneKeys := packageDoneKeys(pass)

	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				g, ok := n.(*ast.GoStmt)
				if !ok {
					return true
				}
				if drainTracked(pass, fd, g, bodies, closeRecvKeys, pkgDoneKeys) {
					return true
				}
				if !pass.Allowed(g.Pos(), "drainproto") {
					pass.Reportf(g.Pos(), "untracked goroutine: no WaitGroup.Add before this go statement with a matching "+
						"Done in the spawned function, and no done-channel close/send received by a Close or Wait method; "+
						"an untracked goroutine outlives Close and races the next rollover — add the drain protocol "+
						"or annotate with //pipelayer:allow-drainproto <reason>")
				}
				return true
			})
		}
	}
	return nil
}

// packageFuncBodies indexes every function/method body in the package by its
// types.Func, so spawn targets like `go c.run(k)` can be searched.
func packageFuncBodies(pass *Pass) map[*types.Func]*ast.BlockStmt {
	bodies := make(map[*types.Func]*ast.BlockStmt)
	if pass.TypesInfo == nil {
		return bodies
	}
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			if fn, ok := pass.TypesInfo.Defs[fd.Name].(*types.Func); ok {
				bodies[fn] = fd.Body
			}
		}
	}
	return bodies
}

// drainCloseRecvKeys collects the alias keys of channels that a Close or Wait
// method in this package receives from (`<-x.done`, `range x.done`): closing
// or sending on one of these from a goroutine makes the goroutine's exit
// observable to the drain path.
func drainCloseRecvKeys(pass *Pass) map[string]bool {
	keys := make(map[string]bool)
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			if fd.Name.Name != "Close" && fd.Name.Name != "Wait" {
				continue
			}
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.UnaryExpr:
					if n.Op == token.ARROW {
						if k := ExprKey(pass.TypesInfo, n.X); k != "" {
							keys[k] = true
						}
					}
				case *ast.RangeStmt:
					if isChanType(pass.TypeOf(n.X)) {
						if k := ExprKey(pass.TypesInfo, n.X); k != "" {
							keys[k] = true
						}
					}
				}
				return true
			})
		}
	}
	return keys
}

// packageDoneKeys collects the alias keys of every WaitGroup that has a
// Done() call anywhere in the package — the fallback pairing check when a
// spawn target's body is outside the package.
func packageDoneKeys(pass *Pass) map[string]bool {
	keys := make(map[string]bool)
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			if key, name, ok := waitGroupCall(pass, call); ok && name == "Done" {
				keys[key] = true
			}
			return true
		})
	}
	return keys
}

// waitGroupCall recognizes a sync.WaitGroup method call and returns the
// receiver's alias key and the method name.
func waitGroupCall(pass *Pass, call *ast.CallExpr) (key, name string, ok bool) {
	sel, isSel := call.Fun.(*ast.SelectorExpr)
	if !isSel || pass.TypesInfo == nil {
		return "", "", false
	}
	fn, isFn := pass.TypesInfo.Uses[sel.Sel].(*types.Func)
	if !isFn || fn.Pkg() == nil || fn.Pkg().Path() != "sync" {
		return "", "", false
	}
	recv := fn.Type().(*types.Signature).Recv()
	if recv == nil {
		return "", "", false
	}
	base := recv.Type()
	if p, isPtr := base.(*types.Pointer); isPtr {
		base = p.Elem()
	}
	named, isNamed := base.(*types.Named)
	if !isNamed || named.Obj().Name() != "WaitGroup" {
		return "", "", false
	}
	k := ExprKey(pass.TypesInfo, sel.X)
	if k == "" {
		return "", "", false
	}
	return k, fn.Name(), true
}

// drainTracked decides whether one go statement carries a recognizable drain
// protocol.
func drainTracked(pass *Pass, fd *ast.FuncDecl, g *ast.GoStmt, bodies map[*types.Func]*ast.BlockStmt,
	closeRecvKeys, pkgDoneKeys map[string]bool) bool {
	// WaitGroup keys Add'ed in the enclosing function before the spawn. The
	// positional check matches the mandatory idiom: Add must happen-before
	// the go statement, never inside the goroutine (that ordering is the
	// classic lost-Add race).
	addKeys := make(map[string]bool)
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		if key, name, ok := waitGroupCall(pass, call); ok && name == "Add" && call.Pos() < g.Pos() {
			addKeys[key] = true
		}
		return true
	})

	target := spawnTargetBody(pass, g, bodies)
	if target == nil {
		// Spawn target outside the package (or dynamic): accept the spawn if
		// some Add'ed WaitGroup has a Done anywhere in the package.
		for k := range addKeys {
			if pkgDoneKeys[k] {
				return true
			}
		}
		return false
	}
	return drainSignalIn(pass, target, addKeys, closeRecvKeys, bodies, make(map[*ast.BlockStmt]bool), 3)
}

// spawnTargetBody resolves the body the spawned goroutine executes: a
// function literal's own body, or the body of a same-package function/method.
func spawnTargetBody(pass *Pass, g *ast.GoStmt, bodies map[*types.Func]*ast.BlockStmt) *ast.BlockStmt {
	switch fun := ast.Unparen(g.Call.Fun).(type) {
	case *ast.FuncLit:
		return fun.Body
	case *ast.Ident:
		if fn, ok := pass.TypesInfo.Uses[fun].(*types.Func); ok {
			return bodies[fn]
		}
	case *ast.SelectorExpr:
		if fn, ok := pass.TypesInfo.Uses[fun.Sel].(*types.Func); ok {
			return bodies[fn]
		}
	}
	return nil
}

// drainSignalIn searches body (and, transitively, same-package callees up to
// the given depth) for a completion signal: Done() on an Add'ed WaitGroup, or
// close/send on a channel a Close/Wait method receives from.
func drainSignalIn(pass *Pass, body *ast.BlockStmt, addKeys, closeRecvKeys map[string]bool,
	bodies map[*types.Func]*ast.BlockStmt, visited map[*ast.BlockStmt]bool, depth int) bool {
	if body == nil || visited[body] {
		return false
	}
	visited[body] = true
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		if found {
			return false
		}
		switch n := n.(type) {
		case *ast.SendStmt:
			if k := ExprKey(pass.TypesInfo, n.Chan); k != "" && closeRecvKeys[k] {
				found = true
			}
		case *ast.CallExpr:
			if key, name, ok := waitGroupCall(pass, n); ok && name == "Done" && addKeys[key] {
				found = true
				return false
			}
			if id, ok := ast.Unparen(n.Fun).(*ast.Ident); ok && id.Name == "close" && len(n.Args) == 1 {
				if _, isBuiltin := pass.TypesInfo.Uses[id].(*types.Builtin); isBuiltin {
					if k := ExprKey(pass.TypesInfo, n.Args[0]); k != "" && closeRecvKeys[k] {
						found = true
						return false
					}
				}
			}
			if depth > 0 {
				var fn *types.Func
				switch f := ast.Unparen(n.Fun).(type) {
				case *ast.Ident:
					fn, _ = pass.TypesInfo.Uses[f].(*types.Func)
				case *ast.SelectorExpr:
					fn, _ = pass.TypesInfo.Uses[f.Sel].(*types.Func)
				}
				if fn != nil {
					if callee := bodies[fn]; callee != nil &&
						drainSignalIn(pass, callee, addKeys, closeRecvKeys, bodies, visited, depth-1) {
						found = true
						return false
					}
				}
			}
		}
		return !found
	})
	return found
}
