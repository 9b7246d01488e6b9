package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
)

// AnalyzerAtomicMix enforces the all-or-nothing rule of sync/atomic: a
// variable or field accessed through the atomic functions anywhere in a
// package may never be read or written non-atomically elsewhere in it. A
// single plain load racing atomic.AddUint64 is undefined behavior the race
// detector only catches when the interleaving happens to fire; the analyzer
// catches it on every run. It also guards the serving tier's rollover slots:
// a field of type atomic.Pointer[T] may only be touched through methods of
// the type that declares it, so Swap/Load discipline cannot be bypassed from
// free functions. Escape hatch: //pipelayer:allow-atomicmix <reason>.
var AnalyzerAtomicMix = &Analyzer{
	Name: "atomicmix",
	Doc: "a field accessed via sync/atomic anywhere in a package must never be accessed non-atomically " +
		"elsewhere in it, and atomic.Pointer fields may only be used inside methods of their declaring type",
	Run: runAtomicMix,
}

func runAtomicMix(pass *Pass) error {
	atomicAt := make(map[string]token.Pos) // alias key → first atomic access site
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			if target := atomicCallTarget(pass, call); target != nil {
				if k := ExprKey(pass.TypesInfo, target); k != "" {
					if _, seen := atomicAt[k]; !seen {
						atomicAt[k] = call.Pos()
					}
				}
			}
			return true
		})
	}
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			checkMixedAccess(pass, fd.Body, atomicAt)
			checkPointerSlots(pass, fd)
		}
	}
	return nil
}

// atomicCallTarget returns the expression whose address is passed to a
// sync/atomic function (atomic.AddUint64(&s.count, 1) → s.count), or nil if
// the call is not a sync/atomic function call.
func atomicCallTarget(pass *Pass, call *ast.CallExpr) ast.Expr {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok || pass.TypesInfo == nil {
		return nil
	}
	fn, ok := pass.TypesInfo.Uses[sel.Sel].(*types.Func)
	if !ok || fn.Pkg() == nil || fn.Pkg().Path() != "sync/atomic" {
		return nil
	}
	if sig, ok := fn.Type().(*types.Signature); !ok || sig.Recv() != nil {
		return nil // atomic-typed methods are type-safe; the function API is the mixable one
	}
	if len(call.Args) == 0 {
		return nil
	}
	if addr, ok := ast.Unparen(call.Args[0]).(*ast.UnaryExpr); ok && addr.Op == token.AND {
		return addr.X
	}
	return nil
}

// checkMixedAccess flags every plain (non-atomic) occurrence of an
// atomically-accessed key inside one function body. The arguments of atomic
// calls themselves are skipped.
func checkMixedAccess(pass *Pass, body *ast.BlockStmt, atomicAt map[string]token.Pos) {
	if len(atomicAt) == 0 {
		return
	}
	var walk func(n ast.Node)
	walk = func(n ast.Node) {
		ast.Inspect(n, func(m ast.Node) bool {
			if call, ok := m.(*ast.CallExpr); ok && atomicCallTarget(pass, call) != nil {
				for _, arg := range call.Args[1:] {
					walk(arg) // later args (deltas, new values) are plain expressions
				}
				return false
			}
			expr, ok := m.(ast.Expr)
			if !ok {
				return true
			}
			switch expr.(type) {
			case *ast.SelectorExpr, *ast.Ident:
			default:
				return true
			}
			k := ExprKey(pass.TypesInfo, expr)
			if k == "" {
				return true
			}
			first, isAtomic := atomicAt[k]
			if !isAtomic {
				return true
			}
			if pass.Allowed(expr.Pos(), "atomicmix") {
				return false
			}
			pass.Reportf(expr.Pos(), "non-atomic access to %s, which is accessed via sync/atomic at %s: mixing plain and "+
				"atomic access is a data race the race detector only sees when the interleaving fires; use the atomic "+
				"API here too, or annotate with //pipelayer:allow-atomicmix <reason>",
				renderExpr(pass.Fset, expr), pass.Fset.Position(first))
			return false
		})
	}
	walk(body)
}

// checkPointerSlots enforces that method calls on an atomic.Pointer-typed
// field (s.slots[i].Load(), s.slot.Store(p)) only appear inside methods of
// the named type that owns the field.
func checkPointerSlots(pass *Pass, fd *ast.FuncDecl) {
	recvType := receiverNamed(pass, fd)
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		sel, ok := call.Fun.(*ast.SelectorExpr)
		if !ok || pass.TypesInfo == nil {
			return true
		}
		fn, ok := pass.TypesInfo.Uses[sel.Sel].(*types.Func)
		if !ok || fn.Pkg() == nil || fn.Pkg().Path() != "sync/atomic" {
			return true
		}
		sig, ok := fn.Type().(*types.Signature)
		if !ok || sig.Recv() == nil || !atomicRecvIsPointer(sig.Recv().Type()) {
			return true
		}
		owner := fieldOwnerNamed(pass, sel.X)
		if owner == nil || owner == recvType {
			return true
		}
		// Pre-publication exception: a chain rooted at a local the function
		// itself declared (a constructor's `s := &Server{...}`) has no
		// concurrent observers yet, so direct slot initialization is fine.
		if root := rootObject(pass.TypesInfo, sel.X); root != nil &&
			fd.Body.Pos() <= root.Pos() && root.Pos() <= fd.Body.End() {
			return true
		}
		if pass.Allowed(call.Pos(), "atomicmix") {
			return true
		}
		where := "a free function"
		if recvType != nil {
			where = "a method of " + recvType.Obj().Name()
		}
		pass.Reportf(call.Pos(), "atomic.Pointer slot %s touched from %s: rollover slots may only be accessed through "+
			"methods of %s so the Swap/Load discipline stays in one place, "+
			"or annotate with //pipelayer:allow-atomicmix <reason>",
			renderExpr(pass.Fset, sel.X), where, owner.Obj().Name())
		return true
	})
}

// receiverNamed returns the named type of fd's receiver, or nil for free
// functions.
func receiverNamed(pass *Pass, fd *ast.FuncDecl) *types.Named {
	if fd.Recv == nil || len(fd.Recv.List) == 0 || pass.TypesInfo == nil {
		return nil
	}
	t := pass.TypeOf(fd.Recv.List[0].Type)
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	named, _ := t.(*types.Named)
	return named
}

// fieldOwnerNamed returns the named type at the root of a field chain
// (s.slots[i] → the named type of s), or nil when the chain is rooted at a
// plain local — a local copy of a slice of slots is still backed by the
// owner's array, but attribution is the method that made the copy, which
// the analyzer already checked at the copy site.
func fieldOwnerNamed(pass *Pass, expr ast.Expr) *types.Named {
	if _, isSel := indexFree(expr).(*ast.SelectorExpr); !isSel {
		return nil // bare local (or copy): no field owner to attribute
	}
	obj := rootObject(pass.TypesInfo, expr)
	if obj == nil {
		return nil
	}
	t := obj.Type()
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	named, _ := t.(*types.Named)
	return named
}

// indexFree strips index and paren layers so s.slots[i] exposes s.slots.
func indexFree(expr ast.Expr) ast.Expr {
	for {
		switch e := expr.(type) {
		case *ast.IndexExpr:
			expr = e.X
		case *ast.ParenExpr:
			expr = e.X
		case *ast.StarExpr:
			expr = e.X
		default:
			return expr
		}
	}
}

// atomicRecvIsPointer reports whether a sync/atomic method receiver is the
// generic Pointer type.
func atomicRecvIsPointer(t types.Type) bool {
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	return named.Obj().Name() == "Pointer"
}
