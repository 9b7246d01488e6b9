package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// AnalyzerSentinelCmp requires errors.Is for comparisons against typed
// error sentinels (package-level `ErrXxx` variables such as
// serve.ErrOverloaded). The serving and checkpoint layers wrap sentinels
// with %w to carry context — a plain ==/!= silently stops matching the
// moment a wrap is added, which is exactly the refactor this suite exists
// to make safe.
var AnalyzerSentinelCmp = &Analyzer{
	Name: "sentinelcmp",
	Doc: "require errors.Is instead of ==/!= when comparing errors against typed sentinels " +
		"(serve.ErrOverloaded, ...) so wrapped errors keep matching",
	Run: runSentinelCmp,
}

func runSentinelCmp(pass *Pass) error {
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			bin, ok := n.(*ast.BinaryExpr)
			if !ok || (bin.Op != token.EQL && bin.Op != token.NEQ) {
				return true
			}
			sentinel := sentinelName(pass, bin.X)
			if sentinel == "" {
				sentinel = sentinelName(pass, bin.Y)
			}
			if sentinel == "" || pass.Allowed(bin.Pos(), "sentinelcmp") {
				return true
			}
			verb := "errors.Is(err, " + sentinel + ")"
			if bin.Op == token.NEQ {
				verb = "!" + verb
			}
			pass.Reportf(bin.Pos(), "comparing against sentinel %s with %s misses wrapped errors; use %s",
				sentinel, bin.Op, verb)
			return true
		})
	}
	return nil
}

// sentinelName returns the name of the typed error sentinel expr refers to,
// or "" if expr is not one. A sentinel is a package-level variable named
// Err<Upper>... whose type implements error.
func sentinelName(pass *Pass, expr ast.Expr) string {
	var id *ast.Ident
	switch e := expr.(type) {
	case *ast.Ident:
		id = e
	case *ast.SelectorExpr:
		id = e.Sel
	default:
		return ""
	}
	name := id.Name
	if !strings.HasPrefix(name, "Err") || len(name) < 4 || !isUpperOrDigit(name[3]) {
		return ""
	}
	if pass.TypesInfo == nil {
		return ""
	}
	obj, ok := pass.TypesInfo.ObjectOf(id).(*types.Var)
	if !ok || obj.Pkg() == nil || obj.Parent() != obj.Pkg().Scope() {
		return ""
	}
	if !types.Implements(obj.Type(), errorInterface()) {
		return ""
	}
	if sel, ok := expr.(*ast.SelectorExpr); ok {
		if pkgID, ok := sel.X.(*ast.Ident); ok {
			return pkgID.Name + "." + name
		}
	}
	return name
}

func isUpperOrDigit(b byte) bool {
	return (b >= 'A' && b <= 'Z') || (b >= '0' && b <= '9')
}

func errorInterface() *types.Interface {
	return types.Universe.Lookup("error").Type().Underlying().(*types.Interface)
}
