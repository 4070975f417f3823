package analysis

import (
	"go/ast"
	"go/types"
)

// calleeOf resolves the object a call expression invokes, seeing through
// parenthesization. Returns nil for calls it cannot resolve (builtins,
// function-typed variables, conversions).
func calleeOf(pkg *Package, call *ast.CallExpr) types.Object {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.SelectorExpr:
		return pkg.Info.Uses[fun.Sel]
	case *ast.Ident:
		return pkg.Info.Uses[fun]
	}
	return nil
}
