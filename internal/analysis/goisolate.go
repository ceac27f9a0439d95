package analysis

import (
	"go/ast"
	"go/types"
)

// GoIsolate guards the panic-isolation contract from PR 1: a panic in
// a worker goroutine must become a *PanicError for its shard, never a
// process crash. In the scheduler, server, load and predictor
// packages it flags `go func` literals that neither
//
//   - take a context.Context parameter (cancellation-aware worker,
//     managed by its spawner), nor
//   - run under a recovery wrapper: a deferred recover in the literal
//     body, a deferred call to a function that recovers, or a call to
//     a function/closure that installs its own deferred recover (the
//     scheduler's runOne pattern).
var GoIsolate = &Analyzer{
	Name:  "goisolate",
	Doc:   "goroutines in sim/server/load/predictor need panic isolation or a context",
	Scope: underAny("internal/sim", "internal/server", "internal/load", "internal/predictor"),
	Run:   runGoIsolate,
}

func runGoIsolate(pass *Pass) {
	for _, file := range pass.Pkg.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			g, ok := n.(*ast.GoStmt)
			if !ok {
				return true
			}
			lit, ok := ast.Unparen(g.Call.Fun).(*ast.FuncLit)
			if !ok {
				return true
			}
			if takesContext(pass.Pkg.Info, lit) || isolated(pass, lit) {
				return true
			}
			pass.Reportf(g.Pos(),
				"goroutine has no panic isolation and no context: a panic here crashes the process instead of becoming a *PanicError")
			return true
		})
	}
}

// takesContext reports whether the literal declares a context.Context
// parameter.
func takesContext(info *types.Info, lit *ast.FuncLit) bool {
	tv, ok := info.Types[lit]
	if !ok {
		return false
	}
	sig, ok := tv.Type.(*types.Signature)
	if !ok {
		return false
	}
	for i := 0; i < sig.Params().Len(); i++ {
		if named, ok := sig.Params().At(i).Type().(*types.Named); ok {
			obj := named.Obj()
			if obj.Name() == "Context" && obj.Pkg() != nil && obj.Pkg().Path() == "context" {
				return true
			}
		}
	}
	return false
}

// isolated reports whether the goroutine body is panic-isolated: it
// installs a deferred recover itself, or everything it runs goes
// through a function known (via facts) to install one.
func isolated(pass *Pass, lit *ast.FuncLit) bool {
	info := pass.Pkg.Info
	if pass.Facts.installsRecover(lit.Body, info) {
		return true
	}
	ok := false
	ast.Inspect(lit.Body, func(n ast.Node) bool {
		if ok {
			return false
		}
		call, isCall := n.(*ast.CallExpr)
		if !isCall {
			return true
		}
		if obj := calleeObject(info, call); obj != nil && pass.Facts.recovers[obj] {
			ok = true
		}
		return true
	})
	return ok
}
