package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// Determinism guards the repo's core guarantee: experiment tables and
// streamed counters are bit-identical across worker counts and replay
// modes. Inside the result-producing packages it flags the three ways
// nondeterminism sneaks in:
//
//   - wall-clock reads (time.Now / time.Since / time.Until);
//   - the globally-seeded math/rand source (package-level rand.* calls
//     rather than an explicitly seeded *rand.Rand);
//   - ranging over a map while feeding an order-sensitive sink — an
//     append, a writer/builder, a table row, a float accumulation, a
//     channel send — since map iteration order is deliberately random.
//
// Ranging a map to collect keys is fine when the collected slice is
// sorted in the same function (the standard fix), and commutative
// integer accumulation is always fine.
var Determinism = &Analyzer{
	Name:  "determinism",
	Doc:   "no wall clock, global rand, or map-iteration order in result aggregation",
	Scope: underAny("internal/sim", "internal/predictor", "internal/metrics", "internal/report", "internal/load"),
	Run:   runDeterminism,
}

func runDeterminism(pass *Pass) {
	for _, file := range pass.Pkg.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.CallExpr:
				checkNondetCall(pass, n)
			case *ast.RangeStmt:
				checkMapRange(pass, file, n)
			}
			return true
		})
	}
}

// checkNondetCall flags wall-clock and global-rand calls.
func checkNondetCall(pass *Pass, call *ast.CallExpr) {
	fn := calleeFunc(pass.Pkg.Info, call)
	if fn == nil || fn.Pkg() == nil {
		return
	}
	switch fn.Pkg().Path() {
	case "time":
		switch fn.Name() {
		case "Now", "Since", "Until":
			pass.Reportf(call.Pos(),
				"time.%s reads the wall clock; results become irreproducible — inject the clock through config instead",
				fn.Name())
		}
	case "math/rand", "math/rand/v2":
		// Methods on an explicit *rand.Rand carry their own seeded
		// source; only the package-level (globally seeded) functions are
		// nondeterministic across runs. The source/generator constructors
		// (New, NewSource, NewPCG, …) are how seeded rngs are built in the
		// first place — they never touch the global source.
		if strings.HasPrefix(fn.Name(), "New") {
			return
		}
		if sig, ok := fn.Type().(*types.Signature); ok && sig.Recv() == nil {
			pass.Reportf(call.Pos(),
				"%s.%s uses the global random source; use a *rand.Rand seeded from the workload spec instead",
				fn.Pkg().Name(), fn.Name())
		}
	}
}

// checkMapRange flags map iterations whose body feeds an
// order-sensitive sink.
func checkMapRange(pass *Pass, file *ast.File, rng *ast.RangeStmt) {
	tv, ok := pass.Pkg.Info.Types[rng.X]
	if !ok {
		return
	}
	if _, isMap := tv.Type.Underlying().(*types.Map); !isMap {
		return
	}
	if sink := findOrderSink(pass, file, rng); sink != "" {
		pass.Reportf(rng.Pos(),
			"map iteration order is random but the loop body %s; iterate a sorted key slice instead", sink)
	}
}

// findOrderSink scans a map-range body for order-sensitive sinks and
// returns a description of the first one, or "".
func findOrderSink(pass *Pass, file *ast.File, rng *ast.RangeStmt) string {
	info := pass.Pkg.Info
	sink := ""
	ast.Inspect(rng.Body, func(n ast.Node) bool {
		if sink != "" {
			return false
		}
		switch n := n.(type) {
		case *ast.SendStmt:
			sink = "sends on a channel (receive order becomes random)"
		case *ast.AssignStmt:
			if isFloatCompound(info, n) {
				sink = "accumulates floating point (addition order changes the result bits)"
			}
		case *ast.CallExpr:
			switch {
			case isBuiltin(info, n.Fun, "append"):
				if len(n.Args) > 0 && declaredOutside(info, n.Args[0], rng) &&
					!sortedLater(pass, file, rng, n) {
					sink = "appends to a slice (element order follows iteration order)"
				}
			case isOrderedWriteCall(info, n, rng):
				sink = "writes ordered output (rows/bytes are emitted in iteration order)"
			}
		}
		return true
	})
	return sink
}

// isFloatCompound reports whether an assignment is a compound
// accumulation (+=, -=, *=, /=) on a floating-point lvalue.
func isFloatCompound(info *types.Info, as *ast.AssignStmt) bool {
	switch as.Tok {
	case token.ADD_ASSIGN, token.SUB_ASSIGN, token.MUL_ASSIGN, token.QUO_ASSIGN:
	default:
		return false
	}
	if len(as.Lhs) != 1 {
		return false
	}
	tv, ok := info.Types[as.Lhs[0]]
	if !ok {
		return false
	}
	b, ok := tv.Type.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsFloat != 0
}

// orderedWriteNames are method names that emit into an ordered sink
// (table rows, builders, streams, float-merging accumulators).
var orderedWriteNames = map[string]bool{
	"Add": true, "Merge": true, "Push": true, "Append": true, "Emit": true,
	"Write": true, "WriteString": true, "WriteByte": true, "WriteRune": true,
}

// isOrderedWriteCall reports whether call is fmt.Print* (always a
// sink), fmt.Fprint* to a destination declared outside the range
// statement, or an ordered-write method on an outside receiver.
// Writing into per-iteration state is order-free and stays clean.
func isOrderedWriteCall(info *types.Info, call *ast.CallExpr, rng *ast.RangeStmt) bool {
	fn := calleeFunc(info, call)
	if fn == nil {
		return false
	}
	if fn.Pkg() != nil && fn.Pkg().Path() == "fmt" {
		switch fn.Name() {
		case "Print", "Printf", "Println":
			return true
		case "Fprint", "Fprintf", "Fprintln":
			return len(call.Args) > 0 && declaredOutside(info, call.Args[0], rng)
		}
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil || !orderedWriteNames[fn.Name()] {
		return false
	}
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return false
	}
	return declaredOutside(info, sel.X, rng)
}

// declaredOutside reports whether the base variable of expr is declared
// outside the range statement; unresolvable expressions count as
// outside (conservative).
func declaredOutside(info *types.Info, expr ast.Expr, rng *ast.RangeStmt) bool {
	root := rootIdent(expr)
	if root == nil {
		return true
	}
	obj := info.Uses[root]
	if obj == nil {
		obj = info.Defs[root]
	}
	if obj == nil {
		return true
	}
	return !within(obj.Pos(), rng)
}

// sortedLater reports whether the slice receiving the append is sorted
// somewhere in the enclosing function — the collect-keys-then-sort
// idiom this analyzer wants violations rewritten into.
func sortedLater(pass *Pass, file *ast.File, rng *ast.RangeStmt, appendCall *ast.CallExpr) bool {
	info := pass.Pkg.Info
	root := rootIdent(appendCall.Args[0])
	if root == nil {
		return false
	}
	obj := info.Uses[root]
	if obj == nil {
		obj = info.Defs[root]
	}
	if obj == nil {
		return false
	}
	fn := enclosingFunc(file, rng.Pos())
	if fn == nil {
		return false
	}
	sorted := false
	ast.Inspect(fn, func(n ast.Node) bool {
		if sorted {
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		callee := calleeFunc(info, call)
		if callee == nil || callee.Pkg() == nil {
			return true
		}
		switch callee.Pkg().Path() {
		case "sort", "slices":
		default:
			return true
		}
		for _, arg := range call.Args {
			if id := rootIdent(arg); id != nil && (info.Uses[id] == obj || info.Defs[id] == obj) {
				sorted = true
			}
		}
		return true
	})
	return sorted
}

// rootIdent walks selector/index/star chains down to the base
// identifier: a.b[i].c → a.
func rootIdent(expr ast.Expr) *ast.Ident {
	for {
		switch e := ast.Unparen(expr).(type) {
		case *ast.Ident:
			return e
		case *ast.SelectorExpr:
			expr = e.X
		case *ast.IndexExpr:
			expr = e.X
		case *ast.StarExpr:
			expr = e.X
		case *ast.UnaryExpr:
			expr = e.X
		default:
			return nil
		}
	}
}

// within reports whether pos falls inside node's span.
func within(pos token.Pos, node ast.Node) bool {
	return node.Pos() <= pos && pos < node.End()
}

// enclosingFunc returns the innermost function declaration or literal
// containing pos.
func enclosingFunc(file *ast.File, pos token.Pos) ast.Node {
	var best ast.Node
	ast.Inspect(file, func(n ast.Node) bool {
		switch n.(type) {
		case *ast.FuncDecl, *ast.FuncLit:
			if within(pos, n) {
				best = n // innermost wins: Inspect descends outside-in
			}
		}
		return true
	})
	return best
}
