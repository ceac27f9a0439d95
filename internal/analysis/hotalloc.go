package analysis

// HotAlloc turns the runtime zero-alloc guards (the AllocsPerRun(0)
// warm-drain tests behind the Gev/s numbers) into a compile-time
// check. A declared hot set — the warm-drain entry points StepBlock,
// forEachBlock, decodeColumns, colReader.NextBlock and cpu.Run, plus
// any function marked with a `// capvet:hot` doc directive — is
// scanned for allocation sites:
//
//   - inside a hot function, every loop body (the per-event path);
//   - plus, one level down the call graph, the full body of every
//     module-local function called from those loops, so extracting a
//     helper out of a hot loop (or adding one to it) stays covered.
//
// Flagged allocation shapes: address-taken or reference-kind composite
// literals, make/new, append growth, function literals created per
// iteration, string<->[]byte conversions, and arguments boxed into
// interface parameters. Two documented exemptions keep the pass quiet
// on the real tree's idioms:
//
//   - cold exits: an allocation inside a block that terminates the
//     hot path (its statement list ends in return, panic, break or
//     goto) is error-path work, paid only when the drain is already
//     over;
//   - non-escaping closures: a literal bound to a local variable that
//     is only ever called (`varint := func() ...`; `bump := func(e
//     *uint8) ...`) stays on the stack and is not an allocation.

import (
	"go/ast"
	"go/token"
	"go/types"
)

var HotAlloc = &Analyzer{
	Name: "hotalloc",
	Doc:  "zero-alloc hot set: no allocation sites in warm-drain loops or their one-level callees",
	Run:  runHotAlloc,
}

func runHotAlloc(pass *Pass) {
	for _, file := range pass.Pkg.Files {
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			obj := pass.Pkg.Info.Defs[fd.Name]
			if obj == nil {
				continue
			}
			switch {
			case pass.Facts.hotFuncs[obj]:
				// The hot path is the per-event loop; setup code before
				// it may allocate freely.
				seen := make(map[*ast.BlockStmt]bool)
				eachLoopBody(fd.Body, func(body *ast.BlockStmt) {
					if seen[body] {
						return
					}
					seen[body] = true
					checkHotRegion(pass, fd, body, "hot loop in "+fd.Name.Name)
				})
			case pass.Facts.hotCallees[obj]:
				checkHotRegion(pass, fd, fd.Body, fd.Name.Name+", called from a hot loop")
			}
		}
	}
}

// checkHotRegion reports allocation sites inside region. enclosing is
// the declaration owning the region, used to resolve the non-escaping
// closure exemption.
func checkHotRegion(pass *Pass, enclosing *ast.FuncDecl, region ast.Node, where string) {
	info := pass.Pkg.Info
	parents := buildParents(region)
	coldExempt := func(n ast.Node) bool {
		return inColdExit(n, region, parents)
	}

	ast.Inspect(region, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.UnaryExpr:
			if n.Op != token.AND {
				return true
			}
			if _, ok := ast.Unparen(n.X).(*ast.CompositeLit); ok && !coldExempt(n) {
				pass.Reportf(n.Pos(), "address of composite literal allocates in %s", where)
			}

		case *ast.CompositeLit:
			if coldExempt(n) {
				return true
			}
			if tv, ok := info.Types[n]; ok {
				switch tv.Type.Underlying().(type) {
				case *types.Slice:
					pass.Reportf(n.Pos(), "slice literal allocates in %s", where)
				case *types.Map:
					pass.Reportf(n.Pos(), "map literal allocates in %s", where)
				}
			}

		case *ast.FuncLit:
			if nonEscapingClosure(info, enclosing, n, parents) {
				return false // stack-allocated; its body is still scanned via its own loops
			}
			if !coldExempt(n) {
				pass.Reportf(n.Pos(), "function literal allocates a closure in %s", where)
			}

		case *ast.CallExpr:
			checkHotCall(pass, n, where, coldExempt)

		case *ast.AssignStmt:
			// Assigning a concrete value to an interface-typed
			// destination boxes it just like a call argument does.
			if len(n.Lhs) != len(n.Rhs) || coldExempt(n) {
				return true
			}
			for i, lhs := range n.Lhs {
				lt := info.TypeOf(lhs)
				if lt == nil {
					continue
				}
				if _, isIface := lt.Underlying().(*types.Interface); !isIface {
					continue
				}
				rt := info.TypeOf(n.Rhs[i])
				if rt == nil || boxFree(rt) {
					continue
				}
				pass.Reportf(n.Rhs[i].Pos(), "assignment boxes a %s into an interface in %s", types.TypeString(rt, nil), where)
			}
		}
		return true
	})
}

// checkHotCall classifies one call inside a hot region.
func checkHotCall(pass *Pass, call *ast.CallExpr, where string, coldExempt func(ast.Node) bool) {
	info := pass.Pkg.Info
	if coldExempt(call) {
		return
	}
	switch {
	case isBuiltin(info, call.Fun, "append"):
		pass.Reportf(call.Pos(), "append may grow its backing array in %s; pre-size outside the loop", where)
		return
	case isBuiltin(info, call.Fun, "make"):
		pass.Reportf(call.Pos(), "make allocates in %s", where)
		return
	case isBuiltin(info, call.Fun, "new"):
		pass.Reportf(call.Pos(), "new allocates in %s", where)
		return
	}
	// Conversions: string <-> []byte / []rune copy their payload.
	if tv, ok := info.Types[call.Fun]; ok && tv.IsType() && len(call.Args) == 1 {
		dst := tv.Type.Underlying()
		src := info.TypeOf(call.Args[0])
		if src != nil && stringBytesConversion(dst, src.Underlying()) {
			pass.Reportf(call.Pos(), "%s conversion copies its payload in %s", types.TypeString(tv.Type, nil), where)
		}
		return
	}
	// Interface boxing: a non-pointer concrete argument passed to an
	// interface parameter heap-allocates the value it wraps.
	sig := callSignature(info, call)
	if sig == nil {
		return
	}
	params := sig.Params()
	for i, arg := range call.Args {
		var pt types.Type
		switch {
		case sig.Variadic() && i >= params.Len()-1:
			if call.Ellipsis != token.NoPos {
				continue // slice passed through, no per-arg boxing
			}
			pt = params.At(params.Len() - 1).Type().(*types.Slice).Elem()
		case i < params.Len():
			pt = params.At(i).Type()
		default:
			continue
		}
		if _, isIface := pt.Underlying().(*types.Interface); !isIface {
			continue
		}
		at := info.TypeOf(arg)
		if at == nil || boxFree(at) {
			continue
		}
		pass.Reportf(arg.Pos(), "argument boxes a %s into an interface in %s", types.TypeString(at, nil), where)
	}
}

// callSignature resolves the signature of a call's callee, or nil for
// conversions and untypeable forms.
func callSignature(info *types.Info, call *ast.CallExpr) *types.Signature {
	t := info.TypeOf(call.Fun)
	if t == nil {
		return nil
	}
	sig, _ := t.Underlying().(*types.Signature)
	return sig
}

// boxFree reports whether converting a value of type t to an interface
// cannot allocate: pointers, channels, maps, funcs and unsafe pointers
// fit the interface data word; interfaces re-wrap; nil is free.
func boxFree(t types.Type) bool {
	switch t.Underlying().(type) {
	case *types.Pointer, *types.Chan, *types.Map, *types.Signature, *types.Interface:
		return true
	case *types.Basic:
		b := t.Underlying().(*types.Basic)
		return b.Kind() == types.UntypedNil || b.Kind() == types.UnsafePointer
	}
	return false
}

// stringBytesConversion reports whether dst(src) is one of the
// payload-copying string conversions.
func stringBytesConversion(dst, src types.Type) bool {
	isStr := func(t types.Type) bool {
		b, ok := t.(*types.Basic)
		return ok && b.Info()&types.IsString != 0
	}
	isByteOrRuneSlice := func(t types.Type) bool {
		s, ok := t.(*types.Slice)
		if !ok {
			return false
		}
		e, ok := s.Elem().Underlying().(*types.Basic)
		return ok && (e.Kind() == types.Byte || e.Kind() == types.Rune || e.Kind() == types.Uint8 || e.Kind() == types.Int32)
	}
	return (isStr(dst) && isByteOrRuneSlice(src)) || (isByteOrRuneSlice(dst) && isStr(src))
}

// buildParents maps every node under root to its parent.
func buildParents(root ast.Node) map[ast.Node]ast.Node {
	parents := make(map[ast.Node]ast.Node)
	var stack []ast.Node
	ast.Inspect(root, func(n ast.Node) bool {
		if n == nil {
			stack = stack[:len(stack)-1]
			return true
		}
		if len(stack) > 0 {
			parents[n] = stack[len(stack)-1]
		}
		stack = append(stack, n)
		return true
	})
	return parents
}

// inColdExit reports whether n sits inside a statement block (between
// n and the region root) whose list terminates the hot path: its last
// statement is a return, panic, break or goto. Error-path allocations
// (the fmt.Errorf inside `if bad { return ..., fmt.Errorf(...) }`)
// run at most once per drain, not per event.
func inColdExit(n ast.Node, region ast.Node, parents map[ast.Node]ast.Node) bool {
	terminates := func(list []ast.Stmt) bool {
		if len(list) == 0 {
			return false
		}
		switch last := list[len(list)-1].(type) {
		case *ast.ReturnStmt:
			return true
		case *ast.BranchStmt:
			return last.Tok == token.BREAK || last.Tok == token.GOTO
		case *ast.ExprStmt:
			if call, ok := last.X.(*ast.CallExpr); ok {
				if id, ok := call.Fun.(*ast.Ident); ok && id.Name == "panic" {
					return true
				}
			}
		}
		return false
	}
	for cur := n; cur != nil && cur != region; cur = parents[cur] {
		switch p := parents[cur].(type) {
		case *ast.BlockStmt:
			if p != region && terminates(p.List) {
				return true
			}
		case *ast.CaseClause:
			if terminates(p.Body) {
				return true
			}
		case *ast.CommClause:
			if terminates(p.Body) {
				return true
			}
		}
	}
	return false
}

// nonEscapingClosure reports whether lit is bound to a local variable
// that is only ever called — `varint := func() ... ; varint()` — so
// the compiler keeps it off the heap.
func nonEscapingClosure(info *types.Info, enclosing *ast.FuncDecl, lit *ast.FuncLit, parents map[ast.Node]ast.Node) bool {
	as, ok := parents[lit].(*ast.AssignStmt)
	if !ok || len(as.Lhs) != len(as.Rhs) {
		return false
	}
	var obj types.Object
	for i, rhs := range as.Rhs {
		if rhs != lit {
			continue
		}
		id, ok := as.Lhs[i].(*ast.Ident)
		if !ok {
			return false
		}
		obj = info.Defs[id]
		if obj == nil {
			obj = info.Uses[id]
		}
	}
	if obj == nil {
		return false
	}
	// Every use of the variable must be direct call position.
	escapes := false
	ast.Inspect(enclosing.Body, func(n ast.Node) bool {
		if escapes {
			return false
		}
		id, ok := n.(*ast.Ident)
		if !ok || info.Uses[id] != obj {
			return true
		}
		call, ok := parents[id].(*ast.CallExpr)
		if !ok || call.Fun != id {
			escapes = true
		}
		return true
	})
	return !escapes
}
