package analysis

// CtxFlow enforces request-context discipline in the serving and load
// layers (internal/server, internal/load):
//
//  1. a function that already carries a context.Context (or an
//     *http.Request, whose Context() is the request context) must not
//     mint a fresh context.Background() / context.TODO() — that
//     detaches the work from the caller's deadline and cancellation;
//  2. every *http.Response obtained in those packages must have its
//     Body closed on every CFG path — including early error returns —
//     or escape to a caller that takes over the obligation. The
//     standard `if err != nil` guard is understood: on the error edge
//     the response is nil and carries no obligation.
//
// Rule 2 runs on the CFG/dataflow engine: responses are tracked
// through branches and joins, deferred closes (plain or wrapped in a
// closure) discharge at exit, and a response still open on some path
// is reported at its acquisition site.

import (
	"go/ast"
	"go/token"
	"go/types"
)

var CtxFlow = &Analyzer{
	Name:  "ctxflow",
	Doc:   "request paths thread their incoming context and close every http.Response body on all paths",
	Scope: underAny("internal/server", "internal/load"),
	Run:   runCtxFlow,
}

func runCtxFlow(pass *Pass) {
	for _, file := range pass.Pkg.Files {
		eachFuncBody(file, func(fn ast.Node, body *ast.BlockStmt, enclosing []ast.Node) {
			checkBackground(pass, fn, body)
			prob := &respCloseProblem{pass: pass, fn: fn}
			if !prob.anyResponses(body) {
				return
			}
			runFlow(buildCFG(body), prob, pass.Reportf)
		})
	}
}

// ---- rule 1: no context.Background()/TODO() on request paths ----

// checkBackground flags Background/TODO calls inside functions that
// already carry a request context. Function literals are checked when
// the walk reaches them (they inherit the verdict through their own
// parameters only, so a background helper closure stays allowed unless
// it takes a ctx itself — the capture case is caught when the walk
// visits the enclosing function, whose body includes the literal).
func checkBackground(pass *Pass, fn ast.Node, body *ast.BlockStmt) {
	if !carriesRequestContext(pass, fn) {
		return
	}
	ast.Inspect(body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		f := calleeFunc(pass.Pkg.Info, call)
		if f == nil || f.Pkg() == nil || f.Pkg().Path() != "context" {
			return true
		}
		if f.Name() == "Background" || f.Name() == "TODO" {
			pass.Reportf(call.Pos(), "context.%s inside a function that carries a request context: thread the incoming ctx instead of detaching from its deadline", f.Name())
		}
		return true
	})
}

// carriesRequestContext reports whether the function's parameters
// include a context.Context or an *http.Request.
func carriesRequestContext(pass *Pass, fn ast.Node) bool {
	var ft *ast.FuncType
	switch fn := fn.(type) {
	case *ast.FuncDecl:
		ft = fn.Type
	case *ast.FuncLit:
		ft = fn.Type
	}
	if ft == nil || ft.Params == nil {
		return false
	}
	for _, field := range ft.Params.List {
		t := pass.Pkg.Info.TypeOf(field.Type)
		if t == nil {
			continue
		}
		if isNamedType(t, "context", "Context") || isHTTPResponsePtrTo(t, "Request") {
			return true
		}
	}
	return false
}

// ---- rule 2: http.Response bodies closed on all paths ----

// Response states; must-analysis: a response is reported only when it
// is open on some path and closed/escaped on none of the exits.
const (
	respOpen uint8 = iota
	respClosed
	respEscaped
)

type respState struct {
	state uint8
	// errObj, when non-nil, is the error variable bound alongside the
	// response: on the `err != nil` edge the response is nil and the
	// obligation disappears.
	errObj types.Object
	// acquiredAt anchors the diagnostic to the call that produced the
	// response.
	acquiredAt token.Pos
}

type respFact map[types.Object]respState

func (f respFact) clone() respFact {
	out := make(respFact, len(f)+1)
	for k, v := range f {
		out[k] = v
	}
	return out
}

type respCloseProblem struct {
	pass *Pass
	fn   ast.Node
}

func (p *respCloseProblem) anyResponses(body *ast.BlockStmt) bool {
	found := false
	info := p.pass.Pkg.Info
	ast.Inspect(body, func(n ast.Node) bool {
		if found {
			return false
		}
		if id, ok := n.(*ast.Ident); ok {
			if obj := identObj(info, id); obj != nil && isHTTPResponsePtrTo(obj.Type(), "Response") {
				found = true
			}
		}
		return true
	})
	return found
}

func (p *respCloseProblem) entry() flowFact { return respFact{} }

func (p *respCloseProblem) join(a, b flowFact) flowFact {
	fa, fb := a.(respFact), b.(respFact)
	out := fa.clone()
	for obj, sb := range fb {
		sa, ok := out[obj]
		if !ok {
			out[obj] = sb
			continue
		}
		m := sa
		// escaped > open > closed: an escape anywhere hands off the
		// obligation; otherwise any open path keeps it alive.
		rank := func(s uint8) int {
			switch s {
			case respEscaped:
				return 2
			case respOpen:
				return 1
			}
			return 0
		}
		if rank(sb.state) > rank(m.state) {
			m.state = sb.state
		}
		out[obj] = m
	}
	return out
}

func (p *respCloseProblem) equal(a, b flowFact) bool {
	fa, fb := a.(respFact), b.(respFact)
	if len(fa) != len(fb) {
		return false
	}
	for k, v := range fa {
		if w, ok := fb[k]; !ok || w != v {
			return false
		}
	}
	return true
}

// branch understands the `if err != nil { return ... }` idiom: on the
// edge where the paired error is non-nil, the response is nil and
// carries no close obligation.
func (p *respCloseProblem) branch(f flowFact, cond ast.Expr, takeTrue bool) flowFact {
	errObj, errNonNilWhenTrue := nilCheckedErr(p.pass.Pkg.Info, cond)
	if errObj == nil {
		return f
	}
	st := f.(respFact)
	var out respFact
	for obj, s := range st {
		if s.errObj != errObj {
			continue
		}
		if takeTrue == errNonNilWhenTrue {
			// This edge has err != nil: the response is nil here.
			if out == nil {
				out = st.clone()
			}
			delete(out, obj)
		}
	}
	if out == nil {
		return f
	}
	return out
}

func (p *respCloseProblem) transfer(f flowFact, n ast.Node, rep reporter) flowFact {
	st := f.(respFact)
	info := p.pass.Pkg.Info

	set := func(obj types.Object, s respState) {
		st = st.clone()
		st[obj] = s
	}

	// Acquisition: resp, err := <call> (or resp := <call>).
	if as, ok := n.(*ast.AssignStmt); ok {
		if len(as.Rhs) == 1 {
			if call, ok := ast.Unparen(as.Rhs[0]).(*ast.CallExpr); ok {
				var resp, errv types.Object
				for i, lhs := range as.Lhs {
					id, ok := lhs.(*ast.Ident)
					if !ok || id.Name == "_" {
						continue
					}
					obj := identObj(info, id)
					if obj == nil {
						continue
					}
					if isHTTPResponsePtrTo(obj.Type(), "Response") {
						resp = obj
					} else if isErrorType(obj.Type()) && i == len(as.Lhs)-1 {
						errv = obj
					}
				}
				if resp != nil {
					set(resp, respState{state: respOpen, errObj: errv, acquiredAt: call.Pos()})
					return st
				}
			}
		}
		// Aliasing or rebinding from a non-call: track plain copies,
		// drop anything else.
		if len(as.Lhs) == len(as.Rhs) {
			for i, lhs := range as.Lhs {
				id, ok := lhs.(*ast.Ident)
				if !ok {
					continue
				}
				obj := identObj(info, id)
				if obj == nil {
					continue
				}
				if src, ok := ast.Unparen(as.Rhs[i]).(*ast.Ident); ok {
					if sobj := identObj(info, src); sobj != nil {
						if s, tracked := st[sobj]; tracked {
							set(obj, s)
							continue
						}
					}
				}
				if _, tracked := st[obj]; tracked {
					st = st.clone()
					delete(st, obj)
				}
			}
		}
	}

	// A deferred call's effects replay at exit via atExit.
	var deferredCall *ast.CallExpr
	if d, ok := n.(*ast.DeferStmt); ok {
		deferredCall = d.Call
	}

	inspectNoFuncLit(n, func(m ast.Node) {
		call, ok := m.(*ast.CallExpr)
		if !ok || call == deferredCall {
			return
		}
		if obj := closedResponse(info, st, call); obj != nil {
			s := st[obj]
			s.state = respClosed
			set(obj, s)
			return
		}
		// Passing the response itself to another function hands off
		// the obligation; passing resp.Body does not (readers don't
		// close).
		for _, arg := range call.Args {
			if id, ok := ast.Unparen(arg).(*ast.Ident); ok {
				if obj := identObj(info, id); obj != nil {
					if s, tracked := st[obj]; tracked {
						s.state = respEscaped
						set(obj, s)
					}
				}
			}
		}
	})

	// Returning or storing the response hands the obligation to the
	// caller/owner.
	escapeIdents := func(exprs []ast.Expr) {
		for _, e := range exprs {
			if id, ok := ast.Unparen(e).(*ast.Ident); ok {
				if obj := identObj(info, id); obj != nil {
					if s, tracked := st[obj]; tracked {
						s.state = respEscaped
						set(obj, s)
					}
				}
			}
		}
	}
	switch s := n.(type) {
	case *ast.ReturnStmt:
		escapeIdents(s.Results)
	case *ast.SendStmt:
		escapeIdents([]ast.Expr{s.Value})
	case *ast.AssignStmt:
		if len(s.Lhs) == len(s.Rhs) {
			for i, lhs := range s.Lhs {
				if _, plain := lhs.(*ast.Ident); !plain {
					escapeIdents([]ast.Expr{s.Rhs[i]})
				}
			}
		}
	}
	return st
}

// atExit discharges deferred closes, then reports any response still
// open at its acquisition site.
func (p *respCloseProblem) atExit(f flowFact, defers []*ast.DeferStmt, rep reporter) {
	st := f.(respFact)
	info := p.pass.Pkg.Info
	closed := make(map[types.Object]bool)
	for _, d := range defers {
		if obj := closedResponse(info, st, d.Call); obj != nil {
			closed[obj] = true
			continue
		}
		// defer func() { ... resp.Body.Close() ... }() — any mention of
		// the response inside a deferred closure is treated as taking
		// over the obligation.
		if lit, ok := ast.Unparen(d.Call.Fun).(*ast.FuncLit); ok {
			ast.Inspect(lit.Body, func(m ast.Node) bool {
				if id, ok := m.(*ast.Ident); ok {
					if obj := identObj(info, id); obj != nil {
						if _, tracked := st[obj]; tracked {
							closed[obj] = true
						}
					}
				}
				return true
			})
		}
	}
	for obj, s := range st {
		if s.state != respOpen || closed[obj] {
			continue
		}
		rep(s.acquiredAt, "response body for %s is not closed on every path: defer %s.Body.Close() after the error check", obj.Name(), obj.Name())
	}
}

// closedResponse matches resp.Body.Close() and returns the tracked
// response variable, or nil.
func closedResponse(info *types.Info, st respFact, call *ast.CallExpr) types.Object {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok || sel.Sel.Name != "Close" {
		return nil
	}
	inner, ok := ast.Unparen(sel.X).(*ast.SelectorExpr)
	if !ok || inner.Sel.Name != "Body" {
		return nil
	}
	id, ok := ast.Unparen(inner.X).(*ast.Ident)
	if !ok {
		return nil
	}
	obj := identObj(info, id)
	if obj == nil {
		return nil
	}
	if _, tracked := st[obj]; !tracked {
		return nil
	}
	return obj
}

// nilCheckedErr decodes `err != nil` / `err == nil` / `nil != err`
// conditions, returning the error object and whether the TRUE edge is
// the err-non-nil one.
func nilCheckedErr(info *types.Info, cond ast.Expr) (types.Object, bool) {
	be, ok := ast.Unparen(cond).(*ast.BinaryExpr)
	if !ok || (be.Op != token.NEQ && be.Op != token.EQL) {
		return nil, false
	}
	pick := func(a, b ast.Expr) *ast.Ident {
		if id, ok := ast.Unparen(a).(*ast.Ident); ok {
			if nb, ok := ast.Unparen(b).(*ast.Ident); ok && nb.Name == "nil" {
				return id
			}
		}
		return nil
	}
	id := pick(be.X, be.Y)
	if id == nil {
		id = pick(be.Y, be.X)
	}
	if id == nil {
		return nil, false
	}
	obj := identObj(info, id)
	if obj == nil || !isErrorType(obj.Type()) {
		return nil, false
	}
	return obj, be.Op == token.NEQ
}

// isNamedType reports whether t is (or points to) the named type
// pkgPath.name.
func isNamedType(t types.Type, pkgPath, name string) bool {
	n, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := n.Obj()
	return obj.Pkg() != nil && obj.Pkg().Path() == pkgPath && obj.Name() == name
}

// isHTTPResponsePtrTo reports whether t is *net/http.<name>.
func isHTTPResponsePtrTo(t types.Type, name string) bool {
	p, ok := t.(*types.Pointer)
	if !ok {
		return false
	}
	return isNamedType(p.Elem(), "net/http", name)
}

// isErrorType reports whether t is the built-in error type.
func isErrorType(t types.Type) bool {
	n, ok := t.(*types.Named)
	return ok && n.Obj().Pkg() == nil && n.Obj().Name() == "error"
}
