package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"path/filepath"
	"strings"
)

// Facts is the cross-package classification store shared by every
// analyzer pass: which functions recover panics (goisolate), which
// struct fields are touched through sync/atomic and where (atomicfield),
// and which interfaces define the trace source/sink contract (drain).
// It is computed once over the full package set before any analyzer
// runs, so a pass over internal/server can reason about a wrapper
// defined in internal/sim.
type Facts struct {
	// recovers holds functions (declarations or closures bound to a
	// variable) whose body installs a deferred recover — running inside
	// one of these is panic-isolated.
	recovers map[types.Object]bool
	// recoverersWhenDeferred holds functions that call recover directly
	// in their own body; they isolate panics only when invoked via
	// defer.
	recoverersWhenDeferred map[types.Object]bool
	// atomicFields maps struct fields to the position of one sync/atomic
	// access to them.
	atomicFields map[*types.Var]token.Position
	// atomicUses records the positions of selector expressions that ARE
	// the &field argument of a sync/atomic call — the sanctioned
	// accesses the atomicfield analyzer must not flag.
	atomicUses map[token.Pos]bool
	// sourceIface and sinkIface are the trace.Source / trace.Sink
	// interfaces when the module has an internal/trace package; methods
	// implementing them are drain-protected wherever the receiver lives.
	sourceIface *types.Interface
	sinkIface   *types.Interface

	// hotFuncs is the declared hot set for the hotalloc analyzer: the
	// named warm-drain entry points plus every function carrying a
	// capvet:hot directive. hotCallees holds the one-level call-graph
	// propagation: module-local functions called from a hot function's
	// loops, whose full bodies are hot regions too.
	hotFuncs   map[types.Object]bool
	hotCallees map[types.Object]bool

	modulePath string
}

// filepathRel is filepath.Rel with slash-normalised output, for
// module-relative file names in findings.
func filepathRel(root, name string) (string, error) {
	rel, err := filepath.Rel(root, name)
	if err != nil {
		return "", err
	}
	return filepath.ToSlash(rel), nil
}

// relPkgPath maps a package to its module-relative path ("" when the
// package is the module root or foreign).
func (f *Facts) relPkgPath(pkg *types.Package) string {
	if pkg == nil {
		return ""
	}
	path := pkg.Path()
	if path == f.modulePath {
		return ""
	}
	if rest, ok := strings.CutPrefix(path, f.modulePath+"/"); ok {
		return rest
	}
	return ""
}

// BuildFacts computes the shared fact store for pkgs.
func BuildFacts(l *Loader, pkgs []*Package) *Facts {
	f := &Facts{
		recovers:               make(map[types.Object]bool),
		recoverersWhenDeferred: make(map[types.Object]bool),
		atomicFields:           make(map[*types.Var]token.Position),
		atomicUses:             make(map[token.Pos]bool),
		hotFuncs:               make(map[types.Object]bool),
		hotCallees:             make(map[types.Object]bool),
		modulePath:             l.ModulePath,
	}
	for _, pkg := range pkgs {
		f.lookupTraceIfaces(pkg)
		for _, file := range pkg.Files {
			f.collectRecoverers(pkg, file)
			f.collectAtomics(l, pkg, file)
		}
	}
	// The testdata harness loads packages that import the real
	// internal/trace without analyzing it; pull the interfaces from the
	// loader's cache too so the implements-rule still fires.
	if f.sourceIface == nil {
		for _, p := range l.pkgs {
			f.lookupTraceIfaces(p)
		}
	}
	f.collectHotSet(pkgs)
	return f
}

// HotDirective marks a function as part of the zero-alloc hot set when
// it appears in the function's doc comment:
//
//	// capvet:hot
//	func (s *Stepper) stepFast(...) { ... }
const HotDirective = "capvet:hot"

// hotByContract reports whether a declaration belongs to the declared
// hot set: the warm-drain entry points whose zero-alloc behaviour the
// AllocsPerRun guards pin.
func hotByContract(relPath, recv, name string) bool {
	switch relPath {
	case "internal/sim":
		return name == "StepBlock" || name == "forEachBlock"
	case "internal/trace":
		return name == "decodeColumns" || (recv == "colReader" && name == "NextBlock")
	case "internal/cpu":
		return name == "Run"
	}
	return false
}

// recvTypeName extracts a receiver's type name syntactically.
func recvTypeName(fd *ast.FuncDecl) string {
	if fd.Recv == nil || len(fd.Recv.List) == 0 {
		return ""
	}
	t := fd.Recv.List[0].Type
	if star, ok := t.(*ast.StarExpr); ok {
		t = star.X
	}
	switch t := t.(type) {
	case *ast.Ident:
		return t.Name
	case *ast.IndexExpr: // generic receiver
		if id, ok := t.X.(*ast.Ident); ok {
			return id.Name
		}
	}
	return ""
}

// collectHotSet resolves the hot set and its one-level propagation
// over the analyzed packages.
func (f *Facts) collectHotSet(pkgs []*Package) {
	type declSite struct {
		fd  *ast.FuncDecl
		pkg *Package
	}
	decls := make(map[types.Object]declSite)
	for _, pkg := range pkgs {
		for _, file := range pkg.Files {
			for _, decl := range file.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || fd.Body == nil {
					continue
				}
				obj := pkg.Info.Defs[fd.Name]
				if obj == nil {
					continue
				}
				decls[obj] = declSite{fd, pkg}
				if hotByContract(pkg.RelPath, recvTypeName(fd), fd.Name.Name) || hasHotDirective(fd) {
					f.hotFuncs[obj] = true
				}
			}
		}
	}
	// One level of propagation: a module-local function called from a
	// hot function's loops is checked over its full body — a helper
	// extracted out of (or added to) a hot loop stays covered.
	for obj := range f.hotFuncs {
		site := decls[obj]
		if site.fd == nil {
			continue
		}
		eachLoopBody(site.fd.Body, func(body *ast.BlockStmt) {
			ast.Inspect(body, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok {
					return true
				}
				callee := calleeObject(site.pkg.Info, call)
				if callee == nil || f.hotFuncs[callee] {
					return true
				}
				if _, local := decls[callee]; local {
					f.hotCallees[callee] = true
				}
				return true
			})
		})
	}
}

// hasHotDirective reports whether the declaration's doc comment carries
// the capvet:hot directive.
func hasHotDirective(fd *ast.FuncDecl) bool {
	if fd.Doc == nil {
		return false
	}
	for _, c := range fd.Doc.List {
		text := strings.TrimSpace(strings.TrimPrefix(c.Text, "//"))
		if text == HotDirective || strings.HasPrefix(text, HotDirective+" ") {
			return true
		}
	}
	return false
}

// eachLoopBody invokes fn for every for/range body under root,
// including loops inside function literals (a closure called from the
// function still iterates).
func eachLoopBody(root ast.Node, fn func(*ast.BlockStmt)) {
	ast.Inspect(root, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.ForStmt:
			fn(n.Body)
		case *ast.RangeStmt:
			fn(n.Body)
		}
		return true
	})
}

// lookupTraceIfaces captures trace.Source / trace.Sink when pkg is the
// module's internal/trace package.
func (f *Facts) lookupTraceIfaces(pkg *Package) {
	if pkg.RelPath != "internal/trace" || f.sourceIface != nil && f.sinkIface != nil {
		return
	}
	iface := func(name string) *types.Interface {
		obj := pkg.Types.Scope().Lookup(name)
		if obj == nil {
			return nil
		}
		i, _ := obj.Type().Underlying().(*types.Interface)
		return i
	}
	f.sourceIface = iface("Source")
	f.sinkIface = iface("Sink")
}

// hasDirectRecover reports whether body calls recover() outside any
// nested function literal.
func hasDirectRecover(body *ast.BlockStmt, info *types.Info) bool {
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		if found {
			return false
		}
		if _, ok := n.(*ast.FuncLit); ok {
			return false
		}
		if call, ok := n.(*ast.CallExpr); ok && isBuiltin(info, call.Fun, "recover") {
			found = true
		}
		return true
	})
	return found
}

// installsRecover reports whether body (run normally, not deferred)
// isolates panics: it contains a top-level-or-nested defer whose callee
// is a recover-calling literal, or a defer of a named function known to
// recover when deferred.
func (f *Facts) installsRecover(body *ast.BlockStmt, info *types.Info) bool {
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		if found {
			return false
		}
		d, ok := n.(*ast.DeferStmt)
		if !ok {
			return true
		}
		switch fn := d.Call.Fun.(type) {
		case *ast.FuncLit:
			if hasDirectRecover(fn.Body, info) {
				found = true
			}
		default:
			if obj := calleeObject(info, d.Call); obj != nil && f.recoverersWhenDeferred[obj] {
				found = true
			}
		}
		return true
	})
	return found
}

// classifyFunc records what a function's body does about panics.
func (f *Facts) classifyFunc(obj types.Object, body *ast.BlockStmt, info *types.Info) {
	if obj == nil || body == nil {
		return
	}
	if hasDirectRecover(body, info) {
		f.recoverersWhenDeferred[obj] = true
	}
	if f.installsRecover(body, info) {
		f.recovers[obj] = true
	}
}

// collectRecoverers classifies every function declaration and every
// closure bound to a variable (v := func() {...}) in the file. Two
// sweeps, because a closure defined above may defer one defined below.
func (f *Facts) collectRecoverers(pkg *Package, file *ast.File) {
	// First sweep: direct recover() calls, so the second sweep can
	// resolve defers of named recoverers in either order.
	ast.Inspect(file, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncDecl:
			if n.Body != nil && hasDirectRecover(n.Body, pkg.Info) {
				f.recoverersWhenDeferred[pkg.Info.Defs[n.Name]] = true
			}
		case *ast.AssignStmt:
			forEachBoundClosure(pkg.Info, n, func(obj types.Object, lit *ast.FuncLit) {
				if hasDirectRecover(lit.Body, pkg.Info) {
					f.recoverersWhenDeferred[obj] = true
				}
			})
		}
		return true
	})
	ast.Inspect(file, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncDecl:
			f.classifyFunc(pkg.Info.Defs[n.Name], n.Body, pkg.Info)
		case *ast.AssignStmt:
			forEachBoundClosure(pkg.Info, n, func(obj types.Object, lit *ast.FuncLit) {
				f.classifyFunc(obj, lit.Body, pkg.Info)
			})
		}
		return true
	})
}

// forEachBoundClosure invokes fn for each `name := func(...) {...}`
// binding in an assignment.
func forEachBoundClosure(info *types.Info, as *ast.AssignStmt, fn func(types.Object, *ast.FuncLit)) {
	if len(as.Lhs) != len(as.Rhs) {
		return
	}
	for i, rhs := range as.Rhs {
		lit, ok := rhs.(*ast.FuncLit)
		if !ok {
			continue
		}
		id, ok := as.Lhs[i].(*ast.Ident)
		if !ok {
			continue
		}
		obj := info.Defs[id]
		if obj == nil {
			obj = info.Uses[id] // plain `=` rebinding an existing variable
		}
		if obj != nil {
			fn(obj, lit)
		}
	}
}

// collectAtomics records struct fields passed by address to sync/atomic
// functions, and the sanctioned selector positions.
func (f *Facts) collectAtomics(l *Loader, pkg *Package, file *ast.File) {
	ast.Inspect(file, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		fn := calleeFunc(pkg.Info, call)
		if fn == nil || fn.Pkg() == nil || fn.Pkg().Path() != "sync/atomic" {
			return true
		}
		for _, arg := range call.Args {
			un, ok := arg.(*ast.UnaryExpr)
			if !ok || un.Op != token.AND {
				continue
			}
			sel, ok := un.X.(*ast.SelectorExpr)
			if !ok {
				continue
			}
			fv := fieldOf(pkg.Info, sel)
			if fv == nil {
				continue
			}
			if _, seen := f.atomicFields[fv]; !seen {
				f.atomicFields[fv] = l.Fset.Position(sel.Pos())
			}
			f.atomicUses[sel.Pos()] = true
		}
		return true
	})
}

// fieldOf returns the struct field a selector resolves to, or nil.
func fieldOf(info *types.Info, sel *ast.SelectorExpr) *types.Var {
	s, ok := info.Selections[sel]
	if !ok || s.Kind() != types.FieldVal {
		return nil
	}
	return s.Obj().(*types.Var)
}

// calleeObject resolves a call's callee to its object, through plain
// identifiers and selector expressions (methods, qualified names).
func calleeObject(info *types.Info, call *ast.CallExpr) types.Object {
	switch fn := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		return info.Uses[fn]
	case *ast.SelectorExpr:
		if sel, ok := info.Selections[fn]; ok {
			return sel.Obj()
		}
		return info.Uses[fn.Sel]
	}
	return nil
}

// calleeFunc is calleeObject narrowed to functions/methods.
func calleeFunc(info *types.Info, call *ast.CallExpr) *types.Func {
	fn, _ := calleeObject(info, call).(*types.Func)
	return fn
}

// isBuiltin reports whether expr denotes the named builtin.
func isBuiltin(info *types.Info, expr ast.Expr, name string) bool {
	id, ok := ast.Unparen(expr).(*ast.Ident)
	if !ok || id.Name != name {
		return false
	}
	_, ok = info.Uses[id].(*types.Builtin)
	return ok
}

// moduleLocal reports whether pkg belongs to the analyzed module.
func (f *Facts) moduleLocal(pkg *types.Package) bool {
	if pkg == nil {
		return false
	}
	return pkg.Path() == f.modulePath || strings.HasPrefix(pkg.Path(), f.modulePath+"/")
}

// isBlockNamed reports whether t is the module's internal/trace Block
// type (the SoA event batch whose ownership lifecycle blockown tracks).
func (f *Facts) isBlockNamed(t types.Type) bool {
	n, ok := t.(*types.Named)
	if !ok || n.Obj().Name() != "Block" {
		return false
	}
	return f.relPkgPath(n.Obj().Pkg()) == "internal/trace"
}

// isBlockPtr reports whether t is *trace.Block.
func (f *Facts) isBlockPtr(t types.Type) bool {
	p, ok := t.(*types.Pointer)
	return ok && f.isBlockNamed(p.Elem())
}

// DrainProtected reports whether fn's error result is part of the
// drain contract — the call sites that silently truncated streams
// before PR 1 made them all return and check errors:
//
//   - internal/sim's RunTrace / RunTraceContext / forEachBlock;
//   - any Stepper method with an error result;
//   - every error-returning function or method of internal/trace (the
//     encoder/decoder layer);
//   - every error-returning load.Client method — the capload surfaces
//     (session RPCs and the /metrics scraper) report transport and SLO
//     failures only through the error result, so dropping one hides a
//     dead or throttled server from the soak report;
//   - any method with an error result implementing trace.Source or
//     trace.Sink, wherever the implementation lives.
func (f *Facts) DrainProtected(fn *types.Func) bool {
	if fn == nil {
		return false
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok || !lastResultIsError(sig) {
		return false
	}
	rel := f.relPkgPath(fn.Pkg())
	switch rel {
	case "internal/trace":
		return true
	case "internal/sim":
		switch fn.Name() {
		case "RunTrace", "RunTraceContext", "forEachBlock":
			return true
		}
		if recvNamed(sig) == "Stepper" {
			return true
		}
	case "internal/load":
		if recvNamed(sig) == "Client" {
			return true
		}
	}
	if sig.Recv() != nil {
		rt := sig.Recv().Type()
		// A value-receiver method may only satisfy the interface through
		// *T's method set; check both forms.
		impl := func(iface *types.Interface) bool {
			if types.Implements(rt, iface) {
				return true
			}
			if _, isPtr := rt.(*types.Pointer); !isPtr {
				return types.Implements(types.NewPointer(rt), iface)
			}
			return false
		}
		for _, iface := range []*types.Interface{f.sourceIface, f.sinkIface} {
			if iface != nil && impl(iface) && ifaceHasMethod(iface, fn.Name()) {
				return true
			}
		}
	}
	return false
}

// lastResultIsError reports whether a signature's final result is the
// error type.
func lastResultIsError(sig *types.Signature) bool {
	res := sig.Results()
	if res.Len() == 0 {
		return false
	}
	t, ok := res.At(res.Len() - 1).Type().(*types.Named)
	return ok && t.Obj().Pkg() == nil && t.Obj().Name() == "error"
}

// recvNamed returns the name of a method's receiver type, dereferenced.
func recvNamed(sig *types.Signature) string {
	if sig.Recv() == nil {
		return ""
	}
	t := sig.Recv().Type()
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	if n, ok := t.(*types.Named); ok {
		return n.Obj().Name()
	}
	return ""
}

// ifaceHasMethod reports whether the interface declares a method name.
func ifaceHasMethod(iface *types.Interface, name string) bool {
	for i := 0; i < iface.NumMethods(); i++ {
		if iface.Method(i).Name() == name {
			return true
		}
	}
	return false
}
