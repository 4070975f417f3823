package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// borrowEscapeRule mechanically enforces the zero-alloc decode borrow
// contract from the ICP layer: a Message (and the *DirUpdate and flip
// slice hanging off it) produced by Decoder.Decode is valid only until
// the next decode, so a handler receiving one — and any function holding
// a freshly decoded one — must not let it outlive the call. Escapes are:
//
//   - storing it (or anything borrow-carrying derived from it) into a
//     struct field reached through a receiver/pointer parameter, or into
//     a package-level variable;
//   - sending it on a channel;
//   - handing it to a spawned goroutine (argument or closure capture);
//   - passing it to a callee whose summary says the parameter escapes.
//
// Clone() launders a value; so does copying value-typed data out of it
// (URL strings are owned by contract, counters are scalars, and
// append(nil, m.Update.Flips...) copies the flip values). Taint
// propagates only through borrow-carrying types — anything that
// transitively contains a pointer, slice, map, chan or interface —
// so storing m.Update.Bits or m.URL is clean by construction.
//
// Roots are found two ways: any function value with a borrowed-Message
// parameter used as a callback (assigned, passed, stored — not called)
// is treated as a handler and its Message parameters are borrowed; and
// every call to Decoder.Decode taints its Message result, with
// "returns a borrow" summaries propagating that through wrappers.
type borrowEscapeRule struct {
	u        *Universe
	perPkg   map[*Package][]pendingFinding
	sums     *summaries
	handlers map[*types.Func]bool
	litRoots map[*ast.FuncLit]bool

	escMemo  map[escKey]*escFact
	retMemo  map[*types.Func]*retFact
	carrying map[types.Type]bool
}

type escKey struct {
	fn    *types.Func
	param int // receiver is 0; value params follow
}

type escFact struct {
	state   int // 0 unset, 1 computing, 2 done
	escapes bool
}

type retFact struct {
	state int
	fresh []bool // result i derives from a Decode inside the callee
	pass  []bool // result i derives from a borrow-carrying parameter
}

func (r *borrowEscapeRule) Name() string { return RuleBorrowEscape }

func (r *borrowEscapeRule) Doc() string {
	return "a borrowed (decoder-owned) icp.Message/DirUpdate must not outlive the call without Clone()"
}

func (r *borrowEscapeRule) Check(pkg *Package, report ReportFunc) {
	if pkg.Universe == nil {
		return
	}
	if r.u != pkg.Universe {
		r.analyze(pkg.Universe)
		r.u = pkg.Universe
	}
	for _, f := range r.perPkg[pkg] {
		report(f.pos, "%s", f.msg)
	}
}

// --- type predicates --------------------------------------------------

// isICPPkg matches the module's internal/icp package and the fixture
// universes' internal/icp mirrors.
func isICPPkg(p *types.Package) bool {
	if p == nil {
		return false
	}
	return p.Path() == "internal/icp" || strings.HasSuffix(p.Path(), "/internal/icp")
}

// borrowedNamed reports whether t (or its pointee) is icp.Message or
// icp.DirUpdate — the decoder-owned types the contract is about.
func borrowedNamed(t types.Type) bool {
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	name := named.Obj().Name()
	return (name == "Message" || name == "DirUpdate") && isICPPkg(named.Obj().Pkg())
}

// borrowCarrying reports whether values of t can carry a borrow:
// anything transitively containing a pointer, slice, map, chan, func or
// interface. Strings are excluded — the decode contract hands the
// handler owned URL strings — so copying scalars and strings out of a
// borrowed message is clean by type alone.
func (r *borrowEscapeRule) borrowCarrying(t types.Type) bool {
	if t == nil {
		return false
	}
	if v, ok := r.carrying[t]; ok {
		return v
	}
	r.carrying[t] = false // cycle-breaker; overwritten below
	v := false
	switch u := t.Underlying().(type) {
	case *types.Basic:
		v = false
	case *types.Pointer, *types.Slice, *types.Map, *types.Chan, *types.Signature, *types.Interface:
		v = true
	case *types.Array:
		v = r.borrowCarrying(u.Elem())
	case *types.Struct:
		for i := 0; i < u.NumFields(); i++ {
			if r.borrowCarrying(u.Field(i).Type()) {
				v = true
				break
			}
		}
	}
	r.carrying[t] = v
	return v
}

// isCloneCall reports m.Clone() / u.Clone() on a borrowed type: the
// sanctioned laundering point.
func isCloneCall(pkg *Package, call *ast.CallExpr) bool {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok || sel.Sel.Name != "Clone" {
		return false
	}
	fn, ok := pkg.Info.Uses[sel.Sel].(*types.Func)
	if !ok {
		return false
	}
	recv := fn.Type().(*types.Signature).Recv()
	return recv != nil && borrowedNamed(recv.Type())
}

// decodeVec returns, for a call to (*icp.Decoder).Decode, which results
// are borrowed (nil when the call is not a Decode). Decode is the borrow
// source: its Message result aliases the decoder's scratch.
func decodeVec(pkg *Package, call *ast.CallExpr) []bool {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok || sel.Sel.Name != "Decode" {
		return nil
	}
	fn, ok := pkg.Info.Uses[sel.Sel].(*types.Func)
	if !ok {
		return nil
	}
	recv := fn.Type().(*types.Signature).Recv()
	if recv == nil {
		return nil
	}
	rt := recv.Type()
	if p, ok := rt.(*types.Pointer); ok {
		rt = p.Elem()
	}
	named, ok := rt.(*types.Named)
	if !ok || named.Obj().Name() != "Decoder" || !isICPPkg(named.Obj().Pkg()) {
		return nil
	}
	res := fn.Type().(*types.Signature).Results()
	vec := make([]bool, res.Len())
	for i := range vec {
		vec[i] = borrowedNamed(res.At(i).Type())
	}
	return vec
}

// --- analysis ---------------------------------------------------------

func (r *borrowEscapeRule) analyze(u *Universe) {
	r.perPkg = map[*Package][]pendingFinding{}
	r.sums = u.summaries()
	r.escMemo = map[escKey]*escFact{}
	r.retMemo = map[*types.Func]*retFact{}
	r.carrying = map[types.Type]bool{}
	r.findHandlers(u)

	for _, pkg := range u.Pkgs {
		if pkg.IsMain() {
			continue
		}
		pkg := pkg
		report := func(pos token.Pos, msg string) {
			r.perPkg[pkg] = append(r.perPkg[pkg], pendingFinding{pos: pos, msg: msg})
		}
		for _, f := range pkg.Files {
			for _, decl := range f.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || fd.Body == nil {
					continue
				}
				obj, ok := pkg.Info.Defs[fd.Name].(*types.Func)
				if !ok {
					continue
				}
				objs := declParamObjs(pkg, fd)
				roots := map[types.Object]bool{}
				if r.handlers[obj] {
					for _, o := range objs {
						if o != nil && borrowedNamed(o.Type()) {
							roots[o] = true
						}
					}
				}
				fc := r.newFlow(pkg, report)
				for _, o := range objs {
					if o != nil {
						fc.params[o] = true
					}
				}
				fc.run(fd.Body, roots)
			}
			ast.Inspect(f, func(n ast.Node) bool {
				lit, ok := n.(*ast.FuncLit)
				if !ok || !r.litRoots[lit] {
					return true
				}
				roots := map[types.Object]bool{}
				fc := r.newFlow(pkg, report)
				for _, field := range lit.Type.Params.List {
					for _, name := range field.Names {
						if o := pkg.Info.Defs[name]; o != nil {
							fc.params[o] = true
							if borrowedNamed(o.Type()) {
								roots[o] = true
							}
						}
					}
				}
				fc.run(lit.Body, roots)
				return true
			})
		}
	}
}

// findHandlers marks every function (or literal) whose value — not a
// call of it — flows somewhere while carrying a borrowed-Message
// parameter in its signature. Registering n.handle as an icp.Handler,
// passing a method value to icp.Listen, storing a callback in a config
// struct: all make the target a handler whose Message parameters are
// borrowed at every invocation.
func (r *borrowEscapeRule) findHandlers(u *Universe) {
	r.handlers = map[*types.Func]bool{}
	r.litRoots = map[*ast.FuncLit]bool{}
	for _, pkg := range u.Pkgs {
		pkg := pkg
		for _, f := range pkg.Files {
			walkStack(f, func(n ast.Node, stack []ast.Node) {
				switch n := n.(type) {
				case *ast.Ident:
					if sel, ok := parent(stack).(*ast.SelectorExpr); ok && sel.Sel == n {
						return // handled at the selector
					}
					fn, ok := pkg.Info.Uses[n].(*types.Func)
					if !ok || !handlerish(fn.Type()) || isCallFun(stack, n) {
						return
					}
					r.handlers[fn] = true
				case *ast.SelectorExpr:
					fn, ok := pkg.Info.Uses[n.Sel].(*types.Func)
					if !ok || !handlerish(fn.Type()) || isCallFun(stack, n) {
						return
					}
					r.handlers[fn] = true
				case *ast.FuncLit:
					if t := pkg.Info.TypeOf(n); handlerish(t) && !isCallFun(stack, n) {
						r.litRoots[n] = true
					}
				}
			})
		}
	}
}

// handlerish reports a function type with at least one borrowed-Message
// parameter — the shape of icp.Handler and of the callbacks built on it.
func handlerish(t types.Type) bool {
	sig, ok := t.Underlying().(*types.Signature)
	if !ok {
		return false
	}
	for i := 0; i < sig.Params().Len(); i++ {
		if borrowedNamed(sig.Params().At(i).Type()) {
			return true
		}
	}
	return false
}

// isCallFun reports whether n is the function operand of its enclosing
// call (f in f(x)) — a call, not a value use.
func isCallFun(stack []ast.Node, n ast.Node) bool {
	call, ok := parent(stack).(*ast.CallExpr)
	return ok && ast.Unparen(call.Fun) == n
}

// declParamObjs returns the receiver (if any) followed by the declared
// parameter objects, nil for unnamed slots.
func declParamObjs(pkg *Package, fd *ast.FuncDecl) []types.Object {
	var out []types.Object
	add := func(fl *ast.FieldList) {
		if fl == nil {
			return
		}
		for _, field := range fl.List {
			if len(field.Names) == 0 {
				out = append(out, nil)
				continue
			}
			for _, name := range field.Names {
				out = append(out, pkg.Info.Defs[name])
			}
		}
	}
	add(fd.Recv)
	add(fd.Type.Params)
	return out
}

// --- the flow walker --------------------------------------------------

type flowCtx struct {
	r       *borrowEscapeRule
	pkg     *Package
	report  func(pos token.Pos, msg string) // nil in facts mode
	tainted map[types.Object]bool
	params  map[types.Object]bool // this body's receiver+params
	escaped bool
	retVec  []bool // per-result borrow, filled at returns
}

func (r *borrowEscapeRule) newFlow(pkg *Package, report func(token.Pos, string)) *flowCtx {
	return &flowCtx{r: r, pkg: pkg, report: report, tainted: map[types.Object]bool{}, params: map[types.Object]bool{}}
}

func (fc *flowCtx) sink(pos token.Pos, msg string) {
	fc.escaped = true
	if fc.report != nil {
		fc.report(pos, msg)
	}
}

// run flows taint from roots through body in source order.
func (fc *flowCtx) run(body *ast.BlockStmt, roots map[types.Object]bool) {
	for o := range roots {
		fc.tainted[o] = true
	}
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			// A non-go closure runs (at most) within the call; captures
			// that then escape are beyond this pass — documented miss.
			return false
		case *ast.GoStmt:
			fc.goStmt(n)
			return false
		case *ast.SendStmt:
			if fc.taintedExpr(n.Value) {
				fc.sink(n.Pos(), "borrowed decoder data sent on a channel outlives the handler call; send a Clone() — the decoder reuses these buffers on the next frame")
			}
			return true
		case *ast.AssignStmt:
			fc.assign(n)
			return true
		case *ast.RangeStmt:
			fc.rangeStmt(n)
			return true
		case *ast.CallExpr:
			fc.call(n)
			return true
		case *ast.ReturnStmt:
			for i, e := range n.Results {
				if fc.taintedExpr(e) {
					for len(fc.retVec) <= i {
						fc.retVec = append(fc.retVec, false)
					}
					fc.retVec[i] = true
				}
			}
			return true
		}
		return true
	})
}

// goStmt flags borrowed data crossing into a spawned goroutine, which
// by construction outlives the current decode window.
func (fc *flowCtx) goStmt(g *ast.GoStmt) {
	for _, arg := range g.Call.Args {
		if fc.taintedExpr(arg) {
			fc.sink(arg.Pos(), "borrowed decoder data passed to a spawned goroutine; the goroutine races the decoder's buffer reuse — pass a Clone()")
		}
	}
	if lit, ok := ast.Unparen(g.Call.Fun).(*ast.FuncLit); ok {
		ast.Inspect(lit.Body, func(n ast.Node) bool {
			id, ok := n.(*ast.Ident)
			if !ok {
				return true
			}
			if o := fc.pkg.Info.Uses[id]; o != nil && fc.tainted[o] {
				fc.sink(id.Pos(), "borrowed decoder data captured by a goroutine closure; the goroutine races the decoder's buffer reuse — capture a Clone()")
				return false
			}
			return true
		})
	}
}

// rangeStmt taints loop variables drawn from tainted collections when
// the element itself can carry the borrow (ranging flip values copies
// plain structs — clean; ranging a []*DirUpdate taints the pointer).
func (fc *flowCtx) rangeStmt(rs *ast.RangeStmt) {
	if !fc.taintedExpr(rs.X) {
		return
	}
	if v, ok := rs.Value.(*ast.Ident); ok && v.Name != "_" {
		if o := fc.pkg.Info.Defs[v]; o != nil && fc.r.borrowCarrying(o.Type()) {
			fc.tainted[o] = true
		}
	}
}

func (fc *flowCtx) assign(a *ast.AssignStmt) {
	// Multi-value form: x, y := f(...). The call's own argument check
	// happens when the walk descends into it; only lhs taint is here.
	if len(a.Rhs) == 1 && len(a.Lhs) > 1 {
		if call, ok := ast.Unparen(a.Rhs[0]).(*ast.CallExpr); ok {
			vec := fc.callResultVec(call)
			for i, lhs := range a.Lhs {
				if i < len(vec) && vec[i] {
					fc.assignTo(lhs, a.Rhs[0].Pos())
				}
			}
			return
		}
	}
	for i, rhs := range a.Rhs {
		if i >= len(a.Lhs) {
			break
		}
		if fc.taintedExpr(rhs) {
			fc.assignTo(a.Lhs[i], rhs.Pos())
		}
	}
}

// assignTo handles a tainted value landing in lhs: locals become
// carriers, non-local destinations are escapes.
func (fc *flowCtx) assignTo(lhs ast.Expr, pos token.Pos) {
	switch lhs := ast.Unparen(lhs).(type) {
	case *ast.Ident:
		if lhs.Name == "_" {
			return
		}
		o := fc.pkg.Info.Defs[lhs]
		if o == nil {
			o = fc.pkg.Info.Uses[lhs]
		}
		if o == nil {
			return
		}
		if v, ok := o.(*types.Var); ok && isPkgLevel(v) {
			fc.sink(pos, "borrowed decoder data stored in package variable "+v.Name()+" outlives the call; store a Clone() — the decoder reuses these buffers on the next frame")
			return
		}
		fc.tainted[o] = true
	default:
		root := lvalueRoot(lhs)
		if root == nil {
			fc.sink(pos, "borrowed decoder data stored through an untracked expression; the destination may outlive the call — store a Clone()")
			return
		}
		o := fc.pkg.Info.Uses[root]
		if o == nil {
			o = fc.pkg.Info.Defs[root]
		}
		v, ok := o.(*types.Var)
		if !ok {
			return
		}
		switch {
		case isPkgLevel(v):
			fc.sink(pos, "borrowed decoder data stored in package state ("+v.Name()+") outlives the call; store a Clone() — the decoder reuses these buffers on the next frame")
		case fc.params[o] && sharedParam(v.Type()) && !fc.tainted[o]:
			// A store through a pointer receiver/parameter (or into a
			// caller-shared slice/map) lands in memory that outlives this
			// call. Stores into already-borrowed memory are not escapes.
			fc.sink(pos, "borrowed decoder data stored in a field reached through "+v.Name()+" outlives the call; store a Clone() — the decoder reuses these buffers on the next frame")
		default:
			fc.tainted[o] = true // local carrier (or a value-receiver copy that dies here)
		}
	}
}

// sharedParam reports parameter types whose stores are visible to the
// caller after the call: pointers, slices, maps, chans and interfaces.
// A value receiver or value parameter is a copy; stores into it die with
// the frame.
func sharedParam(t types.Type) bool {
	switch t.Underlying().(type) {
	case *types.Pointer, *types.Slice, *types.Map, *types.Chan, *types.Interface:
		return true
	}
	return false
}

// lvalueRoot walks x in x.f, x[i], *x chains down to the base ident.
func lvalueRoot(e ast.Expr) *ast.Ident {
	for {
		switch x := ast.Unparen(e).(type) {
		case *ast.Ident:
			return x
		case *ast.SelectorExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.StarExpr:
			e = x.X
		case *ast.SliceExpr:
			e = x.X
		default:
			return nil
		}
	}
}

// call checks tainted arguments against callee escape summaries.
func (fc *flowCtx) call(call *ast.CallExpr) {
	args, fn := fc.callArgs(call)
	if fn == nil {
		return
	}
	if isCloneCall(fc.pkg, call) || decodeVec(fc.pkg, call) != nil {
		return
	}
	for i, arg := range args {
		if arg == nil || !fc.taintedExpr(arg) {
			continue
		}
		if fc.r.paramEscapes(fn, i) {
			fc.sink(arg.Pos(), "borrowed decoder data passed to "+funcName(fn)+", which retains its argument beyond the call; pass a Clone()")
		}
	}
}

// callArgs returns the receiver-prefixed argument list and the resolved
// static callee (nil for builtins, conversions and dynamic calls).
func (fc *flowCtx) callArgs(call *ast.CallExpr) ([]ast.Expr, *types.Func) {
	fn, ok := calleeOf(fc.pkg, call).(*types.Func)
	if !ok {
		return nil, nil
	}
	sig := fn.Type().(*types.Signature)
	args := make([]ast.Expr, 0, len(call.Args)+1)
	if sig.Recv() != nil {
		if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok {
			args = append(args, sel.X)
		} else {
			args = append(args, nil)
		}
	}
	args = append(args, call.Args...)
	return args, fn
}

// callResultVec reports which results of call are borrowed at this call
// site: Decode results always; wrapper results when the wrapper returns
// a fresh borrow, or passes a parameter through and a tainted argument
// feeds it.
func (fc *flowCtx) callResultVec(call *ast.CallExpr) []bool {
	if vec := decodeVec(fc.pkg, call); vec != nil {
		return vec
	}
	args, fn := fc.callArgs(call)
	if fn == nil {
		return nil
	}
	rf := fc.r.returnsBorrow(fn)
	if rf == nil {
		return nil
	}
	anyTainted := false
	for _, a := range args {
		if a != nil && fc.taintedExpr(a) {
			anyTainted = true
			break
		}
	}
	vec := make([]bool, len(rf.fresh))
	for i := range vec {
		vec[i] = rf.fresh[i] || (anyTainted && rf.pass[i])
	}
	return vec
}

// taintedExpr reports whether e evaluates to borrowed data, gated at
// each derivation step by the borrow-carrying type predicate.
func (fc *flowCtx) taintedExpr(e ast.Expr) bool {
	switch e := ast.Unparen(e).(type) {
	case *ast.Ident:
		o := fc.pkg.Info.Uses[e]
		if o == nil {
			o = fc.pkg.Info.Defs[e]
		}
		return o != nil && fc.tainted[o]
	case *ast.SelectorExpr:
		return fc.r.borrowCarrying(fc.pkg.Info.TypeOf(e)) && fc.taintedExpr(e.X)
	case *ast.IndexExpr:
		return fc.r.borrowCarrying(fc.pkg.Info.TypeOf(e)) && fc.taintedExpr(e.X)
	case *ast.SliceExpr:
		return fc.taintedExpr(e.X)
	case *ast.StarExpr:
		return fc.taintedExpr(e.X)
	case *ast.UnaryExpr:
		return e.Op == token.AND && fc.taintedExpr(e.X)
	case *ast.TypeAssertExpr:
		return fc.taintedExpr(e.X)
	case *ast.CompositeLit:
		for _, el := range e.Elts {
			if kv, ok := el.(*ast.KeyValueExpr); ok {
				el = kv.Value
			}
			if fc.taintedExpr(el) {
				return true
			}
		}
		return false
	case *ast.CallExpr:
		return fc.taintedCall(e)
	}
	return false
}

func (fc *flowCtx) taintedCall(call *ast.CallExpr) bool {
	// Conversion T(x): taint follows the operand.
	if tv, ok := fc.pkg.Info.Types[call.Fun]; ok && tv.IsType() {
		return len(call.Args) == 1 && fc.taintedExpr(call.Args[0])
	}
	// Builtins: append carries taint through its destination, and through
	// appended values only when those values can carry a borrow —
	// append([]Flip(nil), m.Update.Flips...) copies plain structs and is
	// the sanctioned flip-copy idiom.
	if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok {
		if b, ok := fc.pkg.Info.Uses[id].(*types.Builtin); ok {
			if b.Name() != "append" {
				return false
			}
			if len(call.Args) > 0 && fc.taintedExpr(call.Args[0]) {
				return true
			}
			for _, arg := range call.Args[1:] {
				t := fc.pkg.Info.TypeOf(arg)
				if call.Ellipsis != token.NoPos {
					if sl, ok := t.Underlying().(*types.Slice); ok {
						t = sl.Elem()
					}
				}
				if fc.r.borrowCarrying(t) && fc.taintedExpr(arg) {
					return true
				}
			}
			return false
		}
	}
	if isCloneCall(fc.pkg, call) {
		return false
	}
	vec := fc.callResultVec(call)
	return len(vec) > 0 && vec[0]
}

// --- interprocedural summaries ---------------------------------------

// paramEscapes reports whether fn's param (receiver-prefixed index)
// escapes fn: is stored non-locally, sent, captured by a goroutine, or
// passed onward to an escaping parameter. Unknown bodies are assumed
// non-escaping — the stdlib does not retain ICP messages.
func (r *borrowEscapeRule) paramEscapes(fn *types.Func, idx int) bool {
	key := escKey{fn: fn, param: idx}
	fact := r.escMemo[key]
	if fact == nil {
		fact = &escFact{}
		r.escMemo[key] = fact
	}
	switch fact.state {
	case 2:
		return fact.escapes
	case 1:
		return false // recursion: assume the cycle adds nothing
	}
	fact.state = 1
	fi := r.sums.funcs[fn]
	if fi == nil {
		fact.state = 2
		return false
	}
	fd := declOf(fi)
	if fd == nil {
		fact.state = 2
		return false
	}
	objs := declParamObjs(fi.pkg, fd)
	if idx >= len(objs) || objs[idx] == nil || !r.borrowCarrying(objs[idx].Type()) {
		fact.state = 2
		return false
	}
	fc := r.newFlow(fi.pkg, nil)
	for _, o := range objs {
		if o != nil {
			fc.params[o] = true
		}
	}
	fc.run(fd.Body, map[types.Object]bool{objs[idx]: true})
	fact.escapes = fc.escaped
	fact.state = 2
	return fact.escapes
}

// returnsBorrow summarises which results of fn are borrowed: fresh
// (derived from a Decode inside fn) or passed through from a
// borrow-carrying parameter.
func (r *borrowEscapeRule) returnsBorrow(fn *types.Func) *retFact {
	fact := r.retMemo[fn]
	if fact == nil {
		fact = &retFact{}
		r.retMemo[fn] = fact
	}
	switch fact.state {
	case 2:
		return fact
	case 1:
		return nil
	}
	fact.state = 1
	fi := r.sums.funcs[fn]
	if fi == nil {
		fact.state = 2
		return fact
	}
	fd := declOf(fi)
	if fd == nil {
		fact.state = 2
		return fact
	}
	nres := fn.Type().(*types.Signature).Results().Len()
	pad := func(vec []bool) []bool {
		for len(vec) < nres {
			vec = append(vec, false)
		}
		return vec
	}
	objs := declParamObjs(fi.pkg, fd)

	// Fresh borrows: flow with no parameter roots; Decode results taint
	// on their own.
	fc := r.newFlow(fi.pkg, nil)
	fc.run(fd.Body, nil)
	fact.fresh = pad(fc.retVec)

	// Pass-through: all borrow-carrying params tainted at once (a
	// superset per-result union; precise enough for wrappers).
	roots := map[types.Object]bool{}
	for _, o := range objs {
		if o != nil && r.borrowCarrying(o.Type()) {
			roots[o] = true
		}
	}
	fc = r.newFlow(fi.pkg, nil)
	fc.run(fd.Body, roots)
	fact.pass = pad(fc.retVec)
	fact.state = 2
	return fact
}

// declOf finds the *ast.FuncDecl for a summarised function by position.
func declOf(fi *funcInfo) *ast.FuncDecl {
	if fi.obj == nil {
		return nil
	}
	pos := fi.obj.Pos()
	for _, f := range fi.pkg.Files {
		if f.Pos() <= pos && pos <= f.End() {
			for _, d := range f.Decls {
				if fd, ok := d.(*ast.FuncDecl); ok && fd.Name.Pos() == pos {
					return fd
				}
			}
		}
	}
	return nil
}
