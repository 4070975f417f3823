package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
)

// This file is the intra-module summary layer behind the whole-program
// lock-order rule: one pass over every type-checked function body
// extracts a resolved static call graph and lock-acquisition facts.
// Because the loader's chainImporter serves universe-internal imports
// from the freshly checked packages, *types.Func objects are
// pointer-identical across packages, so the graph spans the whole
// universe without any name-based matching.
//
// The facts are deliberately lexical: held-lock tracking follows source
// order inside a body (a Lock pushes, the matching Unlock pops, a
// deferred Unlock holds to the end), which is exact for the
// straight-line critical sections this module writes and conservative
// elsewhere. TryLock acquisitions are ignored — a failed TryLock cannot
// deadlock, and the shard fast path relies on exactly that.

// heldLock is one lock class on the held stack, with the acquisition
// site that put it there.
type heldLock struct {
	class *types.Var
	pos   token.Pos
}

// lockAcq is one blocking acquisition and the snapshot of what was
// already held when it happened (outermost first).
type lockAcq struct {
	class *types.Var
	pos   token.Pos
	held  []heldLock
}

// callSite is one statically resolved call and the locks held across it.
type callSite struct {
	callee *types.Func
	pos    token.Pos
	held   []heldLock
}

// funcInfo is the per-function summary.
type funcInfo struct {
	pkg  *Package
	name string // rendered name for diagnostics

	acquires []lockAcq
	calls    []callSite

	// Lazily memoised transitive fact (0 unset, 1 computing, 2 done).
	mayAcqState int
	mayAcq      map[*types.Var]token.Pos
}

// summaries is the universe-wide summary table.
type summaries struct {
	funcs map[*types.Func]*funcInfo
	lits  map[*ast.FuncLit]*funcInfo
}

func buildSummaries(u *Universe) *summaries {
	s := &summaries{
		funcs: map[*types.Func]*funcInfo{},
		lits:  map[*ast.FuncLit]*funcInfo{},
	}
	for _, pkg := range u.Pkgs {
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
				fi := &funcInfo{pkg: pkg, name: funcName(obj)}
				scanBody(pkg, fd.Body, fi)
				s.funcs[obj] = fi
			}
			// Function literals are summarised separately with an empty
			// held set: a closure body runs in whatever context calls it
			// (often another goroutine), so the spawner's held locks do
			// not carry in. Nested literals each get their own entry; the
			// enclosing body scan prunes them, so nothing double-counts.
			ast.Inspect(f, func(n ast.Node) bool {
				if lit, ok := n.(*ast.FuncLit); ok {
					fi := &funcInfo{pkg: pkg, name: "func literal"}
					scanBody(pkg, lit.Body, fi)
					s.lits[lit] = fi
				}
				return true
			})
		}
	}
	return s
}

// funcName renders a *types.Func for diagnostics: pkg.Func or
// pkg.(*Recv).Method.
func funcName(fn *types.Func) string {
	sig := fn.Type().(*types.Signature)
	pkg := ""
	if fn.Pkg() != nil {
		pkg = fn.Pkg().Name() + "."
	}
	if recv := sig.Recv(); recv != nil {
		t := recv.Type()
		if p, ok := t.(*types.Pointer); ok {
			t = p.Elem()
		}
		if named, ok := t.(*types.Named); ok {
			return pkg + named.Obj().Name() + "." + fn.Name()
		}
	}
	return pkg + fn.Name()
}

// --- body scanning ---------------------------------------------------

// scanBody fills fi's acquires and calls from body.
func scanBody(pkg *Package, body *ast.BlockStmt, fi *funcInfo) {
	var held []heldLock
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			return false // summarised on its own, with an empty held set
		case *ast.DeferStmt:
			// defer mu.Unlock() keeps the lock held to the end of the
			// body — exactly what not popping models. Other deferred
			// calls run at unwind time and are not ordered against the
			// body's acquisitions, so they contribute no edges.
			return false
		case *ast.GoStmt:
			// A spawned goroutine does not run under the spawner's held
			// locks, and the spawner does not block on it: neither lock
			// edges nor call-graph edges flow through a go statement.
			return false
		case *ast.CallExpr:
			if class, op := lockOp(pkg, n); op != lockOpNone {
				switch op {
				case lockOpAcquire:
					if class != nil {
						fi.acquires = append(fi.acquires, lockAcq{class: class, pos: n.Pos(), held: snapshotHeld(held)})
						held = append(held, heldLock{class: class, pos: n.Pos()})
					}
				case lockOpRelease:
					if class != nil {
						held = popHeld(held, class)
					}
				}
				return true
			}
			if fn, ok := calleeOf(pkg, n).(*types.Func); ok {
				fi.calls = append(fi.calls, callSite{callee: fn, pos: n.Pos(), held: snapshotHeld(held)})
			}
		}
		return true
	})

	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			return false
		case *ast.ForStmt:
			// Same-class locks taken inside a loop body without a
			// matching release in the same iteration pile up across
			// iterations: a self-edge on that class (lock N+1 acquired
			// while lock N is held). The striped-filter reset pattern —
			// lock all stripes ascending, then unlock — is exactly this
			// and is sanctioned by annotation, not by silence.
			fi.acquires = append(fi.acquires, loopImbalance(pkg, n.Body)...)
		case *ast.RangeStmt:
			fi.acquires = append(fi.acquires, loopImbalance(pkg, n.Body)...)
		}
		return true
	})
}

func snapshotHeld(held []heldLock) []heldLock {
	if len(held) == 0 {
		return nil
	}
	out := make([]heldLock, len(held))
	copy(out, held)
	return out
}

// popHeld removes the innermost held entry of class, if any.
func popHeld(held []heldLock, class *types.Var) []heldLock {
	for i := len(held) - 1; i >= 0; i-- {
		if held[i].class == class {
			return append(held[:i], held[i+1:]...)
		}
	}
	return held
}

// --- lock classification ---------------------------------------------

const (
	lockOpNone = iota
	lockOpAcquire
	lockOpRelease
	lockOpTry
)

// lockOp classifies a call as a sync.Mutex/RWMutex operation and
// resolves the lock's class: the struct field or package-level variable
// the mutex lives in. Instance identity is deliberately collapsed to the
// declaration — every shard's s.mu is one class — which is what makes
// order cycles detectable at all.
func lockOp(pkg *Package, call *ast.CallExpr) (*types.Var, int) {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return nil, lockOpNone
	}
	fn, ok := pkg.Info.Uses[sel.Sel].(*types.Func)
	if !ok || fn.Pkg() == nil || fn.Pkg().Path() != "sync" {
		return nil, lockOpNone
	}
	recv := fn.Type().(*types.Signature).Recv()
	if recv == nil {
		return nil, lockOpNone
	}
	rt := recv.Type()
	if p, ok := rt.(*types.Pointer); ok {
		rt = p.Elem()
	}
	named, ok := rt.(*types.Named)
	if !ok || (named.Obj().Name() != "Mutex" && named.Obj().Name() != "RWMutex") {
		return nil, lockOpNone
	}
	var op int
	switch fn.Name() {
	case "Lock", "RLock":
		op = lockOpAcquire
	case "Unlock", "RUnlock":
		op = lockOpRelease
	case "TryLock", "TryRLock":
		op = lockOpTry
	default:
		return nil, lockOpNone
	}
	return lockClass(pkg, sel.X), op
}

// lockClass resolves the variable a mutex expression denotes: a struct
// field (s.mu, c.stripes[i].mu) or a package-level var. Local mutexes
// return nil and are ignored — a lock no other goroutine can name
// cannot participate in a cross-goroutine order cycle that this
// analysis could attribute.
func lockClass(pkg *Package, e ast.Expr) *types.Var {
	switch e := ast.Unparen(e).(type) {
	case *ast.SelectorExpr:
		if v, ok := pkg.Info.Uses[e.Sel].(*types.Var); ok {
			if v.IsField() {
				return v
			}
			if isPkgLevel(v) {
				return v
			}
		}
	case *ast.Ident:
		if v, ok := pkg.Info.Uses[e].(*types.Var); ok && isPkgLevel(v) {
			return v
		}
	case *ast.StarExpr:
		return lockClass(pkg, e.X)
	}
	return nil
}

func isPkgLevel(v *types.Var) bool {
	return v.Pkg() != nil && v.Parent() == v.Pkg().Scope()
}

// loopImbalance finds lock classes acquired inside a loop body more
// often (lexically) than they are released there, and synthesises a
// self-edge acquisition for each: iteration N+1's Lock happens with
// iteration N's still held. Deferred releases do not count — a deferred
// Unlock in a loop runs at function exit, not per iteration.
func loopImbalance(pkg *Package, body ast.Node) []lockAcq {
	type bal struct {
		locks, unlocks int
		first          token.Pos
	}
	counts := map[*types.Var]*bal{}
	var order []*types.Var
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit, *ast.DeferStmt:
			return false
		case *ast.CallExpr:
			class, op := lockOp(pkg, n)
			if class == nil {
				return true
			}
			b := counts[class]
			if b == nil {
				b = &bal{}
				counts[class] = b
				order = append(order, class)
			}
			switch op {
			case lockOpAcquire:
				b.locks++
				if b.first == token.NoPos {
					b.first = n.Pos()
				}
			case lockOpRelease:
				b.unlocks++
			}
		}
		return true
	})
	var out []lockAcq
	for _, class := range order {
		b := counts[class]
		if b.locks > b.unlocks && b.first != token.NoPos {
			out = append(out, lockAcq{
				class: class,
				pos:   b.first,
				held:  []heldLock{{class: class, pos: b.first}},
			})
		}
	}
	return out
}

// --- transitive closures ---------------------------------------------

// mayAcquire returns every lock class fn (or anything it statically
// calls) may acquire, each with its earliest acquisition site. Cycles in
// the call graph contribute nothing on the back edge, which is sound
// for reachability.
func (s *summaries) mayAcquire(fn *types.Func) map[*types.Var]token.Pos {
	fi := s.funcs[fn]
	if fi == nil {
		return nil
	}
	switch fi.mayAcqState {
	case 2:
		return fi.mayAcq
	case 1:
		return nil
	}
	fi.mayAcqState = 1
	out := map[*types.Var]token.Pos{}
	add := func(class *types.Var, pos token.Pos) {
		if old, ok := out[class]; !ok || pos < old {
			out[class] = pos
		}
	}
	for _, a := range fi.acquires {
		add(a.class, a.pos)
	}
	for _, c := range fi.calls {
		for class, pos := range s.mayAcquire(c.callee) {
			add(class, pos)
		}
	}
	fi.mayAcq = out
	fi.mayAcqState = 2
	return out
}
