package analysis

import (
	"fmt"
	"go/token"
	"go/types"
	"path/filepath"
	"sort"
	"strings"
)

// lockOrderRule builds the static lock-acquisition graph of the whole
// universe — an edge A→B whenever a lock of class B is acquired (in the
// same body or through a statically resolved call chain) while a lock
// of class A is held — and reports the shapes that deadlock:
//
//   - a cycle: two call paths acquire the same classes in opposite
//     orders, so two goroutines interleaving them can each hold what the
//     other wants;
//   - a self-edge: nested acquisition of the same class (two shard
//     mutexes, two stripe mutexes) deadlocks unless every path orders
//     the instances identically.
//
// Intentional hierarchies are declared, not silenced. A declaration
//
//	//lint:lockorder pkg.Type.field < pkg.Type.field2 <reason>
//
// anywhere in the universe sanctions edges in the declared direction
// (including A < A for canonical-instance-order nesting, e.g. "stripes
// are always locked in ascending index order") and turns any edge in
// the opposite direction into a direct violation report — stronger than
// a suppression, because the declared order keeps being checked.
type lockOrderRule struct {
	u      *Universe
	perPkg map[*Package][]pendingFinding
}

type pendingFinding struct {
	pos token.Pos
	msg string
}

func (r *lockOrderRule) Name() string { return RuleLockOrder }

func (r *lockOrderRule) Doc() string {
	return "lock acquisition order must be acyclic across the module; declare intended hierarchies with //lint:lockorder A < B <reason>"
}

func (r *lockOrderRule) Check(pkg *Package, report ReportFunc) {
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

// lockEdge is one ordered acquisition: to acquired while from is held.
type lockEdge struct {
	from, to *types.Var
	pos      token.Pos // the site creating the edge (acquisition or call)
	via      string    // non-empty when the acquisition is inside a callee
	deepPos  token.Pos // acquisition site inside the callee
	pkg      *Package  // package owning pos, for finding bucketing
}

const lockOrderPrefix = "//lint:lockorder "

// lockOrderDecl is one parsed hierarchy declaration.
type lockOrderDecl struct {
	a, b   string
	reason string
}

func (r *lockOrderRule) analyze(u *Universe) {
	r.perPkg = map[*Package][]pendingFinding{}
	s := buildSummaries(u)
	emit := func(pkg *Package, pos token.Pos, format string, args ...any) {
		r.perPkg[pkg] = append(r.perPkg[pkg], pendingFinding{pos: pos, msg: fmt.Sprintf(format, args...)})
	}

	// Hierarchy declarations, universe-wide. A malformed declaration is
	// itself a finding: it would otherwise silently sanction nothing.
	declared := map[[2]string]lockOrderDecl{}
	for _, pkg := range u.Pkgs {
		for _, f := range pkg.Files {
			for _, cg := range f.Comments {
				for _, c := range cg.List {
					rest, ok := strings.CutPrefix(c.Text, lockOrderPrefix)
					if !ok {
						continue
					}
					fields := strings.Fields(rest)
					if len(fields) < 4 || fields[1] != "<" {
						emit(pkg, c.Pos(),
							"malformed //lint:lockorder; want \"//lint:lockorder pkg.Type.field < pkg.Type.field <reason>\"")
						continue
					}
					d := lockOrderDecl{a: fields[0], b: fields[2], reason: strings.Join(fields[3:], " ")}
					declared[[2]string{d.a, d.b}] = d
				}
			}
		}
	}

	// Edges from every function and literal body.
	labels := map[*types.Var]string{}
	label := func(v *types.Var) string {
		if l, ok := labels[v]; ok {
			return l
		}
		l := lockLabel(v)
		labels[v] = l
		return l
	}
	var edges []lockEdge
	collect := func(fi *funcInfo) {
		for _, acq := range fi.acquires {
			for _, h := range acq.held {
				edges = append(edges, lockEdge{from: h.class, to: acq.class, pos: acq.pos, pkg: fi.pkg})
			}
		}
		for _, cs := range fi.calls {
			if len(cs.held) == 0 {
				continue
			}
			for class, deep := range s.mayAcquire(cs.callee) {
				for _, h := range cs.held {
					edges = append(edges, lockEdge{
						from: h.class, to: class, pos: cs.pos,
						via: funcName(cs.callee), deepPos: deep, pkg: fi.pkg,
					})
				}
			}
		}
	}
	for _, fi := range s.funcs {
		collect(fi)
	}
	for _, fi := range s.lits {
		collect(fi)
	}

	// Deterministic order, then one representative edge per (from, to).
	sort.Slice(edges, func(i, j int) bool {
		pi, pj := u.Fset.Position(edges[i].pos), u.Fset.Position(edges[j].pos)
		if pi.Filename != pj.Filename {
			return pi.Filename < pj.Filename
		}
		if pi.Line != pj.Line {
			return pi.Line < pj.Line
		}
		if pi.Column != pj.Column {
			return pi.Column < pj.Column
		}
		return label(edges[i].to) < label(edges[j].to)
	})
	seen := map[[2]*types.Var]bool{}
	uniq := edges[:0]
	for _, e := range edges {
		k := [2]*types.Var{e.from, e.to}
		if seen[k] {
			continue
		}
		seen[k] = true
		uniq = append(uniq, e)
	}
	edges = uniq

	// Split: sanctioned edges drop out, reversed-declaration edges are
	// violations, the rest feed cycle detection.
	var graph []lockEdge
	for _, e := range edges {
		la, lb := label(e.from), label(e.to)
		if _, ok := declared[[2]string{la, lb}]; ok {
			continue
		}
		if d, ok := declared[[2]string{lb, la}]; ok && la != lb {
			emit(e.pkg, e.pos,
				"acquiring %s while holding %s contradicts the declared hierarchy //lint:lockorder %s < %s (%s)%s",
				lb, la, d.a, d.b, d.reason, r.viaSuffix(u, e))
			continue
		}
		graph = append(graph, e)
	}

	// Self-edges are 1-cycles; larger knots come out of the SCCs.
	inCycle := cycleMembers(graph)
	for _, e := range graph {
		la, lb := label(e.from), label(e.to)
		switch {
		case e.from == e.to:
			emit(e.pkg, e.pos,
				"lock %s is acquired while another %s is already held; nested same-class acquisition deadlocks unless instances are always taken in one canonical order — declare //lint:lockorder %s < %s <reason> if that order exists%s",
				lb, la, la, la, r.viaSuffix(u, e))
		case inCycle[e.from] && inCycle[e.to] && inSameSCC(graph, e):
			emit(e.pkg, e.pos,
				"acquiring %s while holding %s is part of a lock-order cycle [%s]; goroutines interleaving these acquisitions in opposite orders deadlock — declare the intended hierarchy with //lint:lockorder or restructure%s",
				lb, la, cycleList(graph, e, label), r.viaSuffix(u, e))
		}
	}
}

func (r *lockOrderRule) viaSuffix(u *Universe, e lockEdge) string {
	if e.via == "" {
		return ""
	}
	p := u.Fset.Position(e.deepPos)
	return fmt.Sprintf(" (via call to %s, which locks at %s:%d)", e.via, filepath.Base(p.Filename), p.Line)
}

// --- cycle detection --------------------------------------------------

// sccOf computes strongly connected components (Tarjan) over the edge
// list and returns each node's component id.
func sccOf(edges []lockEdge) map[*types.Var]int {
	adj := map[*types.Var][]*types.Var{}
	nodes := map[*types.Var]bool{}
	for _, e := range edges {
		adj[e.from] = append(adj[e.from], e.to)
		nodes[e.from], nodes[e.to] = true, true
	}
	index := map[*types.Var]int{}
	low := map[*types.Var]int{}
	onStack := map[*types.Var]bool{}
	comp := map[*types.Var]int{}
	var stack []*types.Var
	next, ncomp := 0, 0
	var strong func(v *types.Var)
	strong = func(v *types.Var) {
		next++
		index[v], low[v] = next, next
		stack = append(stack, v)
		onStack[v] = true
		for _, w := range adj[v] {
			if _, ok := index[w]; !ok {
				strong(w)
				if low[w] < low[v] {
					low[v] = low[w]
				}
			} else if onStack[w] && index[w] < low[v] {
				low[v] = index[w]
			}
		}
		if low[v] == index[v] {
			ncomp++
			for {
				w := stack[len(stack)-1]
				stack = stack[:len(stack)-1]
				onStack[w] = false
				comp[w] = ncomp
				if w == v {
					break
				}
			}
		}
	}
	for v := range nodes {
		if _, ok := index[v]; !ok {
			strong(v)
		}
	}
	return comp
}

// cycleMembers marks nodes inside a multi-node SCC.
func cycleMembers(edges []lockEdge) map[*types.Var]bool {
	comp := sccOf(edges)
	size := map[int]int{}
	for _, c := range comp {
		size[c]++
	}
	out := map[*types.Var]bool{}
	for v, c := range comp {
		if size[c] > 1 {
			out[v] = true
		}
	}
	return out
}

// inSameSCC reports whether e's endpoints share a component (the edge is
// a link in a cycle rather than an entry into one).
func inSameSCC(edges []lockEdge, e lockEdge) bool {
	comp := sccOf(edges)
	return comp[e.from] == comp[e.to]
}

// cycleList renders the sorted labels of the component e belongs to.
func cycleList(edges []lockEdge, e lockEdge, label func(*types.Var) string) string {
	comp := sccOf(edges)
	id := comp[e.from]
	seen := map[string]bool{}
	var names []string
	for v, c := range comp {
		if c == id && !seen[label(v)] {
			seen[label(v)] = true
			names = append(names, label(v))
		}
	}
	sort.Strings(names)
	return strings.Join(names, ", ")
}

// lockLabel names a lock class the way declarations spell it:
// pkg.Type.field for struct fields, pkg.var for package-level mutexes.
func lockLabel(v *types.Var) string {
	pkg := "?"
	if v.Pkg() != nil {
		pkg = v.Pkg().Name()
	}
	if v.IsField() {
		if owner := fieldOwner(v); owner != "" {
			return pkg + "." + owner + "." + v.Name()
		}
	}
	return pkg + "." + v.Name()
}

// fieldOwner finds the package-scope named type whose struct declares
// field v ("" when the owner is unnamed or function-local).
func fieldOwner(v *types.Var) string {
	if v.Pkg() == nil {
		return ""
	}
	scope := v.Pkg().Scope()
	for _, name := range scope.Names() {
		tn, ok := scope.Lookup(name).(*types.TypeName)
		if !ok {
			continue
		}
		named, ok := tn.Type().(*types.Named)
		if !ok {
			continue
		}
		st, ok := named.Underlying().(*types.Struct)
		if !ok {
			continue
		}
		for i := 0; i < st.NumFields(); i++ {
			if st.Field(i) == v {
				return name
			}
		}
	}
	return ""
}
