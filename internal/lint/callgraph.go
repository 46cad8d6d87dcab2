package lint

// callgraph.go: a package-level call graph over one lint unit, the
// substrate of the interprocedural passes (ctxflow, detflow). Nodes are
// the unit's declared functions and methods; edges are call sites
// resolved through go/types (Info.Uses) to functions declared in the
// same unit. Calls that leave the unit — stdlib, sibling module
// packages — are not edges; their effects are approximated by the
// package/receiver effect table in summary.go, mirroring how
// summary-based analyzers (Infer, RacerX) treat library frontiers.
// Neither is a call go/types left unresolved (an ill-typed unit's
// partial Info): unknown adds no edge.
//
// Two call relations are kept per node, because two different
// questions are asked of the graph:
//
//   - sync: calls that execute on the function's own frame (statements
//     and registered defers, stopping at function literals). The
//     blocking summary propagates along sync edges only: a closure
//     handed to `go` or a worker pool does its blocking on another
//     goroutine, and crediting it to the caller would poison every
//     launcher.
//   - reach: sync plus calls made inside function literals defined in
//     the body. Reachability questions ("is this function on a request
//     path from an HTTP handler?") follow reach edges: the closure a
//     handler submits to the render pool still runs on behalf of the
//     request, wherever it runs.
//
// Summaries propagate bottom-up in strongly-connected-component order
// (Tarjan); members of one SCC (direct or mutual recursion) iterate to
// a fixed point, which terminates because every summary domain is a
// finite join-semilattice that only grows.

import (
	"go/ast"
	"go/types"
)

// funcNode is one declared function or method of the unit.
type funcNode struct {
	decl *ast.FuncDecl

	sync  []*callEdge // same-frame calls, in source order
	reach []*callEdge // sync plus calls inside function literals

	scc int // SCC index; callees have lower-or-equal indices
}

// callEdge is one resolved call site into the same unit.
type callEdge struct {
	call   *ast.CallExpr
	callee *funcNode
}

// name returns the function's declared name, qualified by its receiver
// type for methods, for use in diagnostics.
func (n *funcNode) name() string {
	if n.decl.Recv != nil && len(n.decl.Recv.List) > 0 {
		return "(" + types.ExprString(n.decl.Recv.List[0].Type) + ")." + n.decl.Name.Name
	}
	return n.decl.Name.Name
}

// callGraph is the unit's call graph plus the SCC condensation order.
type callGraph struct {
	nodes  []*funcNode // declaration order
	byObj  map[*types.Func]*funcNode
	byDecl map[*ast.FuncDecl]*funcNode
	sccs   [][]*funcNode // bottom-up: callees before callers
}

// buildCallGraph constructs the unit's call graph. It tolerates
// partial type information (an ill-typed unit's missing Defs and Uses
// entries resolve to "no edge"), so the summary fuzzer can drive it
// with arbitrary parseable input.
func buildCallGraph(unit *Unit) *callGraph {
	g := &callGraph{
		byObj:  map[*types.Func]*funcNode{},
		byDecl: map[*ast.FuncDecl]*funcNode{},
	}
	for _, f := range unit.Files {
		for _, d := range f.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			n := &funcNode{decl: fd}
			if obj, ok := unit.Info.Defs[fd.Name].(*types.Func); ok {
				g.byObj[obj] = n
			}
			g.byDecl[fd] = n
			g.nodes = append(g.nodes, n)
		}
	}
	for _, n := range g.nodes {
		g.resolveCalls(unit, n)
	}
	g.condense()
	return g
}

// resolveCalls fills n's sync and reach edge lists.
func (g *callGraph) resolveCalls(unit *Unit, n *funcNode) {
	addCall := func(call *ast.CallExpr, sync bool) {
		callee := g.calleeOf(unit, call)
		if callee == nil {
			return
		}
		e := &callEdge{call: call, callee: callee}
		if sync {
			n.sync = append(n.sync, e)
		}
		n.reach = append(n.reach, e)
	}
	// depth counts enclosing function literals: 0 = the function's own
	// frame. Defer bodies stay at depth 0 — a registered defer runs on
	// this frame at exit, so its calls are synchronous effects.
	var walk func(node ast.Node, depth int)
	walk = func(node ast.Node, depth int) {
		ast.Inspect(node, func(m ast.Node) bool {
			switch m := m.(type) {
			case *ast.FuncLit:
				if m != node {
					walk(m.Body, depth+1)
					return false
				}
			case *ast.CallExpr:
				addCall(m, depth == 0)
			case *ast.DeferStmt:
				// The deferred call itself and its arguments run on
				// this frame; a deferred *closure* body does too.
				addCall(m.Call, depth == 0)
				if fl, ok := ast.Unparen(m.Call.Fun).(*ast.FuncLit); ok {
					walk(fl.Body, depth)
				}
				for _, a := range m.Call.Args {
					walk(a, depth)
				}
				return false
			}
			return true
		})
	}
	walk(n.decl.Body, 0)
}

// calleeOf resolves a call expression to a function declared in the
// unit, or nil for everything else (externals, function values,
// builtins, method values through interfaces, and calls go/types did
// not resolve).
func (g *callGraph) calleeOf(unit *Unit, call *ast.CallExpr) *funcNode {
	return g.funcOf(unit, call.Fun)
}

// funcOf resolves a function-valued expression — a call's Fun, or the
// f of go f / par.Dynamic(n, w, f) — to a same-unit declaration, nil
// otherwise.
func (g *callGraph) funcOf(unit *Unit, e ast.Expr) *funcNode {
	if fn := usedFunc(unit, e); fn != nil {
		return g.byObj[fn]
	}
	return nil
}

// usedFunc resolves a plain or qualified function name (f, pkg.F,
// x.M) through Info.Uses, nil for anything else.
func usedFunc(unit *Unit, e ast.Expr) *types.Func {
	var fn *types.Func
	switch x := ast.Unparen(e).(type) {
	case *ast.Ident:
		fn, _ = unit.Info.Uses[x].(*types.Func)
	case *ast.SelectorExpr:
		fn, _ = unit.Info.Uses[x.Sel].(*types.Func)
	}
	return fn
}

// condense runs Tarjan's SCC algorithm over the sync edges and stores
// components bottom-up: every sync callee of a node in component i
// lives in some component j <= i.
func (g *callGraph) condense() {
	index := map[*funcNode]int{}
	low := map[*funcNode]int{}
	onStack := map[*funcNode]bool{}
	var stack []*funcNode
	next := 0

	// Iterative Tarjan: the recursion depth of the call graph is
	// user-controlled input (deep helper chains), so no real recursion.
	type frame struct {
		n  *funcNode
		ei int // next sync edge to visit
	}
	var visit func(root *funcNode)
	visit = func(root *funcNode) {
		frames := []frame{{n: root}}
		index[root] = next
		low[root] = next
		next++
		stack = append(stack, root)
		onStack[root] = true
		for len(frames) > 0 {
			f := &frames[len(frames)-1]
			if f.ei < len(f.n.sync) {
				w := f.n.sync[f.ei].callee
				f.ei++
				if _, seen := index[w]; !seen {
					index[w] = next
					low[w] = next
					next++
					stack = append(stack, w)
					onStack[w] = true
					frames = append(frames, frame{n: w})
				} else if onStack[w] && low[f.n] > index[w] {
					low[f.n] = index[w]
				}
				continue
			}
			// f.n is finished: pop its SCC if it is a root.
			if low[f.n] == index[f.n] {
				var comp []*funcNode
				for {
					w := stack[len(stack)-1]
					stack = stack[:len(stack)-1]
					onStack[w] = false
					w.scc = len(g.sccs)
					comp = append(comp, w)
					if w == f.n {
						break
					}
				}
				g.sccs = append(g.sccs, comp)
			}
			frames = frames[:len(frames)-1]
			if len(frames) > 0 {
				p := &frames[len(frames)-1]
				if low[p.n] > low[f.n] {
					low[p.n] = low[f.n]
				}
			}
		}
	}
	for _, n := range g.nodes {
		if _, seen := index[n]; !seen {
			visit(n)
		}
	}
}

// reachableFrom returns every node reachable from the given roots over
// reach edges (including the roots themselves).
func (g *callGraph) reachableFrom(roots []*funcNode) map[*funcNode]bool {
	seen := map[*funcNode]bool{}
	stack := append([]*funcNode(nil), roots...)
	for _, r := range roots {
		seen[r] = true
	}
	for len(stack) > 0 {
		n := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, e := range n.reach {
			if !seen[e.callee] {
				seen[e.callee] = true
				stack = append(stack, e.callee)
			}
		}
	}
	return seen
}
