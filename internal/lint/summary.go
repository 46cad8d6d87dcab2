package lint

// summary.go: per-function effect summaries, propagated bottom-up over
// the call graph's SCC order (callgraph.go). A summary answers, for one
// declared function, the questions ctxflow and detflow ask at its call
// sites:
//
//   - may it block? (channel ops, selects without default, sync waits,
//     time.Sleep, network/file I/O — directly or through a same-unit
//     callee)
//   - does it take a context.Context, and does it actually use it?
//   - which results carry nondeterminism, and which parameters reach a
//     determinism sink? (taint.go)
//
// Calls that resolve inside the unit use the callee's summary; calls
// that leave it fall back to a small effect table keyed by package
// path, receiver type, and name (the "library frontier" heuristic).
// Every lookup goes through go/types. In an ill-typed unit (the
// summary fuzzer type-checks arbitrary parseable sources and keeps the
// partial Info) a missing entry means "unknown": it adds no edge and
// resolves to no package, so only the table's name-only rows (any
// Wait, a Sleep with no package) can still apply. The builder must
// terminate without panicking — FuzzSummary pins that.
//
// All summary domains are finite join-semilattices that only grow
// (bools, parameter-index sets bounded by the signature), so the
// per-SCC fixed-point iteration terminates.

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// funcSummary is the effect summary of one declared function.
type funcSummary struct {
	blocks   bool
	blockPos token.Pos
	blockWhy string

	hasCtx  bool
	ctxName string // "" when the parameter is unnamed or blank
	ctxPos  token.Pos
	ctxUsed bool

	// Determinism-taint bits (taint.go): per-result taint the caller
	// inherits, and the parameters that reach a determinism sink
	// inside (transitively) — how detflow sees through helpers.
	taintRets  []*taintVal
	sinkParams map[int]sinkRef
}

// summaries is the per-unit interprocedural state, built lazily by the
// first pass that needs it and shared by the rest.
type summaries struct {
	p     *pass
	graph *callGraph
	by    map[*funcNode]*funcSummary
	// taintEnvs holds each function's final taint environment, built
	// alongside the summaries (taint.go) and consumed by detflow.
	taintEnvs map[*funcNode]*taintEnv
	// nonBlockingComm marks channel operations that sit in the comm
	// clause of a select with a default clause: they are polls, not
	// blocking points.
	nonBlockingComm map[ast.Node]bool
}

// summaries returns the unit's summary table, building it on first use.
func (p *pass) summaries() *summaries {
	if p.sums == nil {
		p.sums = buildSummaries(p)
	}
	return p.sums
}

func buildSummaries(p *pass) *summaries {
	s := &summaries{
		p:               p,
		graph:           buildCallGraph(p.unit),
		by:              map[*funcNode]*funcSummary{},
		taintEnvs:       map[*funcNode]*taintEnv{},
		nonBlockingComm: map[ast.Node]bool{},
	}
	for _, f := range p.unit.Files {
		markNonBlockingComms(f, s.nonBlockingComm)
	}
	for _, n := range s.graph.nodes {
		s.by[n] = s.seedSummary(n)
	}
	// Bottom-up over the condensation: g.sccs is already ordered with
	// callees first. Iterate each component to a fixed point.
	for _, comp := range s.graph.sccs {
		for changed := true; changed; {
			changed = false
			for _, n := range comp {
				if s.joinCallees(n) {
					changed = true
				}
			}
		}
		// Second fixpoint per component: taint return/sink summaries
		// (taint.go) depend on callee taint summaries, which for
		// recursive components grow as this loop iterates.
		for changed := true; changed; {
			changed = false
			for _, n := range comp {
				if s.computeTaint(n) {
					changed = true
				}
			}
		}
	}
	return s
}

// markNonBlockingComms records the channel operations inside the comm
// clauses of selects that have a default clause: those are polls.
func markNonBlockingComms(f *ast.File, out map[ast.Node]bool) {
	ast.Inspect(f, func(n ast.Node) bool {
		sel, ok := n.(*ast.SelectStmt)
		if !ok {
			return true
		}
		hasDefault := false
		for _, cs := range sel.Body.List {
			if cc, ok := cs.(*ast.CommClause); ok && cc.Comm == nil {
				hasDefault = true
			}
		}
		if !hasDefault {
			return true
		}
		for _, cs := range sel.Body.List {
			cc, ok := cs.(*ast.CommClause)
			if !ok || cc.Comm == nil {
				continue
			}
			ast.Inspect(cc.Comm, func(m ast.Node) bool {
				switch m := m.(type) {
				case *ast.SendStmt:
					out[m] = true
				case *ast.UnaryExpr:
					if m.Op == token.ARROW {
						out[m] = true
					}
				}
				return true
			})
		}
		return true
	})
}

// seedSummary computes a function's direct (non-transitive) effects.
func (s *summaries) seedSummary(n *funcNode) *funcSummary {
	sum := &funcSummary{}
	s.seedCtx(n, sum)

	// One walk over the frame's own code: defer bodies are part of the
	// frame, other function literals are not.
	s.eachFrameNode(n.decl.Body, func(m ast.Node) {
		switch m := m.(type) {
		case *ast.SendStmt:
			if !s.nonBlockingComm[m] {
				sum.noteBlock(m.Pos(), "channel send")
			}
		case *ast.UnaryExpr:
			if m.Op == token.ARROW && !s.nonBlockingComm[m] {
				sum.noteBlock(m.Pos(), "channel receive")
			}
		case *ast.RangeStmt:
			if s.isChanExpr(m.X) {
				sum.noteBlock(m.X.Pos(), "range over channel")
			}
		case *ast.CallExpr:
			if why, ok := s.blockingExternal(m); ok {
				sum.noteBlock(m.Pos(), why)
			}
		}
	})
	return sum
}

// noteBlock records a blocking witness, keeping the first one seen.
func (sum *funcSummary) noteBlock(pos token.Pos, why string) {
	if !sum.blocks {
		sum.blocks, sum.blockPos, sum.blockWhy = true, pos, why
	}
}

// joinCallees folds same-unit callee summaries into n's summary along
// sync edges, reporting whether anything changed.
func (s *summaries) joinCallees(n *funcNode) bool {
	sum := s.by[n]
	changed := false
	for _, e := range n.sync {
		cs := s.by[e.callee]
		if cs == nil {
			continue
		}
		if cs.blocks && !sum.blocks {
			sum.noteBlock(e.call.Pos(),
				fmt.Sprintf("call to %s, which may block (%s)", e.callee.name(), cs.blockWhy))
			changed = true
		}
	}
	return changed
}

// eachFrameNode walks body visiting every node that executes on the
// function's own frame: it descends into deferred closures (they run at
// this frame's exits) but not into other function literals.
func (s *summaries) eachFrameNode(body *ast.BlockStmt, fn func(ast.Node)) {
	var walk func(node ast.Node)
	walk = func(node ast.Node) {
		ast.Inspect(node, func(m ast.Node) bool {
			if m == nil {
				return true
			}
			switch m := m.(type) {
			case *ast.FuncLit:
				if m != node {
					return false
				}
			case *ast.DeferStmt:
				fn(m.Call)
				if fl, ok := ast.Unparen(m.Call.Fun).(*ast.FuncLit); ok {
					walk(fl)
				}
				for _, a := range m.Call.Args {
					walk(a)
				}
				return false
			}
			fn(m)
			return true
		})
	}
	walk(body)
}

// seedCtx records whether the function takes a context.Context and
// whether the parameter is referenced anywhere in the body (closures
// included: a captured ctx is a used ctx).
func (s *summaries) seedCtx(n *funcNode, sum *funcSummary) {
	params := n.decl.Type.Params
	if params == nil {
		return
	}
	idx := 0
	var obj types.Object
	for _, field := range params.List {
		names := field.Names
		isCtx := s.isContextType(field.Type)
		if len(names) == 0 {
			if isCtx {
				sum.hasCtx = true
				sum.ctxPos = field.Pos()
			}
			idx++
			continue
		}
		for _, id := range names {
			if isCtx {
				sum.hasCtx = true
				sum.ctxPos = id.Pos()
				if id.Name != "_" {
					sum.ctxName = id.Name
					obj = s.p.unit.Info.Defs[id]
				}
			}
			idx++
		}
	}
	if sum.ctxName == "" {
		return
	}
	if obj == nil {
		sum.ctxUsed = true // unresolved parameter: unknown, not dropped
		return
	}
	ast.Inspect(n.decl.Body, func(m ast.Node) bool {
		if id, ok := m.(*ast.Ident); ok && s.p.unit.Info.Uses[id] == obj {
			sum.ctxUsed = true
		}
		return !sum.ctxUsed
	})
}

// isContextType reports whether the type expression denotes
// context.Context.
func (s *summaries) isContextType(t ast.Expr) bool {
	tv, ok := s.p.unit.Info.Types[t]
	return ok && tv.Type != nil && isNamedType(tv.Type, "context", "Context")
}

// isChanExpr reports whether e has channel type.
func (s *summaries) isChanExpr(e ast.Expr) bool {
	tv, ok := s.p.unit.Info.Types[e]
	if !ok || tv.Type == nil {
		return false
	}
	_, isChan := tv.Type.Underlying().(*types.Chan)
	return isChan
}

// --- the external effect table ------------------------------------------

// blockingExternal classifies a call that does not resolve inside the
// unit: may it block? The table covers the sync waits, timers, and
// network/file I/O the serving stack actually calls; module-internal
// cross-package calls get a name heuristic (internal/par's joins and
// pool/server lifecycle methods).
func (s *summaries) blockingExternal(call *ast.CallExpr) (string, bool) {
	p := s.p
	var name, pkgPath, recvType string
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		name = fun.Name
		if fn, ok := p.unit.Info.Uses[fun].(*types.Func); ok && fn.Pkg() != nil {
			pkgPath = fn.Pkg().Path()
		}
	case *ast.SelectorExpr:
		name = fun.Sel.Name
		if fn, ok := p.unit.Info.Uses[fun.Sel].(*types.Func); ok {
			if fn.Pkg() != nil {
				pkgPath = fn.Pkg().Path()
			}
			if sig, ok := fn.Type().(*types.Signature); ok && sig.Recv() != nil {
				recvType = typeBaseName(sig.Recv().Type())
			}
		} else if _, isPkg := p.unit.Info.Uses[fun.Sel].(*types.Builtin); isPkg {
			return "", false
		}
	default:
		return "", false
	}

	// untyped: the callee has no package — a builtin, a function value,
	// or a call go/types did not resolve.
	untyped := pkgPath == ""
	switch {
	case name == "Wait":
		// Any Wait method: sync.WaitGroup, sync.Cond, errgroup-style
		// collectors, exec.Cmd. Waiting is the point of the name.
		if recvType != "" {
			return fmt.Sprintf("(%s).Wait", recvType), true
		}
		return "a Wait call", true
	case pkgPath == "time" && name == "Sleep":
		return "time.Sleep", true
	case untyped && name == "Sleep":
		return "a Sleep call", true
	case pkgPath == "sync" && recvType == "Once" && name == "Do":
		return "sync.Once.Do (waits for a concurrent first call)", true
	case pkgPath == "io" && (name == "ReadAll" || name == "Copy" || name == "CopyN" ||
		name == "CopyBuffer" || name == "ReadFull"):
		return "io." + name, true
	case pkgPath == "os" && (name == "Open" || name == "OpenFile" || name == "Create" ||
		name == "ReadFile" || name == "WriteFile" || name == "ReadDir"):
		return "os." + name, true
	case pkgPath == "net" && (strings.HasPrefix(name, "Dial") || strings.HasPrefix(name, "Listen") ||
		name == "Accept"):
		return "net." + name, true
	case pkgPath == "net/http" && (name == "Serve" || strings.HasPrefix(name, "ListenAndServe") ||
		name == "Shutdown" || name == "Do" || name == "Get" || name == "Post" ||
		name == "PostForm" || name == "Head"):
		if recvType != "" {
			return fmt.Sprintf("(net/http.%s).%s", recvType, name), true
		}
		return "net/http." + name, true
	case strings.HasPrefix(pkgPath, p.modPath+"/") || pkgPath == p.modPath:
		// Sibling module package: summaries stop at the unit boundary,
		// so fall back to the names of the module's known joiners.
		switch name {
		case "For", "ForEach", "Dynamic", "Close", "Shutdown", "Serve", "Join", "Drain", "Submit":
			return fmt.Sprintf("%s.%s (module helper that joins or blocks)", pkgPath, name), true
		}
	}
	return "", false
}

// typeBaseName unwraps pointers and returns the named type's name.
func typeBaseName(t types.Type) string {
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	if named, ok := t.(*types.Named); ok {
		return named.Obj().Name()
	}
	return ""
}

// isNamedType reports whether t is the named type pkg.name (possibly
// behind a pointer).
func isNamedType(t types.Type, pkg, name string) bool {
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Pkg() != nil && obj.Pkg().Path() == pkg && obj.Name() == name
}
