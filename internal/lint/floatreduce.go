package lint

// floatreduce: scheduling-ordered floating-point reduction. Float
// addition is not associative, so a sum whose term order depends on
// worker count or goroutine interleaving produces different low bits
// run to run — exactly what broke byte-stable tiles before convDirect
// and GenerateAtInto pinned their summation order per index. The
// invariant this pass checks: inside a parallel task (a func literal
// handed to a go statement or an internal/par launcher), floating-
// point accumulation must target per-task or per-index state, never a
// scalar shared with other tasks.
//
// Flagged shapes:
//
//   - sum += x (or sum = sum + x, -=, *=) on a float/complex variable
//     captured from outside the task literal, or on a field of a
//     captured or package-level value;
//   - a call from a task to a same-unit helper whose summary says it
//     accumulates through a pointer-to-float parameter, with a
//     captured variable's address at that position (the helper is
//     innocent serially; the launch makes it a race on term order);
//   - launching (go f / par.Dynamic(n, w, f)) a function whose summary
//     says it accumulates into a package-level float.
//
// Per-index stores (out[i] += v, where each task owns its indices) are
// the blessed deterministic merge and are exempt; so are accumulators
// declared inside the literal. A mutex does NOT exempt: it serializes
// the += but not its order.

import (
	"go/ast"
	"go/token"
	"go/types"
)

func runFloatreduce(p *pass) {
	s := p.summaries()
	for _, n := range s.graph.nodes {
		for _, site := range taskSites(p, n.decl.Body) {
			if site.lit != nil {
				s.checkTaskLit(p, site)
				continue
			}
			// A named function launched as a task: its package-level
			// accumulation now runs concurrently with its siblings'.
			if callee := s.graph.funcOf(p.unit, site.arg); callee != nil {
				if cs := s.by[callee]; cs != nil {
					for key := range cs.accumGlobal {
						p.reportf(site.pos, "floatreduce",
							"%s launches %s, which accumulates into package-level %s; summation order depends on scheduling — accumulate per task and merge deterministically",
							site.via, callee.name(), key)
					}
				}
			}
		}
	}
}

// checkTaskLit scans one task literal for order-sensitive float
// accumulation into shared state.
func (s *summaries) checkTaskLit(p *pass, site taskSite) {
	lit := site.lit
	ast.Inspect(lit.Body, func(m ast.Node) bool {
		switch m := m.(type) {
		case *ast.FuncLit:
			// A literal nested inside the task still runs under the
			// task's goroutine (or its own); captured-vs-local stays
			// relative to the outer task literal, so keep walking.
			return true
		case *ast.AssignStmt:
			target, ok := floatAccumTarget(p, m)
			if !ok {
				return true
			}
			if _, isIndexed := ast.Unparen(target).(*ast.IndexExpr); isIndexed {
				return true // per-index merge: each task owns its slots
			}
			root := rootIdent(target)
			if root == nil || !capturedByLit(p, lit, root) {
				return true
			}
			p.reportf(m.Pos(), "floatreduce",
				"floating-point accumulation into %s shared across %s tasks; summation order depends on scheduling — accumulate per index (or per task) and merge deterministically",
				types.ExprString(target), site.via)
		case *ast.CallExpr:
			callee := s.graph.calleeOf(p.unit, m)
			if callee == nil {
				return true
			}
			cs := s.by[callee]
			if cs == nil {
				return true
			}
			for idx, pos := range cs.accumPtr {
				if idx >= len(m.Args) {
					continue
				}
				un, ok := ast.Unparen(m.Args[idx]).(*ast.UnaryExpr)
				if !ok || un.Op != token.AND {
					continue
				}
				root := rootIdent(un.X)
				if root == nil || !capturedByLit(p, lit, root) {
					continue
				}
				_ = pos
				p.reportf(m.Pos(), "floatreduce",
					"%s accumulates through this pointer into %s, captured from outside the %s task; summation order depends on scheduling",
					callee.name(), types.ExprString(un.X), site.via)
			}
			for key := range cs.accumGlobal {
				p.reportf(m.Pos(), "floatreduce",
					"call to %s accumulates into package-level %s from a %s task; summation order depends on scheduling",
					callee.name(), key, site.via)
			}
		}
		return true
	})
}

// --- accumulation shapes (shared with summary seeding) -------------------

// floatAccumTarget reports whether the assignment is a floating-point
// reduction step — x += e, x -= e, x *= e, or x = x ± e — returning
// the accumulation target, which must have float or complex type.
func floatAccumTarget(p *pass, a *ast.AssignStmt) (ast.Expr, bool) {
	if len(a.Lhs) != 1 || len(a.Rhs) != 1 {
		return nil, false
	}
	lhs := a.Lhs[0]
	switch a.Tok {
	case token.ADD_ASSIGN, token.SUB_ASSIGN, token.MUL_ASSIGN:
	case token.ASSIGN:
		// x = x + e (or e + x, x - e, x * e): the self-reference is
		// what makes it a reduction.
		bin, ok := ast.Unparen(a.Rhs[0]).(*ast.BinaryExpr)
		if !ok {
			return nil, false
		}
		switch bin.Op {
		case token.ADD, token.SUB, token.MUL:
		default:
			return nil, false
		}
		want := types.ExprString(lhs)
		if types.ExprString(bin.X) != want && types.ExprString(bin.Y) != want {
			return nil, false
		}
	default:
		return nil, false
	}
	if !isFloatExpr(p, lhs) {
		return nil, false
	}
	return lhs, true
}

// isFloatExpr reports whether e has floating-point or complex type;
// an expression go/types recorded no type for does not qualify.
func isFloatExpr(p *pass, e ast.Expr) bool {
	tv, ok := p.unit.Info.Types[e]
	if !ok || tv.Type == nil {
		return false
	}
	basic, ok := tv.Type.Underlying().(*types.Basic)
	return ok && basic.Info()&(types.IsFloat|types.IsComplex) != 0
}

// seedAccum records one function's direct accumulation effects for the
// summary: *p += v through a pointer parameter, and pkgVar += v into a
// package-level variable. Called from seedSummary's frame walk.
func (s *summaries) seedAccum(n *funcNode, sum *funcSummary, a *ast.AssignStmt) {
	target, ok := floatAccumTarget(s.p, a)
	if !ok {
		return
	}
	if star, ok := ast.Unparen(target).(*ast.StarExpr); ok {
		if id, ok := ast.Unparen(star.X).(*ast.Ident); ok {
			if idx, ok := paramIndexOf(s.p, n.decl, id); ok {
				if _, seen := sum.accumPtr[idx]; !seen {
					sum.accumPtr[idx] = a.Pos()
				}
				return
			}
		}
	}
	root := rootIdent(target)
	if root == nil {
		return
	}
	if _, isIndexed := ast.Unparen(target).(*ast.IndexExpr); isIndexed {
		return // per-index stores are the deterministic merge
	}
	if isPkgLevelVar(s.p, root) {
		key := types.ExprString(target)
		if _, seen := sum.accumGlobal[key]; !seen {
			sum.accumGlobal[key] = a.Pos()
		}
	}
}

// paramIndexOf resolves an identifier to its flattened parameter
// position in the declaration, by object.
func paramIndexOf(p *pass, fd *ast.FuncDecl, id *ast.Ident) (int, bool) {
	params := fd.Type.Params
	want := p.unit.Info.Uses[id]
	if params == nil || want == nil {
		return 0, false
	}
	idx := 0
	for _, field := range params.List {
		if len(field.Names) == 0 {
			idx++
			continue
		}
		for _, name := range field.Names {
			if p.unit.Info.Defs[name] == want {
				return idx, true
			}
			idx++
		}
	}
	return 0, false
}

// isPkgLevelVar reports whether the identifier resolves to a
// package-level variable of the unit.
func isPkgLevelVar(p *pass, id *ast.Ident) bool {
	obj, isVar := p.unit.Info.Uses[id].(*types.Var)
	return isVar && obj.Parent() == p.unit.Pkg.Scope()
}
