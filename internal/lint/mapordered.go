package lint

// mapordered: Go map iteration order is deliberately randomized, so a
// range over a map that appends to a slice or writes output produces a
// different artifact every run — poison for the deterministic figure
// and stats emission this repo promises. The one blessed idiom is
// collect-then-sort: appending inside the range is fine when the
// target slice is later passed to sort.* / slices.Sort* in the same
// function.

import (
	"go/ast"
	"go/types"
	"strings"
)

// outputMethods are receiver methods that externalize data.
var outputMethods = map[string]bool{
	"Write": true, "WriteString": true, "WriteByte": true, "WriteRune": true,
	"WriteTo": true, "Encode": true,
}

func runMapordered(p *pass) {
	for _, f := range p.unit.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			var body *ast.BlockStmt
			switch n := n.(type) {
			case *ast.FuncDecl:
				body = n.Body
			case *ast.FuncLit:
				body = n.Body
			default:
				return true
			}
			if body != nil {
				p.checkFuncBody(body)
			}
			return true
		})
	}
}

func (p *pass) checkFuncBody(body *ast.BlockStmt) {
	sorted := sortedSliceNames(body)
	inspectShallow(body, func(n ast.Node) bool {
		rs, ok := n.(*ast.RangeStmt)
		if !ok {
			return true
		}
		tv := p.unit.Info.Types[rs.X]
		if tv.Type == nil {
			return true
		}
		if _, isMap := tv.Type.Underlying().(*types.Map); !isMap {
			return true
		}
		p.checkMapRange(rs, sorted)
		return true
	})
}

// sortedSliceNames collects identifiers passed to sort.* or
// slices.Sort* anywhere in the function body.
func sortedSliceNames(body *ast.BlockStmt) map[string]bool {
	names := map[string]bool{}
	inspectShallow(body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok || len(call.Args) == 0 {
			return true
		}
		sel, ok := call.Fun.(*ast.SelectorExpr)
		if !ok {
			return true
		}
		pkg, ok := sel.X.(*ast.Ident)
		if !ok || (pkg.Name != "sort" && pkg.Name != "slices") {
			return true
		}
		arg := call.Args[0]
		// Unwrap sort.Sort(byLen(s)) style single-argument wrappers.
		if inner, ok := arg.(*ast.CallExpr); ok && len(inner.Args) == 1 {
			arg = inner.Args[0]
		}
		if id, ok := arg.(*ast.Ident); ok {
			names[id.Name] = true
		}
		return true
	})
	return names
}

func (p *pass) checkMapRange(rs *ast.RangeStmt, sorted map[string]bool) {
	reported := false
	inspectShallow(rs.Body, func(n ast.Node) bool {
		if reported {
			return false
		}
		switch n := n.(type) {
		case *ast.AssignStmt:
			for i, rhs := range n.Rhs {
				call, ok := rhs.(*ast.CallExpr)
				if !ok || !isBuiltinAppend(p, call) || i >= len(n.Lhs) {
					continue
				}
				if id, ok := baseIdent(n.Lhs[i]); ok && sorted[id] {
					continue // collect-then-sort idiom
				}
				p.reportf(rs.For, "mapordered",
					"appending to a slice in map iteration order; sort the slice (or the keys) for deterministic output")
				reported = true
			}
		case *ast.CallExpr:
			if name, ok := outputCall(p, n); ok {
				p.reportf(rs.For, "mapordered",
					"%s inside map iteration emits nondeterministic order; iterate sorted keys", name)
				reported = true
			}
		}
		return true
	})
}

func isBuiltinAppend(p *pass, call *ast.CallExpr) bool {
	id, ok := ast.Unparen(call.Fun).(*ast.Ident)
	if !ok || id.Name != "append" {
		return false
	}
	_, builtin := p.unit.Info.Uses[id].(*types.Builtin)
	return builtin
}

func baseIdent(e ast.Expr) (string, bool) {
	for {
		switch x := e.(type) {
		case *ast.Ident:
			return x.Name, true
		case *ast.SelectorExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		default:
			return "", false
		}
	}
}

// outputCall recognizes fmt print calls and Write/Encode-style method
// calls, the ways a map range leaks its order into artifacts.
func outputCall(p *pass, call *ast.CallExpr) (string, bool) {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return "", false
	}
	if fn, ok := p.unit.Info.Uses[sel.Sel].(*types.Func); ok && fn.Pkg() != nil &&
		fn.Pkg().Path() == "fmt" && (strings.HasPrefix(fn.Name(), "Print") || strings.HasPrefix(fn.Name(), "Fprint")) {
		return "fmt." + fn.Name(), true
	}
	if outputMethods[sel.Sel.Name] {
		if _, isMethod := p.unit.Info.Selections[sel]; isMethod {
			return sel.Sel.Name, true
		}
	}
	return "", false
}

// inspectShallow walks n like ast.Inspect but does not descend into
// function literals: runMapordered checks every literal as a body of
// its own, against its own sorted-slice set.
func inspectShallow(n ast.Node, f func(ast.Node) bool) {
	ast.Inspect(n, func(m ast.Node) bool {
		if m == nil {
			return true
		}
		if _, ok := m.(*ast.FuncLit); ok && m != n {
			return false
		}
		return f(m)
	})
}
