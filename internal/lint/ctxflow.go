package lint

// ctxflow: context.Context discipline on the serving stack's request
// paths. Three rules over the summary table (summary.go):
//
//   R1 — a named context parameter that the body never references is a
//        dropped deadline: the caller believes cancellation propagates
//        and it does not. (An interface-mandated parameter can be
//        declared `_ context.Context`, which documents the drop.)
//   R2 — calling context.Background() or context.TODO() while a
//        context parameter is in scope detaches the work from the
//        caller's deadline; derive from the parameter instead
//        (context.WithoutCancel for intentionally-detached shutdown
//        work).
//   R3 — a function reachable from an HTTP handler (over reach edges,
//        so a closure handed to the render pool still counts) whose
//        summary says it may block must accept a context.Context.
//        Handlers themselves are exempt: they carry *http.Request and
//        get their context from r.Context(). This is the
//        interprocedural rule — whether a function is on a request
//        path and whether it transitively blocks are both call-graph
//        facts.
//   R4 — an outbound HTTP request built while an inbound context is
//        available (a context parameter, or *http.Request in a
//        handler) must carry it: http.NewRequest and the package-level
//        http.Get/Post/Head/PostForm all attach context.Background(),
//        so the proxied dial outlives the client that asked for it.
//        Use http.NewRequestWithContext.

import (
	"go/ast"
	"go/types"
)

func runCtxflow(p *pass) {
	s := p.summaries()
	for _, n := range s.graph.nodes {
		sum := s.by[n]
		if sum.ctxName != "" && !sum.ctxUsed {
			p.reportf(sum.ctxPos, "ctxflow",
				"context parameter %q is never used; thread it into blocking calls, or declare it _ to document the drop",
				sum.ctxName)
		}
		if hasInbound := sum.hasCtx || s.isHandlerDecl(n); hasInbound {
			ast.Inspect(n.decl.Body, func(m ast.Node) bool {
				call, ok := m.(*ast.CallExpr)
				if !ok {
					return true
				}
				if sum.hasCtx {
					if name, ok := pkgCallName(p, call, "context", "Background", "TODO"); ok {
						p.reportf(call.Pos(), "ctxflow",
							"context.%s() while a context parameter is in scope; derive from it (context.WithoutCancel for detached work)",
							name)
					}
				}
				if name, ok := pkgCallName(p, call, "net/http", "NewRequest", "Get", "Post", "Head", "PostForm"); ok {
					p.reportf(call.Pos(), "ctxflow",
						"outbound http.%s drops the inbound context (it attaches context.Background()); use http.NewRequestWithContext",
						name)
				}
				return true
			})
		}
	}

	var roots []*funcNode
	for _, n := range s.graph.nodes {
		if s.isHandlerDecl(n) {
			roots = append(roots, n)
		}
	}
	if len(roots) == 0 {
		return
	}
	reachable := s.graph.reachableFrom(roots)
	for _, n := range s.graph.nodes { // declaration order, not map order
		if !reachable[n] || s.isHandlerDecl(n) {
			continue
		}
		sum := s.by[n]
		if sum.blocks && !sum.hasCtx {
			p.reportf(n.decl.Name.Pos(), "ctxflow",
				"%s is on a request path and may block (%s) but takes no context.Context",
				n.name(), sum.blockWhy)
		}
	}
}

// isHandlerDecl reports whether the declaration is handler-shaped: it
// takes both an http.ResponseWriter and a *http.Request.
func (s *summaries) isHandlerDecl(n *funcNode) bool {
	params := n.decl.Type.Params
	if params == nil {
		return false
	}
	hasRW, hasReq := false, false
	for _, field := range params.List {
		tv, ok := s.p.unit.Info.Types[field.Type]
		if !ok || tv.Type == nil {
			continue
		}
		if isNamedType(tv.Type, "net/http", "ResponseWriter") {
			hasRW = true
		}
		if ptr, ok := tv.Type.Underlying().(*types.Pointer); ok && isNamedType(ptr.Elem(), "net/http", "Request") {
			hasReq = true
		}
	}
	return hasRW && hasReq
}
