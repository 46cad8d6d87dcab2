package lint

// httpwrite: every handler path writes exactly one HTTP status. The
// engine is the ResponseWriter dataflow in status.go; this pass points
// it at handler-shaped declarations ((http.ResponseWriter,
// *http.Request) parameters) and turns definite violations into
// findings:
//
//   - zero-write  — some non-panic path returns without a status or
//     body write; the client hangs on an implicit 200-with-no-body or
//     the middleware records nothing.
//   - double write — a second status write on a path that has already
//     written one (WriteHeader after WriteHeader, or two status-writing
//     helpers — the latter is invisible without callee summaries).
//   - body-after-error — a body write after an error status helper
//     (http.Error, WriteHeader(5xx), a helper called with an error
//     code): the error payload has been sent; the extra body corrupts
//     it.
//
// Handlers whose writer escapes the model (stored, captured by a
// closure, deferred, passed as a ResponseWriter to an unresolved
// callee) are skipped, not guessed at — the middleware-wrapper pattern
// in internal/service does exactly that on purpose.

import "go/token"

func runHttpwrite(p *pass) {
	s := p.summaries()
	for _, n := range s.graph.nodes {
		if !s.isHandlerDecl(n) {
			continue
		}
		node := n
		s.eachRWParam(node, func(a *rwAnalysis) {
			a.scanEscapes()
			if a.escaped {
				return
			}
			rep := &rwReporter{
				double: func(pos token.Pos) {
					p.reportf(pos, "httpwrite",
						"second status write on a path that already wrote one; each request gets exactly one status")
				},
				bodyAfter: func(pos token.Pos) {
					p.reportf(pos, "httpwrite",
						"body write after an error status; the error payload is already sent")
				},
				zeroExit: func() {
					p.reportf(node.decl.Name.Pos(), "httpwrite",
						"%s has a path that returns without writing a status or body", node.name())
				},
			}
			a.walk(s.cfgOf(node), rep)
		})
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
		if s.isResponseWriterType(field.Type) {
			hasRW = true
		}
		if s.isRequestPtrType(field.Type) {
			hasReq = true
		}
	}
	return hasRW && hasReq
}

// eachRWParam invokes fn with a fresh analysis for every named,
// non-blank http.ResponseWriter parameter of n that go/types defined.
func (s *summaries) eachRWParam(n *funcNode, fn func(a *rwAnalysis)) {
	params := n.decl.Type.Params
	if params == nil {
		return
	}
	for _, field := range params.List {
		if !s.isResponseWriterType(field.Type) {
			continue
		}
		for _, id := range field.Names {
			if id.Name == "_" {
				continue
			}
			if obj := s.p.unit.Info.Defs[id]; obj != nil {
				fn(&rwAnalysis{s: s, body: n.decl.Body, obj: obj})
			}
		}
	}
}
