package lint

// status.go: the ResponseWriter status-write analysis behind the
// httpwrite pass and the rwSummary field of funcSummary. For one
// function and one http.ResponseWriter parameter it classifies every
// use of the writer into events, then walks the function's CFG
// tracking, per path, how many status writes have happened:
//
//   - an explicit status write: w.WriteHeader(code), http.Error,
//     http.NotFound, http.Redirect, http.ServeFile/ServeContent, or a
//     call to a same-unit helper whose summary says it writes through
//     the corresponding parameter (writeError, writeJSON, writeTile —
//     this is what makes the pass interprocedural: a helper-indirected
//     write is invisible to a purely intra-procedural scan)
//   - a body write: w.Write, fmt.Fprint*, io.WriteString/Copy,
//     json.NewEncoder(w), or passing w to a callee as a plain
//     io.Writer. The first body write on a path where nothing has been
//     written yet is an implicit 200, so it raises the floor to one
//     without ever counting as a double write.
//
// The per-path state is (lo, hi, err): a saturating [lo, hi] range of
// status writes plus whether an error status has definitely been
// written. Findings only fire on definite evidence — a second status
// write when lo >= 1, a body write when err is already true, a
// normal exit with hi == 0 — so conditional helpers (min < max) never
// produce false positives, they just widen the range.
//
// If the writer escapes the analysis — stored, captured by a function
// literal, passed to an unresolved callee as a ResponseWriter, used in
// a defer — the function is marked unknown and the pass stays quiet on
// it (the instrument-middleware wrapper pattern does exactly this).

import (
	"go/ast"
	"go/constant"
	"go/token"
	"go/types"
	"strings"
)

// rwEventKind classifies one writer use.
type rwEventKind uint8

const (
	rwStatus    rwEventKind = iota // explicit status write(s)
	rwWriteLike                    // body write / implicit 200
)

// rwEvent is one classified writer use inside one CFG atom.
type rwEvent struct {
	kind     rwEventKind
	min, max int // status writes contributed (rwStatus only)
	isErr    bool
	pos      token.Pos
}

// rwState is the per-path dataflow fact.
type rwState struct {
	lo, hi uint8 // status writes so far, saturated at 2
	err    bool  // an error status has definitely been written
}

// rwViolation callbacks for the reporting walk.
type rwReporter struct {
	double    func(pos token.Pos)
	bodyAfter func(pos token.Pos)
	zeroExit  func()
}

// rwAnalysis analyzes one function body against one writer object.
type rwAnalysis struct {
	s       *summaries
	body    *ast.BlockStmt
	obj     types.Object // the writer parameter
	escaped bool
}

// statusSummaries computes the rwSummary list for a declared function.
// Runs in SCC order, so same-unit helper calls see callee summaries.
func (s *summaries) statusSummaries(n *funcNode) []rwSummary {
	var out []rwSummary
	params := n.decl.Type.Params
	if params == nil {
		return nil
	}
	idx := 0
	for _, field := range params.List {
		isRW := s.isResponseWriterType(field.Type)
		names := field.Names
		if len(names) == 0 {
			if isRW {
				out = append(out, rwSummary{index: idx, unknown: true})
			}
			idx++
			continue
		}
		for _, id := range names {
			obj := s.p.unit.Info.Defs[id]
			if isRW && id.Name != "_" && obj != nil {
				rw := rwSummary{index: idx}
				a := &rwAnalysis{s: s, body: n.decl.Body, obj: obj}
				a.scanEscapes()
				if a.escaped {
					rw.unknown = true
				} else {
					min, max, ok := a.walk(s.cfgOf(n), nil)
					if !ok {
						rw.unknown = true
					} else {
						rw.min, rw.max = min, max
					}
				}
				out = append(out, rw)
			} else if isRW {
				out = append(out, rwSummary{index: idx, unknown: true})
			}
			idx++
		}
	}
	return out
}

// isResponseWriterType matches http.ResponseWriter.
func (s *summaries) isResponseWriterType(t ast.Expr) bool {
	tv, ok := s.p.unit.Info.Types[t]
	return ok && tv.Type != nil && isNamedType(tv.Type, "net/http", "ResponseWriter")
}

// isRequestPtrType matches *http.Request.
func (s *summaries) isRequestPtrType(t ast.Expr) bool {
	tv, ok := s.p.unit.Info.Types[t]
	if !ok || tv.Type == nil {
		return false
	}
	ptr, ok := tv.Type.Underlying().(*types.Pointer)
	return ok && isNamedType(ptr.Elem(), "net/http", "Request")
}

// isWriter reports whether the identifier denotes the analyzed writer.
func (a *rwAnalysis) isWriter(e ast.Expr) bool {
	id, ok := ast.Unparen(e).(*ast.Ident)
	return ok && a.s.p.objOf(id) == a.obj
}

// scanEscapes walks the whole body once and marks the analysis escaped
// when the writer is used in any position the event classifier does not
// model: inside a function literal or defer, stored anywhere, or passed
// to a callee the classifier cannot see through.
func (a *rwAnalysis) scanEscapes() {
	consumed := map[*ast.Ident]bool{}
	var inLit, inDefer int
	var walk func(n ast.Node)
	walk = func(n ast.Node) {
		ast.Inspect(n, func(m ast.Node) bool {
			switch m := m.(type) {
			case *ast.FuncLit:
				if m != n {
					inLit++
					walk(m.Body)
					inLit--
					return false
				}
			case *ast.DeferStmt:
				inDefer++
				walk(m.Call)
				inDefer--
				return false
			case *ast.CallExpr:
				for _, id := range a.eventConsumes(m) {
					consumed[id] = true
				}
			case *ast.Ident:
				if a.isWriter(m) && (inLit > 0 || inDefer > 0 || !consumed[m]) {
					a.escaped = true
				}
			}
			return !a.escaped
		})
	}
	// Two-phase per the Inspect order: calls are visited before the
	// identifiers inside them, so consumption is recorded first.
	walk(a.body)
}

// eventConsumes returns the writer identifiers inside call that the
// classifier models (and therefore do not escape). A nil return with
// the writer present means the call is opaque.
func (a *rwAnalysis) eventConsumes(call *ast.CallExpr) []*ast.Ident {
	ev, ids := a.classifyCall(call)
	if ev == nil {
		return nil
	}
	return ids
}

// classifyCall maps one call expression to at most one event for the
// analyzed writer. The returned idents are the writer uses the event
// accounts for.
func (a *rwAnalysis) classifyCall(call *ast.CallExpr) (*rwEvent, []*ast.Ident) {
	// Method call on the writer itself.
	if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok && a.isWriter(sel.X) {
		id := ast.Unparen(sel.X).(*ast.Ident)
		switch sel.Sel.Name {
		case "WriteHeader":
			ev := &rwEvent{kind: rwStatus, min: 1, max: 1, pos: call.Pos()}
			if len(call.Args) == 1 && a.constStatusIsError(call.Args[0]) {
				ev.isErr = true
			}
			return ev, []*ast.Ident{id}
		case "Write":
			return &rwEvent{kind: rwWriteLike, pos: call.Pos()}, []*ast.Ident{id}
		case "Header":
			return &rwEvent{pos: call.Pos(), kind: rwWriteLike, min: -1}, []*ast.Ident{id} // neutral, see apply
		}
		return nil, nil
	}

	// The writer as an argument.
	var ids []*ast.Ident
	argIdx := -1
	for i, arg := range call.Args {
		if a.isWriter(arg) {
			ids = append(ids, ast.Unparen(arg).(*ast.Ident))
			if argIdx < 0 {
				argIdx = i
			}
		}
	}
	if argIdx < 0 {
		return nil, nil
	}

	// Known stdlib helpers first.
	if pkg, name, ok := pkgFuncName(a.s.p, call); ok {
		switch {
		case pkg == "net/http" && (name == "Error" || name == "NotFound"):
			return &rwEvent{kind: rwStatus, min: 1, max: 1, isErr: true, pos: call.Pos()}, ids
		case pkg == "net/http" && (name == "Redirect" || name == "ServeFile" ||
			name == "ServeContent" || name == "ServeFileFS"):
			return &rwEvent{kind: rwStatus, min: 1, max: 1, pos: call.Pos()}, ids
		case pkg == "net/http" && name == "MaxBytesReader":
			return &rwEvent{pos: call.Pos(), kind: rwWriteLike, min: -1}, ids // neutral wrapper
		case pkg == "fmt" && strings.HasPrefix(name, "Fprint"):
			return &rwEvent{kind: rwWriteLike, pos: call.Pos()}, ids
		case pkg == "io" && (name == "WriteString" || name == "Copy" || name == "CopyN"):
			return &rwEvent{kind: rwWriteLike, pos: call.Pos()}, ids
		case pkg == "encoding/json" && name == "NewEncoder":
			return &rwEvent{kind: rwWriteLike, pos: call.Pos()}, ids
		}
	}

	// A same-unit callee: use its summary for the parameter the writer
	// lands in. This is the helper-indirection case.
	if callee := a.s.graph.calleeOf(a.s.p.unit, call); callee != nil {
		if cs := a.s.by[callee]; cs != nil {
			// Method calls shift flattened parameter indices by zero —
			// the receiver is not in Params — so argIdx lines up except
			// for variadic/multi-writer corners, which escape below.
			for _, rw := range cs.rws {
				if rw.index != argIdx {
					continue
				}
				if rw.unknown {
					return nil, nil
				}
				ev := &rwEvent{kind: rwStatus, min: rw.min, max: rw.max, pos: call.Pos()}
				if rw.min >= 1 && a.callHasErrorStatusArg(call) {
					ev.isErr = true
				}
				if rw.min == 0 && rw.max == 0 {
					ev = &rwEvent{kind: rwWriteLike, pos: call.Pos()} // pure body helper
				}
				return ev, ids
			}
			// The writer flows into a non-ResponseWriter parameter (an
			// io.Writer): only body writes are possible through it.
			if a.calleeParamIsPlainWriter(callee, argIdx) {
				return &rwEvent{kind: rwWriteLike, pos: call.Pos()}, ids
			}
		}
		return nil, nil
	}

	// Unresolved callee taking the writer as a plain io.Writer can only
	// write body bytes; anything else is opaque.
	if a.callArgIsPlainWriter(call, argIdx) {
		return &rwEvent{kind: rwWriteLike, pos: call.Pos()}, ids
	}
	return nil, nil
}

// constStatusIsError reports whether e is a constant int in [400, 599].
func (a *rwAnalysis) constStatusIsError(e ast.Expr) bool {
	tv, ok := a.s.p.unit.Info.Types[e]
	if !ok || tv.Value == nil || tv.Value.Kind() != constant.Int {
		return false
	}
	v, ok := constant.Int64Val(tv.Value)
	return ok && v >= 400 && v <= 599
}

// callHasErrorStatusArg reports whether any argument is a constant
// error-class status code — how a call to a generic status helper
// (writeError(w, http.StatusNotFound, ...)) is classified as an error
// write at the call site.
func (a *rwAnalysis) callHasErrorStatusArg(call *ast.CallExpr) bool {
	for _, arg := range call.Args {
		if a.constStatusIsError(arg) {
			return true
		}
	}
	return false
}

// calleeParamIsPlainWriter reports whether the callee's parameter at
// flattened index idx is a non-ResponseWriter type (io.Writer et al).
func (a *rwAnalysis) calleeParamIsPlainWriter(callee *funcNode, idx int) bool {
	params := callee.decl.Type.Params
	if params == nil {
		return false
	}
	i := 0
	for _, field := range params.List {
		n := len(field.Names)
		if n == 0 {
			n = 1
		}
		if idx < i+n {
			return !a.s.isResponseWriterType(field.Type)
		}
		i += n
	}
	return false
}

// callArgIsPlainWriter inspects an unresolved call's signature for the
// argument's declared parameter type.
func (a *rwAnalysis) callArgIsPlainWriter(call *ast.CallExpr, idx int) bool {
	tv, ok := a.s.p.unit.Info.Types[call.Fun]
	if !ok || tv.Type == nil {
		return false
	}
	sig, ok := tv.Type.Underlying().(*types.Signature)
	if !ok || idx >= sig.Params().Len() {
		return false
	}
	return !isNamedType(sig.Params().At(idx).Type(), "net/http", "ResponseWriter")
}

// pkgFuncName resolves a call to (package path, function name) for
// package-level functions, via types.
func pkgFuncName(p *pass, call *ast.CallExpr) (string, string, bool) {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return "", "", false
	}
	fn, ok := p.unit.Info.Uses[sel.Sel].(*types.Func)
	if !ok || fn.Pkg() == nil {
		return "", "", false
	}
	if sig, ok := fn.Type().(*types.Signature); ok && sig.Recv() != nil {
		return "", "", false
	}
	return fn.Pkg().Path(), fn.Name(), true
}

// atomEvents extracts the writer events of one CFG atom, in source
// order. Neutral events (min == -1 markers) are dropped here.
func (a *rwAnalysis) atomEvents(atom ast.Node) []rwEvent {
	var out []rwEvent
	inspectShallow(atom, func(m ast.Node) bool {
		call, ok := m.(*ast.CallExpr)
		if !ok {
			return true
		}
		ev, _ := a.classifyCall(call)
		if ev != nil && !(ev.kind == rwWriteLike && ev.min == -1) {
			out = append(out, *ev)
		}
		return true
	})
	return out
}

// walk runs the dataflow over the CFG. It returns the [min, max] status
// writes over all normal-exit paths; ok is false when no normal exit is
// reachable (everything panics) — callers treat that as unknown. When
// rep is non-nil the definite violations are reported through it.
func (a *rwAnalysis) walk(c *cfg, rep *rwReporter) (int, int, bool) {
	type item struct {
		blk *block
		st  rwState
	}
	seen := make([]map[rwState]bool, len(c.blocks))
	reported := map[token.Pos]bool{}
	var exitLo, exitHi int
	exitSeen := false
	zeroExit := false

	push := func(stack []item, blk *block, st rwState) []item {
		if seen[blk.index] == nil {
			seen[blk.index] = map[rwState]bool{}
		}
		if seen[blk.index][st] {
			return stack
		}
		seen[blk.index][st] = true
		return append(stack, item{blk, st})
	}
	stack := push(nil, c.entry, rwState{})
	for len(stack) > 0 {
		it := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		st := it.st
		for _, atom := range it.blk.nodes {
			for _, ev := range a.atomEvents(atom) {
				switch ev.kind {
				case rwStatus:
					if rep != nil && st.lo >= 1 && ev.min >= 1 && !reported[ev.pos] {
						reported[ev.pos] = true
						rep.double(ev.pos)
					}
					st.lo = satAdd(st.lo, ev.min)
					st.hi = satAdd(st.hi, ev.max)
					if ev.isErr && ev.min >= 1 {
						st.err = true
					}
				case rwWriteLike:
					if rep != nil && st.err && !reported[ev.pos] {
						reported[ev.pos] = true
						rep.bodyAfter(ev.pos)
					}
					if st.lo == 0 {
						st.lo = 1
					}
					if st.hi == 0 {
						st.hi = 1
					}
				}
			}
		}
		for _, succ := range it.blk.succs {
			switch succ.kind {
			case blockExit:
				if !exitSeen {
					exitLo, exitHi, exitSeen = int(st.lo), int(st.hi), true
				} else {
					if int(st.lo) < exitLo {
						exitLo = int(st.lo)
					}
					if int(st.hi) > exitHi {
						exitHi = int(st.hi)
					}
				}
				if st.hi == 0 {
					zeroExit = true
				}
			case blockPanic:
				// excused
			default:
				stack = push(stack, succ, st)
			}
		}
	}
	if rep != nil && zeroExit {
		rep.zeroExit()
	}
	if !exitSeen {
		return 0, 0, false
	}
	return exitLo, exitHi, true
}

func satAdd(a uint8, b int) uint8 {
	v := int(a) + b
	if v > 2 {
		return 2
	}
	if v < 0 {
		return 0
	}
	return uint8(v)
}
