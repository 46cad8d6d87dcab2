package lint

// taint.go: the determinism-taint engine behind detflow (and the
// shared source matchers seedrand's time-seed rule reuses). The repo's
// contract — content-addressed scene IDs, golden tile SHAs, seed-for-
// seed bit-identical noise — makes "deterministic" a semantic property
// of values, so this file models it as a taint lattice:
//
//	sources     — where nondeterminism enters a function: map (and
//	              sync.Map) iteration order, time.Now/Since/Until,
//	              global math/rand, os.Environ/Getenv/LookupEnv,
//	              pointer formatting (%p), the branch choice of a
//	              multi-way select, and writes to captured scalars
//	              from go/par-launched task literals (scheduling
//	              decides the final value).
//	propagation — flow-insensitive over assignments, range bindings,
//	              composite/binary expressions and call results. Calls
//	              resolved inside the unit use the callee's taint
//	              summary (which return positions carry a source, and
//	              which parameters flow to them); frontier calls
//	              conservatively map any tainted argument (or
//	              receiver) to a tainted result.
//	sanitizers  — sort.*/slices.* calls (a sorted collection no longer
//	              depends on insertion or iteration order), values
//	              drawn from internal/rng (explicitly seeded streams
//	              are the repo's definition of deterministic), and
//	              len/cap (the size of a map is stable even when its
//	              order is not).
//	sinks       — where nondeterminism becomes a broken contract:
//	              hash inputs (crypto/*, hash/*), canonical JSON and
//	              binary encoding, internal/rng seeding, tile encoding
//	              (internal/render), grid sample buffers (stores into
//	              a Grid's Data), and cache-key/ID construction
//	              (functions whose name ends in Key or ID).
//
// Each taint value is a pair: an optional source witness (kind + site,
// first one seen wins so reports are deterministic) and the set of
// parameter indices whose taint would flow here. The parameter half is
// what makes the analysis interprocedural in both directions: returns
// export "param i taints result j" facts to callers, and sink scans
// export "param i reaches a hash input" facts (sinkParams), so a
// tainted argument three helpers above the hash call is still caught —
// at the call site, where the fix belongs.
//
// The per-function environments are built inside buildSummaries'
// bottom-up SCC fixpoint, so recursion terminates for the usual
// reason: every domain here is a finite join-semilattice that only
// grows. Environments are keyed by types.Object and every matcher goes
// through go/types; an identifier or call go/types left unresolved (an
// ill-typed unit's partial Info) carries no taint and matches no
// source, sanitizer or sink. FuzzTaint pins that the builder and both
// passes survive arbitrary parseable input, type-checked.

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"slices"
	"strings"
)

// maxTaintIters bounds the intra-procedural fixpoint; the environment
// only grows, so the bound is a belt-and-braces guard for pathological
// (fuzzed) inputs, not a correctness requirement.
const maxTaintIters = 64

// taintFact is the provenance of one nondeterministic value.
type taintFact struct {
	why string // source kind, e.g. "map iteration order"
	pos token.Pos
}

// taintVal is the lattice value of one expression or variable: an
// optional source witness plus the parameter indices whose taint would
// flow here. Join is witness-preserving union.
type taintVal struct {
	fact   *taintFact
	params map[int]bool
}

// joinTaint returns the join of a and b, reusing a when possible.
func joinTaint(a, b *taintVal) *taintVal {
	if b == nil {
		return a
	}
	if a == nil {
		return &taintVal{fact: b.fact, params: copyIntSet(b.params)}
	}
	if a.fact == nil {
		a.fact = b.fact
	}
	for i := range b.params {
		if a.params == nil {
			a.params = map[int]bool{}
		}
		a.params[i] = true
	}
	return a
}

func copyIntSet(s map[int]bool) map[int]bool {
	if len(s) == 0 {
		return nil
	}
	out := make(map[int]bool, len(s))
	for k := range s {
		out[k] = true
	}
	return out
}

// taintValEq compares the lattice bits the fixpoint watches.
func taintValEq(a, b *taintVal) bool {
	if (a == nil) != (b == nil) {
		return false
	}
	if a == nil {
		return true
	}
	if (a.fact == nil) != (b.fact == nil) || len(a.params) != len(b.params) {
		return false
	}
	for i := range a.params {
		if !b.params[i] {
			return false
		}
	}
	return true
}

// sinkRef records that a parameter reaches one determinism sink.
type sinkRef struct {
	what string // sink description, e.g. "hash input"
	pos  token.Pos
}

// taintFinding is one detflow diagnostic, collected during summary
// construction and reported by runDetflow in source order.
type taintFinding struct {
	pos token.Pos
	msg string
}

// taintEnv is the flow-insensitive taint environment of one function,
// keyed by the types.Object each identifier resolves to.
type taintEnv struct {
	s *summaries
	n *funcNode

	vals      map[types.Object]*taintVal
	sanitized map[types.Object]bool
	paramIdx  map[types.Object]int // flattened parameter positions

	findings []taintFinding
	reported map[string]bool // pos/sink dedup
	sinks    map[int]sinkRef // parameter -> sink it reaches
}

// keyOf resolves an identifier to its environment key, nil for blanks
// and unresolvable names.
func (e *taintEnv) keyOf(id *ast.Ident) types.Object {
	if id == nil || id.Name == "_" {
		return nil
	}
	if obj := e.s.p.unit.Info.Uses[id]; obj != nil {
		return obj
	}
	return e.s.p.unit.Info.Defs[id]
}

// rootIdent unwraps selectors, indexes, stars and parens down to the
// base identifier an lvalue or value expression hangs off.
func rootIdent(e ast.Expr) *ast.Ident {
	for {
		switch x := e.(type) {
		case *ast.Ident:
			return x
		case *ast.SelectorExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.SliceExpr:
			e = x.X
		case *ast.StarExpr:
			e = x.X
		case *ast.ParenExpr:
			e = x.X
		default:
			return nil
		}
	}
}

// computeTaint (re)builds n's taint environment against the current
// callee summaries and refreshes the taint bits of n's own summary,
// reporting whether they changed — the per-SCC fixpoint driver.
func (s *summaries) computeTaint(n *funcNode) bool {
	e := &taintEnv{
		s:         s,
		n:         n,
		vals:      map[types.Object]*taintVal{},
		sanitized: map[types.Object]bool{},
		paramIdx:  map[types.Object]int{},
		reported:  map[string]bool{},
		sinks:     map[int]sinkRef{},
	}
	e.indexParams()
	e.seed()
	for i := 0; i < maxTaintIters && e.propagate(); i++ {
	}
	e.scanSinks()
	rets := e.deriveRets()

	sum := s.by[n]
	changed := len(rets) != len(sum.taintRets) || len(e.sinks) != len(sum.sinkParams)
	if !changed {
		for i := range rets {
			if !taintValEq(rets[i], sum.taintRets[i]) {
				changed = true
				break
			}
		}
		for i := range e.sinks {
			if _, ok := sum.sinkParams[i]; !ok {
				changed = true
				break
			}
		}
	}
	sum.taintRets = rets
	sum.sinkParams = e.sinks
	s.taintEnvs[n] = e
	return changed
}

// indexParams maps parameter objects to their flattened
// positions, the coordinate system taint summaries speak.
func (e *taintEnv) indexParams() {
	params := e.n.decl.Type.Params
	if params == nil {
		return
	}
	idx := 0
	for _, field := range params.List {
		if len(field.Names) == 0 {
			idx++
			continue
		}
		for _, id := range field.Names {
			if key := e.keyOf(id); key != nil {
				e.paramIdx[key] = idx
			}
			idx++
		}
	}
}

// seed walks the whole body once, recording binding-shaped sources
// (map ranges, select branches, goroutine writes) and the sanitized
// set. Expression-shaped sources (time.Now() and friends) are matched
// lazily by exprTaint.
func (e *taintEnv) seed() {
	ast.Inspect(e.n.decl.Body, func(m ast.Node) bool {
		switch m := m.(type) {
		case *ast.RangeStmt:
			if e.isMapExpr(m.X) {
				fact := &taintFact{why: "map iteration order", pos: m.For}
				e.taintLHS(m.Key, &taintVal{fact: fact})
				e.taintLHS(m.Value, &taintVal{fact: fact})
			}
		case *ast.SelectStmt:
			e.seedSelect(m)
		case *ast.CallExpr:
			if e.isSyncMapRange(m) {
				if lit, ok := ast.Unparen(m.Args[0]).(*ast.FuncLit); ok {
					fact := &taintFact{why: "sync.Map iteration order", pos: m.Pos()}
					for _, field := range lit.Type.Params.List {
						for _, id := range field.Names {
							e.taintLHS(id, &taintVal{fact: fact})
						}
					}
				}
			}
			if sanitizerCall(e.s.p, m) && len(m.Args) > 0 {
				if key := e.keyOf(rootIdent(m.Args[0])); key != nil {
					e.sanitized[key] = true
				}
			}
		}
		return true
	})
	// Writes to captured scalars from task goroutines: the scheduler
	// decides which write lands last, so the value it leaves behind is
	// tainted everywhere.
	for _, lit := range taskLits(e.s.p, e.n.decl.Body) {
		ast.Inspect(lit.Body, func(m ast.Node) bool {
			a, ok := m.(*ast.AssignStmt)
			if !ok {
				return true
			}
			for _, lhs := range a.Lhs {
				id, ok := ast.Unparen(lhs).(*ast.Ident)
				if !ok || !capturedByLit(e.s.p, lit, id) {
					continue
				}
				e.taintLHS(id, &taintVal{fact: &taintFact{
					why: "unjoined-goroutine write order", pos: a.Pos()}})
			}
			return true
		})
	}
}

// seedSelect taints every variable assigned under a multi-way select:
// which branch ran — and therefore which assignment happened — is the
// runtime's choice.
func (e *taintEnv) seedSelect(sel *ast.SelectStmt) {
	var comms []*ast.CommClause
	for _, cs := range sel.Body.List {
		if cc, ok := cs.(*ast.CommClause); ok && cc.Comm != nil {
			comms = append(comms, cc)
		}
	}
	if len(comms) < 2 {
		return
	}
	for _, cc := range comms {
		fact := &taintFact{why: "select branch choice", pos: cc.Pos()}
		ast.Inspect(cc, func(m ast.Node) bool {
			if a, ok := m.(*ast.AssignStmt); ok {
				for _, lhs := range a.Lhs {
					e.taintLHS(lhs, &taintVal{fact: fact})
				}
			}
			return true
		})
	}
}

// propagate runs one transfer pass over every assignment-shaped node
// in the body (closures included — they share the enclosing frame's
// objects), reporting whether the environment grew.
func (e *taintEnv) propagate() bool {
	changed := false
	ast.Inspect(e.n.decl.Body, func(m ast.Node) bool {
		switch m := m.(type) {
		case *ast.AssignStmt:
			if len(m.Rhs) == 1 && len(m.Lhs) > 1 {
				v := e.exprTaint(m.Rhs[0])
				for _, lhs := range m.Lhs {
					if e.taintLHS(lhs, v) {
						changed = true
					}
				}
				break
			}
			for i, lhs := range m.Lhs {
				if i >= len(m.Rhs) {
					break
				}
				if e.taintLHS(lhs, e.exprTaint(m.Rhs[i])) {
					changed = true
				}
			}
		case *ast.ValueSpec:
			for i, name := range m.Names {
				var v *taintVal
				if len(m.Values) == 1 && len(m.Names) > 1 {
					v = e.exprTaint(m.Values[0])
				} else if i < len(m.Values) {
					v = e.exprTaint(m.Values[i])
				}
				if e.taintLHS(name, v) {
					changed = true
				}
			}
		case *ast.RangeStmt:
			if v := e.exprTaint(m.X); v != nil {
				if e.taintLHS(m.Key, v) {
					changed = true
				}
				if e.taintLHS(m.Value, v) {
					changed = true
				}
			}
		}
		return true
	})
	return changed
}

// taintLHS joins v into the environment entry of the lvalue's root
// identifier, refusing blanks and sanitized variables.
func (e *taintEnv) taintLHS(lhs ast.Expr, v *taintVal) bool {
	if lhs == nil || v == nil {
		return false
	}
	root := rootIdent(lhs)
	if root == nil {
		return false
	}
	key := e.keyOf(root)
	if key == nil || e.sanitized[key] {
		return false
	}
	old := e.vals[key]
	merged := joinTaint(old, v)
	if taintValEq(old, merged) && old != nil {
		e.vals[key] = merged
		return false
	}
	e.vals[key] = merged
	return true
}

// exprTaint computes the taint of one expression under the current
// environment; nil means clean.
func (e *taintEnv) exprTaint(expr ast.Expr) *taintVal {
	switch x := expr.(type) {
	case nil:
		return nil
	case *ast.Ident:
		key := e.keyOf(x)
		if key == nil || e.sanitized[key] {
			return nil
		}
		var out *taintVal
		if v := e.vals[key]; v != nil {
			out = joinTaint(out, v)
		}
		if idx, ok := e.paramIdx[key]; ok {
			out = joinTaint(out, &taintVal{params: map[int]bool{idx: true}})
		}
		return out
	case *ast.ParenExpr:
		return e.exprTaint(x.X)
	case *ast.StarExpr:
		return e.exprTaint(x.X)
	case *ast.UnaryExpr:
		return e.exprTaint(x.X)
	case *ast.BinaryExpr:
		return joinTaint(e.exprTaint(x.X), e.exprTaint(x.Y))
	case *ast.SelectorExpr:
		return e.exprTaint(x.X)
	case *ast.IndexExpr:
		return joinTaint(e.exprTaint(x.X), e.exprTaint(x.Index))
	case *ast.SliceExpr:
		return e.exprTaint(x.X)
	case *ast.TypeAssertExpr:
		return e.exprTaint(x.X)
	case *ast.KeyValueExpr:
		return e.exprTaint(x.Value)
	case *ast.CompositeLit:
		var out *taintVal
		for _, elt := range x.Elts {
			out = joinTaint(out, e.exprTaint(elt))
		}
		return out
	case *ast.CallExpr:
		return e.callTaint(x)
	}
	return nil
}

// callTaint models one call: sources introduce taint, sanitizers and
// seeded-rng values clear it, in-unit callees apply their summaries,
// and the frontier conservatively maps tainted inputs to tainted
// outputs.
func (e *taintEnv) callTaint(call *ast.CallExpr) *taintVal {
	p := e.s.p
	// Conversions pass taint through unchanged.
	if tv, ok := p.unit.Info.Types[call.Fun]; ok && tv.IsType() && len(call.Args) == 1 {
		return e.exprTaint(call.Args[0])
	}
	if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok {
		if isBuiltinName(p, id) {
			switch id.Name {
			case "len", "cap", "make", "new", "min", "max":
				return nil // a map's size is stable even when its order is not
			}
			var out *taintVal
			for _, a := range call.Args {
				out = joinTaint(out, e.exprTaint(a))
			}
			return out
		}
	}
	if why, ok := taintSourceCall(p, call); ok {
		return &taintVal{fact: &taintFact{why: why, pos: call.Pos()}}
	}
	if sanitizerCall(p, call) {
		return nil
	}
	if isModulePkgCall(p, call, "internal/rng") {
		return nil // explicitly seeded streams are deterministic by contract
	}
	if callee := e.s.graph.calleeOf(p.unit, call); callee != nil {
		cs := e.s.by[callee]
		if cs == nil {
			return nil
		}
		var out *taintVal
		for _, ret := range cs.taintRets {
			if ret == nil {
				continue
			}
			if ret.fact != nil {
				out = joinTaint(out, &taintVal{fact: ret.fact})
			}
			for pi := range ret.params {
				if pi < len(call.Args) {
					out = joinTaint(out, e.exprTaint(call.Args[pi]))
				}
			}
		}
		return out
	}
	// Frontier: any tainted argument (or receiver) taints the result.
	var out *taintVal
	for _, a := range call.Args {
		out = joinTaint(out, e.exprTaint(a))
	}
	if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok {
		out = joinTaint(out, e.exprTaint(sel.X))
	}
	return out
}

// scanSinks walks every call (and grid-buffer store) in the body,
// turning tainted-with-witness sink arguments into findings and
// tainted-from-parameter ones into sinkParams entries for callers.
func (e *taintEnv) scanSinks() {
	ast.Inspect(e.n.decl.Body, func(m ast.Node) bool {
		switch m := m.(type) {
		case *ast.CallExpr:
			if what, ok := classifySink(e.s.p, m); ok {
				for _, arg := range m.Args {
					e.sinkArg(arg, what, arg.Pos(), "")
				}
				return true
			}
			// A callee whose summary says some parameter reaches a sink:
			// check the matching arguments here, where the taint is.
			if callee := e.s.graph.calleeOf(e.s.p.unit, m); callee != nil {
				if cs := e.s.by[callee]; cs != nil {
					for pi, ref := range cs.sinkParams {
						if pi < len(m.Args) {
							e.sinkArg(m.Args[pi], ref.what, m.Pos(),
								fmt.Sprintf(" via call to %s", callee.name()))
						}
					}
				}
			}
		case *ast.AssignStmt:
			e.scanGridStore(m)
		}
		return true
	})
}

// sinkArg classifies one value arriving at a sink.
func (e *taintEnv) sinkArg(arg ast.Expr, what string, pos token.Pos, via string) {
	v := e.exprTaint(arg)
	if v == nil {
		return
	}
	if v.fact != nil {
		e.report(pos, fmt.Sprintf(
			"nondeterministic value (%s) flows into %s%s; sort, seed via internal/rng, or make the input deterministic",
			v.fact.why, what, via))
	}
	for pi := range v.params {
		if _, seen := e.sinks[pi]; !seen {
			e.sinks[pi] = sinkRef{what: what, pos: pos}
		}
	}
}

// scanGridStore flags tainted stores into a Grid's sample buffer
// (g.Data[i] = v with Grid from internal/grid): generated samples must
// be pure functions of (scene, seed, window).
func (e *taintEnv) scanGridStore(a *ast.AssignStmt) {
	info := e.s.p.unit.Info
	for i, lhs := range a.Lhs {
		ix, ok := ast.Unparen(lhs).(*ast.IndexExpr)
		if !ok {
			continue
		}
		sel, ok := ast.Unparen(ix.X).(*ast.SelectorExpr)
		if !ok || sel.Sel.Name != "Data" {
			continue
		}
		tv, ok := info.Types[sel.X]
		if !ok || tv.Type == nil || !isModuleNamedType(e.s.p, tv.Type, "internal/grid") {
			continue
		}
		var v *taintVal
		if len(a.Rhs) == 1 {
			v = e.exprTaint(a.Rhs[0])
		} else if i < len(a.Rhs) {
			v = e.exprTaint(a.Rhs[i])
		}
		if v != nil && v.fact != nil {
			e.report(lhs.Pos(), fmt.Sprintf(
				"nondeterministic value (%s) stored into a grid sample buffer; samples must be pure functions of (scene, seed, window)",
				v.fact.why))
		}
	}
}

func (e *taintEnv) report(pos token.Pos, msg string) {
	key := fmt.Sprintf("%d:%s", pos, msg)
	if e.reported[key] {
		return
	}
	e.reported[key] = true
	e.findings = append(e.findings, taintFinding{pos: pos, msg: msg})
}

// deriveRets computes the taint of each result position from the
// frame's return statements (closures excluded — their returns are
// theirs).
func (e *taintEnv) deriveRets() []*taintVal {
	results := e.n.decl.Type.Results
	if results == nil {
		return nil
	}
	nres := 0
	for _, field := range results.List {
		if len(field.Names) == 0 {
			nres++
		} else {
			nres += len(field.Names)
		}
	}
	if nres == 0 {
		return nil
	}
	rets := make([]*taintVal, nres)
	var walk func(node ast.Node)
	walk = func(node ast.Node) {
		ast.Inspect(node, func(m ast.Node) bool {
			switch m := m.(type) {
			case *ast.FuncLit:
				return false
			case *ast.ReturnStmt:
				switch {
				case len(m.Results) == 0:
					// Naked return: named results carry the values.
					idx := 0
					for _, field := range results.List {
						for _, id := range field.Names {
							if idx < nres {
								rets[idx] = joinTaint(rets[idx], e.exprTaint(id))
							}
							idx++
						}
					}
				case len(m.Results) == nres:
					for i, res := range m.Results {
						rets[i] = joinTaint(rets[i], e.exprTaint(res))
					}
				case len(m.Results) == 1:
					// return f() splat: smear the call's taint everywhere.
					v := e.exprTaint(m.Results[0])
					for i := range rets {
						rets[i] = joinTaint(rets[i], v)
					}
				}
			}
			return true
		})
	}
	walk(e.n.decl.Body)
	return rets
}

// capturedByLit reports whether the identifier refers to a variable
// declared outside the function literal (captured state shared with
// the launching frame, or package level).
func capturedByLit(p *pass, lit *ast.FuncLit, id *ast.Ident) bool {
	if id == nil || id.Name == "_" {
		return false
	}
	obj := p.unit.Info.Uses[id]
	if obj == nil {
		// Defined at this very site (:=) — local to the literal — or
		// unresolved.
		return false
	}
	if obj.Parent() == p.unit.Pkg.Scope() {
		return true
	}
	return obj.Pos() < lit.Pos() || obj.Pos() >= lit.End()
}

// isMapExpr reports whether e has map type.
func (e *taintEnv) isMapExpr(x ast.Expr) bool {
	tv, ok := e.s.p.unit.Info.Types[x]
	if !ok || tv.Type == nil {
		return false
	}
	_, isMap := tv.Type.Underlying().(*types.Map)
	return isMap
}

// isSyncMapRange matches m.Range(func(k, v any) bool { ... }) on a
// sync.Map receiver.
func (e *taintEnv) isSyncMapRange(call *ast.CallExpr) bool {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok || sel.Sel.Name != "Range" || len(call.Args) != 1 {
		return false
	}
	fn, ok := e.s.p.unit.Info.Uses[sel.Sel].(*types.Func)
	if !ok || fn.Pkg() == nil || fn.Pkg().Path() != "sync" {
		return false
	}
	sig, ok := fn.Type().(*types.Signature)
	return ok && sig.Recv() != nil && typeBaseName(sig.Recv().Type()) == "Map"
}

// --- shared call matchers ------------------------------------------------

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

// pkgCallName resolves a call (through go/types) to a package-level
// function of pkgPath, returning its name when it is one of names.
// Shared by ctxflow's Background/TODO matcher, detflow's source
// matchers, and seedrand's time-seed rule.
func pkgCallName(p *pass, call *ast.CallExpr, pkgPath string, names ...string) (string, bool) {
	pkg, name, ok := pkgFuncName(p, call)
	if !ok || pkg != pkgPath || !slices.Contains(names, name) {
		return "", false
	}
	return name, true
}

// taintSourceCall classifies expression-shaped nondeterminism sources.
func taintSourceCall(p *pass, call *ast.CallExpr) (string, bool) {
	if name, ok := pkgCallName(p, call, "time", "Now", "Since", "Until"); ok {
		return "time." + name, true
	}
	if name, ok := pkgCallName(p, call, "os", "Environ", "Getenv", "LookupEnv", "Hostname", "Getpid"); ok {
		return "os." + name, true
	}
	if pkg, _, ok := pkgFuncName(p, call); ok && (pkg == "math/rand" || pkg == "math/rand/v2") {
		return "global " + pkg, true
	}
	// Pointer formatting: fmt.Sprintf("%p", x) and friends bake an
	// ASLR-randomized address into a string.
	if name, ok := pkgCallName(p, call, "fmt", "Sprintf", "Sprint", "Appendf", "Errorf"); ok {
		if len(call.Args) > 0 {
			if lit, ok := ast.Unparen(call.Args[0]).(*ast.BasicLit); ok &&
				lit.Kind == token.STRING && strings.Contains(lit.Value, "%p") {
				return "pointer formatting (%p) in fmt." + name, true
			}
		}
	}
	return "", false
}

// sanitizerCall matches order-erasing calls: any package-level
// function of sort or slices (Sort*, Compact, etc. — their outputs no
// longer depend on insertion or iteration order).
func sanitizerCall(p *pass, call *ast.CallExpr) bool {
	pkg, _, ok := pkgFuncName(p, call)
	return ok && (pkg == "sort" || pkg == "slices")
}

// isModulePkgCall reports whether the call resolves into a module
// package whose import path ends with suffix (e.g. "internal/rng"),
// methods included.
func isModulePkgCall(p *pass, call *ast.CallExpr, suffix string) bool {
	fn := usedFunc(p.unit, call.Fun)
	if fn == nil || fn.Pkg() == nil {
		return false
	}
	pkg := fn.Pkg().Path()
	return strings.HasSuffix(pkg, "/"+suffix) || pkg == suffix
}

// isModuleNamedType reports whether t is a named type (possibly behind
// a pointer) declared in a module package whose path ends with suffix.
func isModuleNamedType(p *pass, t types.Type, suffix string) bool {
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	pkg := named.Obj().Pkg()
	return pkg != nil && strings.HasSuffix(pkg.Path(), suffix)
}

// isBuiltinName reports whether the identifier resolves to a builtin.
func isBuiltinName(p *pass, id *ast.Ident) bool {
	_, ok := p.unit.Info.Uses[id].(*types.Builtin)
	return ok
}

// --- sinks ---------------------------------------------------------------

// classifySink reports whether the call is a determinism sink and what
// kind: a place where a nondeterministic input breaks a repo contract.
func classifySink(p *pass, call *ast.CallExpr) (string, bool) {
	var name, pkgPath, recvPath string
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		name = fun.Name
		if fn, ok := p.unit.Info.Uses[fun].(*types.Func); ok && fn.Pkg() != nil {
			pkgPath = fn.Pkg().Path()
		}
	case *ast.SelectorExpr:
		name = fun.Sel.Name
		if fn, ok := p.unit.Info.Uses[fun.Sel].(*types.Func); ok && fn.Pkg() != nil {
			pkgPath = fn.Pkg().Path()
		}
		// A method reached through an embedded interface resolves to
		// the embedding package (hash.Hash.Write is io.Writer.Write);
		// the receiver's named type carries the package that matters.
		if tv, ok := p.unit.Info.Types[fun.X]; ok && tv.Type != nil {
			t := tv.Type
			if ptr, ok := t.(*types.Pointer); ok {
				t = ptr.Elem()
			}
			if named, ok := t.(*types.Named); ok && named.Obj().Pkg() != nil {
				recvPath = named.Obj().Pkg().Path()
			}
		}
	default:
		return "", false
	}

	if what, ok := sinkForPkg(pkgPath, name); ok {
		return what, true
	}
	if what, ok := sinkForPkg(recvPath, name); ok {
		return what, true
	}
	if strings.HasSuffix(name, "Key") || strings.HasSuffix(name, "ID") {
		// Cache-key/ID construction by naming convention: tileKey,
		// cacheKey, sceneID — module code addressed by these strings.
		return "cache-key/ID construction", true
	}
	return "", false
}

// sinkForPkg applies the package-based sink rules to one resolved
// import path (the callee's own, or its receiver's).
func sinkForPkg(pkgPath, name string) (string, bool) {
	switch {
	case pkgPath == "hash" || strings.HasPrefix(pkgPath, "hash/") ||
		strings.HasPrefix(pkgPath, "crypto/"):
		return "hash input", true
	case pkgPath == "encoding/json" && (name == "Marshal" || name == "MarshalIndent" || name == "Encode"):
		return "canonical JSON encoding", true
	case pkgPath == "encoding/binary" && (strings.HasPrefix(name, "Write") ||
		strings.HasPrefix(name, "Put") || strings.HasPrefix(name, "Append") || name == "Encode"):
		return "binary encoding", true
	case strings.HasSuffix(pkgPath, "internal/rng") || pkgPath == "internal/rng":
		return "rng seeding", true
	case strings.HasSuffix(pkgPath, "internal/render") || pkgPath == "internal/render":
		return "tile encoding", true
	}
	return "", false
}

// --- task launch sites ---------------------------------------------------

// parLauncherNames are the fan-out entry points of the module's par
// package.
var parLauncherNames = map[string]bool{
	"For": true, "ForEach": true, "Dynamic": true,
	"Submit": true, "TrySubmit": true, "Background": true, "Go": true,
}

// taskLits collects, in source order, every function literal under
// root that runs as a task on another goroutine: the body of a go
// statement, or a literal argument to an internal/par launcher.
func taskLits(p *pass, root ast.Node) []*ast.FuncLit {
	var lits []*ast.FuncLit
	ast.Inspect(root, func(m ast.Node) bool {
		switch m := m.(type) {
		case *ast.GoStmt:
			if lit, ok := ast.Unparen(m.Call.Fun).(*ast.FuncLit); ok {
				lits = append(lits, lit)
			}
		case *ast.CallExpr:
			if !isParLauncher(p, m) {
				return true
			}
			for _, a := range m.Args {
				if lit, ok := ast.Unparen(a).(*ast.FuncLit); ok {
					lits = append(lits, lit)
				}
			}
		}
		return true
	})
	return lits
}

// isParLauncher matches calls into a module-internal package named
// par (For/ForEach/Dynamic/Pool.Submit/...), the only blessed fan-out
// path (parpolicy enforces that part).
func isParLauncher(p *pass, call *ast.CallExpr) bool {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok || !parLauncherNames[sel.Sel.Name] {
		return false
	}
	fn, ok := p.unit.Info.Uses[sel.Sel].(*types.Func)
	if !ok || fn.Pkg() == nil {
		return false
	}
	path := fn.Pkg().Path()
	inModule := path == p.modPath || strings.HasPrefix(path, p.modPath+"/")
	return inModule && (strings.HasSuffix(path, "/par") || path == "par")
}
