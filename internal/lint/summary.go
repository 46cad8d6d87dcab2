package lint

// summary.go: per-function effect summaries, propagated bottom-up over
// the call graph's SCC order (callgraph.go). A summary answers, for one
// declared function, the questions the interprocedural passes ask at
// its call sites:
//
//   - may it block? (channel ops, selects without default, sync waits,
//     time.Sleep, network/file I/O — directly or through a same-unit
//     callee)
//   - which locks may it acquire, in caller-translatable form?
//     (receiver-relative keys are canonicalized to "@recv.path" and
//     re-based onto the call site's receiver expression; package-level
//     keys pass through; locks on locals and parameters are dropped —
//     the caller has no name for them)
//   - does it take a context.Context, and does it actually use it?
//   - how many HTTP status writes does it perform through each of its
//     http.ResponseWriter parameters, as a [min, max] range over
//     non-panic paths?
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
// (bools, saturating counters, key sets bounded by the keys printed in
// the package), so the per-SCC fixed-point iteration terminates.

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// Lock acquisition kinds, stored as bits so one key can be taken both
// ways across paths.
const (
	lockExcl   = 1 << iota // Mutex.Lock / RWMutex.Lock
	lockShared             // RWMutex.RLock
)

// blockEvent is one potentially-blocking operation with its witness.
type blockEvent struct {
	pos token.Pos
	why string
}

// rwSummary describes the status writes one function performs through
// one http.ResponseWriter parameter.
type rwSummary struct {
	index    int  // parameter position in the flattened list
	min, max int  // status writes over non-panic paths, saturated at 2
	unknown  bool // the writer escaped analysis; range unusable
}

// funcSummary is the effect summary of one declared function.
type funcSummary struct {
	node *funcNode

	blocks   bool
	blockPos token.Pos
	blockWhy string

	// acquires maps canonical lock keys ("@recv.mu", "pkgMu") to the
	// lockExcl/lockShared bits seen anywhere inside, transitively
	// through same-unit callees.
	acquires map[string]int

	hasCtx  bool
	ctxName string // "" when the parameter is unnamed or blank
	ctxPos  token.Pos
	ctxUsed bool

	rws []rwSummary

	// Determinism-taint bits (taint.go): per-result taint the caller
	// inherits, and the parameters that reach a determinism sink
	// inside (transitively) — how detflow sees through helpers.
	taintRets  []*taintVal
	sinkParams map[int]sinkRef

	// Float-accumulation bits (floatreduce.go): pointer-to-float
	// parameters the function accumulates into, and package-level
	// float variables it accumulates into (transitively through
	// same-unit callees). Harmless serially; findings only when such
	// a function runs as a parallel task.
	accumPtr    map[int]token.Pos
	accumGlobal map[string]token.Pos
}

// summaries is the per-unit interprocedural state, built lazily by the
// first pass that needs it and shared by the rest.
type summaries struct {
	p     *pass
	graph *callGraph
	by    map[*funcNode]*funcSummary
	cfgs  map[*funcNode]*cfg
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
		cfgs:            map[*funcNode]*cfg{},
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
		for _, n := range comp {
			s.by[n].rws = s.statusSummaries(n)
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

// cfgOf returns the (cached) CFG of a declared function.
func (s *summaries) cfgOf(n *funcNode) *cfg {
	c, ok := s.cfgs[n]
	if !ok {
		c = buildCFG(n.decl.Body)
		s.cfgs[n] = c
	}
	return c
}

// summaryOf looks a summary up by declaration; nil for functions the
// graph does not know (no body).
func (s *summaries) summaryOf(fd *ast.FuncDecl) *funcSummary {
	if n := s.graph.byDecl[fd]; n != nil {
		return s.by[n]
	}
	return nil
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
	sum := &funcSummary{
		node:        n,
		acquires:    map[string]int{},
		accumPtr:    map[int]token.Pos{},
		accumGlobal: map[string]token.Pos{},
	}
	s.seedCtx(n, sum)
	recv := recvName(n.decl)

	// One walk over the frame's own code: defer bodies are part of the
	// frame, other function literals are not.
	s.eachFrameNode(n.decl.Body, func(m ast.Node) {
		switch m := m.(type) {
		case *ast.AssignStmt:
			s.seedAccum(n, sum, m)
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
			if key, kind, ok := s.p.lockMethodKey(m, lockAcquireMethods); ok {
				if ck, ok := canonicalKey(s.p, key, recv); ok {
					sum.acquires[ck] |= kind
				}
				return
			}
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
	recv := recvName(n.decl)
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
		for key, kind := range cs.acquires {
			//lint:ignore detflow lock-key joins are commutative: iteration order cannot change the summary
			ck, ok := translateKey(s.p, key, e.call, recv)
			if !ok {
				continue
			}
			if sum.acquires[ck]&kind != kind {
				sum.acquires[ck] |= kind
				changed = true
			}
		}
		// A caller of a package-level accumulator is itself one: the
		// same global gets a scheduling-ordered term if the caller is
		// ever launched as a task.
		for key, pos := range cs.accumGlobal {
			if _, ok := sum.accumGlobal[key]; !ok {
				sum.accumGlobal[key] = pos
				changed = true
			}
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

// frameBlocking reports the first blocking effect inside one CFG atom,
// using callee summaries for same-unit calls and the effect table for
// the frontier. Used by lockbalance's while-held scan.
func (s *summaries) frameBlocking(atom ast.Node) (token.Pos, string, bool) {
	var pos token.Pos
	var why string
	found := false
	note := func(p token.Pos, w string) {
		if !found {
			pos, why, found = p, w, true
		}
	}
	probe := func(m ast.Node) {
		switch m := m.(type) {
		case *ast.SendStmt:
			if !s.nonBlockingComm[m] {
				note(m.Pos(), "channel send")
			}
		case *ast.UnaryExpr:
			if m.Op == token.ARROW && !s.nonBlockingComm[m] {
				note(m.Pos(), "channel receive")
			}
		case *ast.RangeStmt:
			if s.isChanExpr(m.X) {
				note(m.X.Pos(), "range over channel")
			}
		case *ast.CallExpr:
			if callee := s.graph.calleeOf(s.p.unit, m); callee != nil {
				if cs := s.by[callee]; cs != nil && cs.blocks {
					note(m.Pos(), fmt.Sprintf("call to %s, which may block (%s)", callee.name(), cs.blockWhy))
				}
				return
			}
			if w, ok := s.blockingExternal(m); ok {
				note(m.Pos(), w)
			}
		}
	}
	if _, ok := atom.(*ast.DeferStmt); ok {
		// A deferred call runs at exit, when the lock is (for a
		// non-deferred release) no longer held; do not scan it.
		return 0, "", false
	}
	inspectShallow(atom, func(m ast.Node) bool {
		probe(m)
		return !found
	})
	return pos, why, found
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

// --- lock keys ----------------------------------------------------------

// lockAcquireMethods / lockReleaseMethods map method names to kinds.
var lockAcquireMethods = map[string]int{"Lock": lockExcl, "RLock": lockShared}
var lockReleaseMethods = map[string]int{"Unlock": lockExcl, "RUnlock": lockShared}

// lockMethodKey resolves call as a sync.Mutex/sync.RWMutex method from
// the given name set, returning the printed receiver expression that
// keys Lock/Unlock matching. An unresolved selector (embedded locker,
// field of an error type) stays quiet rather than guess.
func (p *pass) lockMethodKey(call *ast.CallExpr, methods map[string]int) (string, int, bool) {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return "", 0, false
	}
	kind, ok := methods[sel.Sel.Name]
	if !ok {
		return "", 0, false
	}
	fn, ok := p.unit.Info.Uses[sel.Sel].(*types.Func)
	if !ok {
		return "", 0, false
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil ||
		!(isSyncType(sig.Recv().Type(), "Mutex") || isSyncType(sig.Recv().Type(), "RWMutex")) {
		return "", 0, false
	}
	return types.ExprString(sel.X), kind, true
}

// recvName returns the receiver identifier of a method declaration, or
// "" for functions and unnamed receivers.
func recvName(fd *ast.FuncDecl) string {
	if fd.Recv == nil || len(fd.Recv.List) == 0 || len(fd.Recv.List[0].Names) == 0 {
		return ""
	}
	return fd.Recv.List[0].Names[0].Name
}

// canonicalKey rewrites a frame-local lock key into caller-translatable
// form: keys rooted at the receiver become "@recv...", keys rooted at a
// package-level variable pass through, everything else (locals,
// parameters) is dropped — callers have no stable name for those.
func canonicalKey(p *pass, key, recv string) (string, bool) {
	base, rest, _ := strings.Cut(key, ".")
	if recv != "" && base == recv {
		if rest == "" {
			return "@recv", true
		}
		return "@recv." + rest, true
	}
	// Keep the key only when its base resolves to a package-level var.
	obj := p.unit.Pkg.Scope().Lookup(base)
	if _, ok := obj.(*types.Var); ok {
		return key, true
	}
	return "", false
}

// translateKey rebases a callee's canonical key onto the caller's
// frame at one call site, then re-canonicalizes it for the caller.
func translateKey(p *pass, key string, call *ast.CallExpr, callerRecv string) (string, bool) {
	if !strings.HasPrefix(key, "@recv") {
		return key, true // package-level: same var in the same package
	}
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return "", false // f() with receiver-relative effects: untranslatable
	}
	base := types.ExprString(sel.X)
	return canonicalKey(p, base+key[len("@recv"):], callerRecv)
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
