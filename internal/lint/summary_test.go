package lint

// White-box tests for the interprocedural substrate: call-graph SCC
// ordering, summary propagation, the behaviour on ill-typed units
// (every check must treat a missing Info entry as "unknown"), and
// FuzzSummary, which asserts the builder's invariants on arbitrary
// parseable input and that ctxflow survives it.

import (
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"sync"
	"testing"
)

// One file set and one source importer serve every typed pass the
// white-box tests and fuzz targets build, and the fixture-tree run
// (export_test.go), so a standard-library package is type-checked from
// source once per test binary.
var (
	typedFset = token.NewFileSet()
	typedImp  = importer.ForCompiler(typedFset, "source", nil).(types.ImporterFrom)
	typedMu   sync.Mutex // the source importer is not safe for concurrent use
)

// typedPass parses src as one file and type-checks it like the loader,
// except that type errors are collected instead of fatal: go/types
// still returns the package and the partial Info, which is what the
// checks see for ill-typed input. err is the parse error, if any.
func typedPass(src string) (p *pass, typeErrs []error, err error) {
	f, err := parser.ParseFile(typedFset, "p.go", src, parser.SkipObjectResolution)
	if err != nil {
		return nil, nil, err
	}
	info := &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
	}
	conf := types.Config{Importer: typedImp, Error: func(e error) { typeErrs = append(typeErrs, e) }}
	typedMu.Lock()
	pkg, _ := conf.Check("p", typedFset, []*ast.File{f}, info)
	typedMu.Unlock()
	var diags []Diagnostic
	return &pass{
		fset:    typedFset,
		root:    ".",
		modPath: "fixture",
		unit:    &Unit{Dir: ".", Name: f.Name.Name, Files: []*ast.File{f}, Info: info, Pkg: pkg},
		diags:   &diags,
	}, typeErrs, nil
}

// parsePass builds a typed pass over one well-typed source file.
func parsePass(tb testing.TB, src string) *pass {
	tb.Helper()
	p, typeErrs, err := typedPass(src)
	if err != nil {
		tb.Fatalf("parse: %v", err)
	}
	if len(typeErrs) > 0 {
		tb.Fatalf("type errors: %v", typeErrs)
	}
	return p
}

// declSummary finds a function's summary by name.
func declSummary(tb testing.TB, s *summaries, name string) *funcSummary {
	tb.Helper()
	for _, n := range s.graph.nodes {
		if n.decl.Name.Name == name {
			return s.by[n]
		}
	}
	tb.Fatalf("no declaration %q in the unit", name)
	return nil
}

func TestCallGraphSCCOrder(t *testing.T) {
	p := parsePass(t, `package p
func a() { b() }
func b() { c(); a() }
func c() {}
func lone() {}
`)
	s := p.summaries()
	for _, n := range s.graph.nodes {
		for _, e := range n.sync {
			if e.callee.scc > n.scc {
				t.Errorf("sync edge %s -> %s violates bottom-up SCC order (%d -> %d)",
					n.name(), e.callee.name(), n.scc, e.callee.scc)
			}
		}
	}
	var a, b *funcNode
	for _, n := range s.graph.nodes {
		switch n.decl.Name.Name {
		case "a":
			a = n
		case "b":
			b = n
		}
	}
	if a.scc != b.scc {
		t.Errorf("mutually recursive a and b in different SCCs (%d, %d)", a.scc, b.scc)
	}
}

func TestSummaryBlockPropagatesThroughChain(t *testing.T) {
	p := parsePass(t, `package p
import "time"
func outer() { middle() }
func middle() { inner() }
func inner() { time.Sleep(1) }
func pure() { _ = 1 + 2 }
`)
	s := p.summaries()
	if sum := declSummary(t, s, "outer"); !sum.blocks {
		t.Error("outer: blocking did not propagate through two call levels")
	}
	if sum := declSummary(t, s, "pure"); sum.blocks {
		t.Errorf("pure: spurious blocking (%s)", sum.blockWhy)
	}
}

func TestSummaryCtxDetection(t *testing.T) {
	p := parsePass(t, `package p
import "context"
func used(ctx context.Context) { _ = ctx.Err() }
func dropped(ctx context.Context) { _ = 1 }
func blank(_ context.Context) {}
func none(n int) { _ = n }
`)
	s := p.summaries()
	if sum := declSummary(t, s, "used"); !sum.hasCtx || !sum.ctxUsed {
		t.Errorf("used: hasCtx=%v ctxUsed=%v, want true/true", sum.hasCtx, sum.ctxUsed)
	}
	if sum := declSummary(t, s, "dropped"); !sum.hasCtx || sum.ctxUsed {
		t.Errorf("dropped: hasCtx=%v ctxUsed=%v, want true/false", sum.hasCtx, sum.ctxUsed)
	}
	if sum := declSummary(t, s, "blank"); !sum.hasCtx || sum.ctxName != "" {
		t.Errorf("blank: hasCtx=%v ctxName=%q, want true and empty", sum.hasCtx, sum.ctxName)
	}
	if sum := declSummary(t, s, "none"); sum.hasCtx {
		t.Error("none: spurious hasCtx")
	}
}

func TestSelectWithDefaultIsAPoll(t *testing.T) {
	p := parsePass(t, `package p
var ch = make(chan int)
func poll() { select { case <-ch: default: } }
func park() { select { case <-ch: } }
`)
	s := p.summaries()
	if sum := declSummary(t, s, "poll"); sum.blocks {
		t.Errorf("poll: select with default flagged as blocking (%s)", sum.blockWhy)
	}
	if sum := declSummary(t, s, "park"); !sum.blocks {
		t.Error("park: select without default must block")
	}
}

// illTypedSrc holds one of each type error the checks must read as
// "unknown" rather than guess at: a par launch with no import, an
// import path that does not resolve, a method call on an undefined
// type, and a call to an undeclared function. Matched by spelling,
// the first would be a par launcher call, the second a seedrand
// finding and the third a call edge to T.Method, which blocks.
const illTypedSrc = `package p

import (
	"time"

	"no/such/rand"
)

var total float64

type T struct{}

func (T) Method() { select {} }

func bump(v float64) { total += v }

func launch() { par.Dynamic(4, 2, bump) }

func seed() { rand.Seed(time.Now().UnixNano()) }

func onUndefined() {
	var u Undefined
	u.Method()
}

func undeclaredCall() { undeclared(1) }
`

// illTypedSeeds are the same shapes one per file, as fuzz seeds.
var illTypedSeeds = []string{
	"package p\nvar total float64\nfunc bump(v float64) { total += v }\nfunc launch() { par.Dynamic(4, 2, bump) }\n",
	"package p\nimport (\n\t\"time\"\n\t\"no/such/rand\"\n)\nfunc seed() { rand.Seed(time.Now().UnixNano()) }\n",
	"package p\ntype T struct{}\nfunc (T) Method() { select {} }\nfunc f() { var u Undefined; u.Method() }\n",
	"package p\nfunc f() { undeclared(1) }\n",
}

// TestIllTypedUnitIsUnknown runs every registered check over a unit
// with type errors: nothing may panic, and no unresolved callee may
// produce a call edge, a blocking effect or a finding.
func TestIllTypedUnitIsUnknown(t *testing.T) {
	p, typeErrs, err := typedPass(illTypedSrc)
	if err != nil {
		t.Fatal(err)
	}
	if len(typeErrs) < 4 {
		t.Fatalf("got %d type errors, want at least 4: %v", len(typeErrs), typeErrs)
	}
	for _, c := range allChecks {
		c.run(p)
	}
	if len(*p.diags) != 0 {
		t.Errorf("findings from unresolved callees: %v", *p.diags)
	}
	s := p.summaries()
	for _, n := range s.graph.nodes {
		for _, e := range n.reach {
			t.Errorf("call edge %s -> %s from an unresolved callee", n.name(), e.callee.name())
		}
	}
	if sum := declSummary(t, s, "onUndefined"); sum.blocks {
		t.Errorf("onUndefined blocks (%s) through an unresolved method call", sum.blockWhy)
	}
}

// checkSummaryInvariants asserts what buildSummaries guarantees for
// any parseable input.
func checkSummaryInvariants(tb testing.TB, s *summaries) {
	tb.Helper()
	for _, n := range s.graph.nodes {
		sum := s.by[n]
		if sum == nil {
			tb.Fatalf("%s: no summary", n.name())
		}
		if sum.blocks && !sum.blockPos.IsValid() {
			tb.Fatalf("%s: blocks without a witness position", n.name())
		}
		for _, e := range n.sync {
			if e.callee.scc > n.scc {
				tb.Fatalf("sync edge %s -> %s breaks SCC order", n.name(), e.callee.name())
			}
		}
	}
}

func FuzzSummary(f *testing.F) {
	seeds := []string{
		"package p\nfunc f() {}\n",
		"package p\nimport \"sync\"\nvar mu sync.Mutex\nfunc f() { mu.Lock(); mu.Unlock() }\n",
		"package p\nimport \"sync\"\nvar mu sync.Mutex\nfunc f(c bool) { mu.Lock(); if c { return }; mu.Unlock() }\n",
		"package p\nimport \"time\"\nfunc a() { b() }\nfunc b() { a(); time.Sleep(1) }\n",
		"package p\nimport \"context\"\nfunc f(ctx context.Context) { <-ctx.Done() }\n",
		"package p\nimport \"net/http\"\nfunc h(w http.ResponseWriter, r *http.Request) { w.WriteHeader(200); w.Write(nil) }\n",
		"package p\nimport \"net/http\"\nfunc h(w http.ResponseWriter, r *http.Request) { helper(w) }\nfunc helper(w http.ResponseWriter) { w.WriteHeader(500) }\n",
		"package p\nvar ch = make(chan int)\nfunc f() { select { case <-ch: default: } }\n",
		"package p\nimport \"sync\"\ntype S struct{ mu sync.RWMutex }\nfunc (s *S) r() { s.mu.RLock(); defer s.mu.RUnlock(); s.r() }\n",
		"package p\nfunc f() { defer func() { recover() }(); panic(1) }\n",
	}
	seeds = append(seeds, illTypedSeeds...)
	for _, s := range seeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, src string) {
		p, _, err := typedPass(src)
		if err != nil {
			t.Skip()
		}
		s := p.summaries()
		checkSummaryInvariants(t, s)
		// Rebuilding must be deterministic in the bits passes consume.
		again := buildSummaries(p)
		for _, n := range s.graph.nodes {
			m := again.graph.byDecl[n.decl]
			if m == nil || again.by[m].blocks != s.by[n].blocks {
				t.Fatalf("%s: rebuild changed the blocking bit", n.name())
			}
		}
		// The summary-driven pass must survive arbitrary input.
		runCtxflow(p)
	})
}
