package lint

// White-box tests for the determinism-taint engine (taint.go): return
// taint, sanitizers and sink-through-callee summaries — plus FuzzTaint,
// which asserts the engine's invariants on arbitrary parseable input
// and that detflow survives it.

import "testing"

func TestTaintReturnPropagation(t *testing.T) {
	p := parsePass(t, `package p
import "time"
func stamp() string { return time.Now().String() }
func indirect() string { return stamp() }
func fixed() string { return "v1" }
`)
	s := p.summaries()
	for _, name := range []string{"stamp", "indirect"} {
		sum := declSummary(t, s, name)
		if len(sum.taintRets) != 1 || sum.taintRets[0] == nil || sum.taintRets[0].fact == nil {
			t.Errorf("%s: taintRets = %v, want one tainted result", name, sum.taintRets)
		}
	}
	if sum := declSummary(t, s, "fixed"); len(sum.taintRets) == 1 && sum.taintRets[0] != nil {
		t.Errorf("fixed: spurious return taint %v", sum.taintRets[0])
	}
}

func TestTaintSanitizerClears(t *testing.T) {
	// The source is os.Getenv; the point is the sanitizer model — a
	// variable that passes through sort.* never reports.
	p := parsePass(t, `package p
import (
	"crypto/sha256"
	"os"
	"sort"
	"strings"
)
func dirty() [32]byte {
	keys := strings.Split(os.Getenv("RRS"), ",")
	return sha256.Sum256([]byte(strings.Join(keys, "+")))
}
func cleaned() [32]byte {
	keys := strings.Split(os.Getenv("RRS"), ",")
	sort.Strings(keys)
	return sha256.Sum256([]byte(strings.Join(keys, "+")))
}
`)
	runDetflow(p)
	if len(*p.diags) != 1 {
		t.Fatalf("got %d findings, want 1 (dirty only): %v", len(*p.diags), *p.diags)
	}
	if (*p.diags)[0].Line != 10 {
		t.Errorf("finding at line %d, want 10 (dirty's hash)", (*p.diags)[0].Line)
	}
}

func TestTaintSinkParamsSummary(t *testing.T) {
	p := parsePass(t, `package p
import "crypto/sha256"
func digest(b []byte) [32]byte { return sha256.Sum256(b) }
func relay(b []byte) [32]byte { return digest(b) }
func pure(b []byte) int { return len(b) }
`)
	s := p.summaries()
	for _, name := range []string{"digest", "relay"} {
		sum := declSummary(t, s, name)
		if ref, ok := sum.sinkParams[0]; !ok || ref.what != "hash input" {
			t.Errorf("%s: sinkParams = %v, want param 0 -> hash input", name, sum.sinkParams)
		}
	}
	if sum := declSummary(t, s, "pure"); len(sum.sinkParams) != 0 {
		t.Errorf("pure: spurious sinkParams %v", sum.sinkParams)
	}
}

// checkTaintInvariants asserts what the taint fixpoint guarantees for
// any parseable input.
func checkTaintInvariants(tb testing.TB, s *summaries) {
	tb.Helper()
	for _, n := range s.graph.nodes {
		sum := s.by[n]
		for i, v := range sum.taintRets {
			if v == nil {
				continue
			}
			if v.fact == nil && len(v.params) == 0 {
				tb.Fatalf("%s: result %d tainted by nothing", n.name(), i)
			}
			if v.fact != nil && v.fact.why == "" {
				tb.Fatalf("%s: result %d has an empty witness", n.name(), i)
			}
		}
		for pi, ref := range sum.sinkParams {
			if pi < 0 || ref.what == "" {
				tb.Fatalf("%s: malformed sinkParams entry %d -> %q", n.name(), pi, ref.what)
			}
		}
		if env := s.taintEnvs[n]; env != nil {
			for _, f := range env.findings {
				if !f.pos.IsValid() || f.msg == "" {
					tb.Fatalf("%s: finding without position or message", n.name())
				}
			}
		}
	}
}

func FuzzTaint(f *testing.F) {
	seeds := []string{
		"package p\nfunc f() {}\n",
		"package p\nimport \"crypto/sha256\"\nfunc f(m map[string]int) {\n\ts := \"\"\n\tfor k := range m {\n\t\ts += k\n\t}\n\tsha256.Sum256([]byte(s))\n}\n",
		"package p\nimport \"time\"\nfunc stamp() string { return time.Now().String() }\nfunc g() string { return stamp() }\n",
		"package p\nimport (\n\t\"crypto/sha256\"\n\t\"sort\"\n)\nfunc f(ks []string) { sort.Strings(ks); sha256.Sum256([]byte(ks[0])) }\n",
		"package p\nimport \"os\"\nfunc key() string { return cacheKey(os.Getenv(\"X\")) }\nfunc cacheKey(s string) string { return s }\n",
		"package p\nfunc f(v []float64) float64 {\n\ts := 0.0\n\tgo func() { s += v[0] }()\n\treturn s\n}\n",
		"package p\nvar total float64\nfunc bump(v float64) { total += v }\nfunc launch() { par.Dynamic(4, 2, bump) }\n",
		"package p\nfunc addTo(p *float64, v float64) { *p += v }\nfunc f(v []float64) {\n\tacc := 0.0\n\tpar.For(4, 2, func(lo, hi int) { addTo(&acc, v[lo]) })\n}\n",
		"package p\nimport \"encoding/json\"\nfunc f(a, b chan int) {\n\tvar x int\n\tselect {\n\tcase x = <-a:\n\tcase x = <-b:\n\t}\n\tjson.Marshal(x)\n}\n",
		"package p\nfunc a() string { return b() }\nfunc b() string { return a() }\n",
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
		checkTaintInvariants(t, s)
		// Rebuilding must reproduce the same findings and summaries.
		again := buildSummaries(p)
		for _, n := range s.graph.nodes {
			m := again.graph.byDecl[n.decl]
			if m == nil {
				t.Fatalf("%s: lost on rebuild", n.name())
			}
			if len(again.by[m].taintRets) != len(s.by[n].taintRets) ||
				len(again.by[m].sinkParams) != len(s.by[n].sinkParams) {
				t.Fatalf("%s: rebuild changed the taint summary", n.name())
			}
			a, b := s.taintEnvs[n], again.taintEnvs[m]
			if (a == nil) != (b == nil) || (a != nil && len(a.findings) != len(b.findings)) {
				t.Fatalf("%s: rebuild changed the findings", n.name())
			}
		}
		// The taint pass must survive arbitrary input.
		runDetflow(p)
	})
}
