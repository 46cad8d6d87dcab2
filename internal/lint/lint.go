// Package lint is rrslint: a project-specific static analysis suite
// for this repository. It enforces invariants the compiler cannot see
// but the paper's statistics depend on:
//
//	floatcmp     — no exact ==/!= between float or complex values
//	parpolicy    — parallel fan-out only via internal/par
//	seedrand     — math/rand only inside internal/rng (reproducibility)
//	errdrop      — no discarded errors from this module's own APIs
//	mapordered   — no order-dependent work inside map iteration
//
// Three passes run dataflow over a control-flow graph (cfg.go) instead
// of walking the AST, because their invariants are path properties:
//
//	poolbalance  — sync.Pool.Get balanced by Put on every non-panic path
//	retainescape — Into/GenerateAt destination buffers never retained
//	goleak       — goroutines joined on every path out of their launcher
//
// Three more are interprocedural: they run over per-function effect
// summaries (summary.go) propagated bottom-up in SCC order across a
// package-level call graph (callgraph.go), so a lock acquired, a park
// reached, or a status written three helpers deep is still visible at
// the caller:
//
//	lockbalance  — locks released on every non-panic path, never
//	               blocked on while held, never re-acquired
//	ctxflow      — request-path blocking always has a threaded
//	               context.Context; no dropped or severed contexts
//	httpwrite    — every handler path writes exactly one status and
//	               no body after an error
//
// Two more track determinism, the property every golden SHA and
// content-addressed ID in this repo rests on, over the same summary
// substrate (taint.go):
//
//	detflow      — nondeterminism sources (map order, time, global
//	               rand, env, %p, select choice, goroutine write
//	               order) never flow into hashes, cache keys, rng
//	               seeds, sample buffers, or encoded artifacts
//	floatreduce  — no floating-point accumulation whose summation
//	               order depends on worker count or scheduling
//
// Any single finding can be silenced in source with a justification:
//
//	//lint:ignore <check>[,<check>...] <reason>
//
// placed on the offending line or the line directly above it. The
// suite is stdlib-only (go/ast, go/parser, go/types) by design.
package lint

import (
	"fmt"
	"go/token"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
	"time"
)

// Diagnostic is one finding, addressed by module-relative file path.
type Diagnostic struct {
	Check   string `json:"check"`
	File    string `json:"file"`
	Line    int    `json:"line"`
	Col     int    `json:"col"`
	Message string `json:"message"`
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d:%d: %s: %s", d.File, d.Line, d.Col, d.Check, d.Message)
}

// Config selects what Run analyzes.
type Config struct {
	Root    string   // module root directory
	ModPath string   // module path; read from Root/go.mod when empty
	Dirs    []string // module-relative dirs ("x", "x/..."), each must match a unit; nil = all
	Checks  []string // check names to run; nil = all
}

// check is one registered analysis.
type check struct {
	name string
	doc  string
	run  func(*pass)
}

var allChecks = []check{
	{"floatcmp", "exact ==/!= between floating-point or complex values", runFloatcmp},
	{"parpolicy", "goroutine fan-out outside internal/par", runParpolicy},
	{"seedrand", "math/rand usage outside internal/rng", runSeedrand},
	{"errdrop", "discarded error results from module-internal APIs", runErrdrop},
	{"mapordered", "order-dependent work inside map iteration", runMapordered},
	{"poolbalance", "sync.Pool.Get without a matching Put on some non-panic path", runPoolbalance},
	{"retainescape", "caller-owned Into/GenerateAt buffer retained beyond the call", runRetainescape},
	{"goleak", "goroutine without a join on every path out of its launcher", runGoleak},
	{"lockbalance", "mutex left locked on some path, blocked on, or re-acquired through a callee", runLockbalance},
	{"ctxflow", "request-path blocking without an accepted and threaded context.Context", runCtxflow},
	{"httpwrite", "handler path with zero, double, or post-error HTTP status/body writes", runHttpwrite},
	{"detflow", "nondeterministic value flowing into a hash, key, seed, or encoded artifact", runDetflow},
	{"floatreduce", "floating-point accumulation whose summation order depends on scheduling", runFloatreduce},
}

// CheckNames lists every registered check with its one-line doc.
func CheckNames() []string {
	out := make([]string, len(allChecks))
	for i, c := range allChecks {
		out[i] = fmt.Sprintf("%-12s %s", c.name, c.doc)
	}
	return out
}

// CheckInfo is one registered check, for tool output (SARIF rules).
type CheckInfo struct {
	Name string
	Doc  string
}

// Checks returns the registered suite in registration order.
func Checks() []CheckInfo {
	out := make([]CheckInfo, len(allChecks))
	for i, c := range allChecks {
		out[i] = CheckInfo{Name: c.name, Doc: c.doc}
	}
	return out
}

// pass is the per-unit state handed to each check.
type pass struct {
	fset    *token.FileSet
	root    string
	modPath string
	unit    *Unit
	diags   *[]Diagnostic
	sums    *summaries // lazily built per unit; see summary.go
}

// reportf records a finding at pos.
func (p *pass) reportf(pos token.Pos, check, format string, args ...any) {
	position := p.fset.Position(pos)
	file := position.Filename
	if rel, err := filepath.Rel(p.root, file); err == nil {
		file = filepath.ToSlash(rel)
	}
	*p.diags = append(*p.diags, Diagnostic{
		Check:   check,
		File:    file,
		Line:    position.Line,
		Col:     position.Column,
		Message: fmt.Sprintf(format, args...),
	})
}

// ModulePath reads the module path from root/go.mod.
func ModulePath(root string) (string, error) {
	data, err := os.ReadFile(filepath.Join(root, "go.mod"))
	if err != nil {
		return "", err
	}
	m := regexp.MustCompile(`(?m)^module\s+(\S+)`).FindSubmatch(data)
	if m == nil {
		return "", fmt.Errorf("lint: no module directive in %s/go.mod", root)
	}
	return string(m[1]), nil
}

// CheckTiming records the wall-clock cost of one check across all
// analyzed units, for the findings artifact CI uploads.
type CheckTiming struct {
	Check  string  `json:"check"`
	Millis float64 `json:"ms"`
}

// Result is what RunTimed returns: the surviving diagnostics plus the
// per-check timing breakdown (sorted by check name).
type Result struct {
	Diagnostics []Diagnostic
	Timing      []CheckTiming
}

// Run loads every selected package and applies the selected checks,
// returning surviving diagnostics sorted by position.
func Run(cfg Config) ([]Diagnostic, error) {
	res, err := RunTimed(cfg)
	if err != nil {
		return nil, err
	}
	return res.Diagnostics, nil
}

// RunTimed is Run plus the per-check timing breakdown.
func RunTimed(cfg Config) (Result, error) {
	modPath := cfg.ModPath
	if modPath == "" {
		var err error
		if modPath, err = ModulePath(cfg.Root); err != nil {
			return Result{}, err
		}
	}
	selected, err := selectChecks(cfg.Checks)
	if err != nil {
		return Result{}, err
	}
	l, err := newLoader(cfg.Root, modPath)
	if err != nil {
		return Result{}, err
	}
	units, err := l.units(cfg.Dirs)
	if err != nil {
		return Result{}, err
	}
	var diags []Diagnostic
	spent := make([]time.Duration, len(selected))
	for _, u := range units {
		p := &pass{fset: l.fset, root: l.root, modPath: modPath, unit: u, diags: &diags}
		for i, c := range selected {
			start := time.Now()
			c.run(p)
			spent[i] += time.Since(start)
		}
	}
	diags = applyIgnores(l, units, diags)
	sort.Slice(diags, func(i, j int) bool {
		a, b := diags[i], diags[j]
		if a.File != b.File {
			return a.File < b.File
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		if a.Col != b.Col {
			return a.Col < b.Col
		}
		return a.Check < b.Check
	})
	timing := make([]CheckTiming, len(selected))
	for i, c := range selected {
		timing[i] = CheckTiming{Check: c.name, Millis: float64(spent[i].Microseconds()) / 1000}
	}
	sort.Slice(timing, func(i, j int) bool { return timing[i].Check < timing[j].Check })
	return Result{Diagnostics: diags, Timing: timing}, nil
}

// selectChecks resolves a -checks list. Plain names include; names
// prefixed with "-" exclude. With only exclusions the baseline is every
// registered check; any include makes the list explicit first.
func selectChecks(names []string) ([]check, error) {
	if len(names) == 0 {
		return allChecks, nil
	}
	byName := func(name string) (check, bool) {
		for _, c := range allChecks {
			if c.name == name {
				return c, true
			}
		}
		return check{}, false
	}
	var includes []check
	excluded := map[string]bool{}
	for _, name := range names {
		if bare, isExcl := strings.CutPrefix(name, "-"); isExcl {
			if _, ok := byName(bare); !ok {
				return nil, fmt.Errorf("lint: unknown check %q", bare)
			}
			excluded[bare] = true
			continue
		}
		c, ok := byName(name)
		if !ok {
			return nil, fmt.Errorf("lint: unknown check %q", name)
		}
		includes = append(includes, c)
	}
	base := includes
	if len(base) == 0 {
		base = allChecks
	}
	var out []check
	for _, c := range base {
		if !excluded[c.name] {
			out = append(out, c)
		}
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("lint: -checks selects no checks")
	}
	return out, nil
}

// ignoreRe matches a well-formed directive: check name(s), then a
// non-empty justification.
var ignoreRe = regexp.MustCompile(`^//lint:ignore\s+([\w,]+)\s+(\S.*)$`)

// ignoreDirective is one parsed //lint:ignore comment.
type ignoreDirective struct {
	checks map[string]bool
	line   int
}

// applyIgnores drops diagnostics suppressed by //lint:ignore
// directives and reports malformed directives as findings of the
// synthetic "directive" check, so silencing always carries a reason.
func applyIgnores(l *loader, units []*Unit, diags []Diagnostic) []Diagnostic {
	perFile := map[string][]ignoreDirective{}
	var out []Diagnostic
	for _, u := range units {
		for _, f := range u.Files {
			for _, cg := range f.Comments {
				for _, c := range cg.List {
					if !strings.HasPrefix(c.Text, "//lint:ignore") {
						continue
					}
					pos := l.fset.Position(c.Pos())
					file := pos.Filename
					if rel, err := filepath.Rel(l.root, file); err == nil {
						file = filepath.ToSlash(rel)
					}
					m := ignoreRe.FindStringSubmatch(c.Text)
					if m == nil {
						out = append(out, Diagnostic{
							Check: "directive", File: file, Line: pos.Line, Col: pos.Column,
							Message: "malformed directive: want //lint:ignore <check>[,<check>] <reason>",
						})
						continue
					}
					checks := map[string]bool{}
					for _, name := range strings.Split(m[1], ",") {
						checks[name] = true
					}
					perFile[file] = append(perFile[file], ignoreDirective{checks: checks, line: pos.Line})
				}
			}
		}
	}
	for _, d := range diags {
		suppressed := false
		for _, ig := range perFile[d.File] {
			if ig.checks[d.Check] && (ig.line == d.Line || ig.line == d.Line-1) {
				suppressed = true
				break
			}
		}
		if !suppressed {
			out = append(out, d)
		}
	}
	return out
}
