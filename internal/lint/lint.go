// Package lint is rrslint: a project-specific static analysis suite
// for this repository. It enforces invariants the compiler cannot see
// but the paper's statistics depend on. Five checks walk the AST:
//
//	floatcmp     — no exact ==/!= between float or complex values
//	parpolicy    — parallel fan-out only via internal/par
//	seedrand     — math/rand only inside internal/rng (reproducibility)
//	errdrop      — no discarded errors from this module's own APIs
//	mapordered   — no order-dependent work inside map iteration
//
// Two are interprocedural: they run over per-function effect summaries
// (summary.go) propagated bottom-up in SCC order across a package-level
// call graph (callgraph.go), so a park reached or a tainted value
// returned three helpers deep is still visible at the caller:
//
//	ctxflow      — request-path blocking always has a threaded
//	               context.Context; no dropped or severed contexts
//	detflow      — nondeterminism sources (map order, time, global
//	               rand, env, %p, select choice, goroutine write
//	               order) never flow into hashes, cache keys, rng
//	               seeds, sample buffers, or encoded artifacts
//
// detflow guards the property every golden SHA and content-addressed
// ID in this repo rests on; its taint engine is taint.go.
//
// Any single finding can be silenced in source with a justification:
//
//	//lint:ignore <check>[,<check>...] <reason>
//
// placed on the offending line or the line directly above it. A
// directive without a reason, or one naming a check the suite does not
// register, is itself a finding. The suite is stdlib-only (go/ast,
// go/parser, go/types) by design.
package lint

import (
	"fmt"
	"go/token"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strconv"
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
	{"ctxflow", "request-path blocking without an accepted and threaded context.Context", runCtxflow},
	{"detflow", "nondeterministic value flowing into a hash, key, seed, or encoded artifact", runDetflow},
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

// byName looks a registered check up by name.
func byName(name string) (check, bool) {
	for _, c := range allChecks {
		if c.name == name {
			return c, true
		}
	}
	return check{}, false
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
	fset, std, err := sourceImporter()
	if err != nil {
		return Result{}, err
	}
	l, err := newLoader(cfg.Root, modPath, fset, std)
	if err != nil {
		return Result{}, err
	}
	return l.run(cfg.Dirs, cfg.Checks)
}

// run loads the units under dirs and applies the named checks (nil
// selects all of both), returning surviving diagnostics sorted by
// position plus the per-check timing.
func (l *loader) run(dirs, checks []string) (Result, error) {
	selected, err := selectChecks(checks)
	if err != nil {
		return Result{}, err
	}
	units, err := l.units(dirs)
	if err != nil {
		return Result{}, err
	}
	var diags []Diagnostic
	spent := make([]time.Duration, len(selected))
	for _, u := range units {
		p := &pass{fset: l.fset, root: l.root, modPath: l.modPath, unit: u, diags: &diags}
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
// directives and reports malformed directives, and names that match no
// registered check, as findings of the synthetic "directive" check:
// silencing always carries a reason, and a stale or misspelled name
// fails instead of silencing nothing.
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
					var unknown []string
					for _, name := range strings.Split(m[1], ",") {
						if _, ok := byName(name); !ok {
							unknown = append(unknown, strconv.Quote(name))
							continue
						}
						checks[name] = true
					}
					if len(unknown) > 0 {
						out = append(out, Diagnostic{
							Check: "directive", File: file, Line: pos.Line, Col: pos.Column,
							Message: "directive names unregistered check " + strings.Join(unknown, ", ") + "; a stale or misspelled name silences nothing",
						})
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
