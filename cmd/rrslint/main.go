// Command rrslint runs the project-specific static analysis suite
// (internal/lint) over this module: the AST checks floatcmp,
// parpolicy, seedrand, errdrop and mapordered, and the interprocedural
// passes ctxflow and detflow (determinism taint). It is part of the
// scripts/check.sh verification gate.
//
// Usage:
//
//	rrslint [-format text|json|sarif] [-checks a,b,-c] [-list] [packages]
//
// Package patterns are module-relative directories; "./..." (the
// default) lints the whole module, "./internal/fft" one package,
// "./internal/..." a subtree. -checks entries prefixed with "-"
// exclude a check instead of including one. -json is shorthand for
// -format=json, whose object carries the findings (sorted by file,
// line, column, check) plus a per-check timing breakdown; -format=sarif
// emits SARIF 2.1.0 for code-scanning upload. Exit status: 0 clean,
// 1 findings, 2 usage or load error; a pattern that matches no package
// is a load error.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"

	"roughsurface/internal/lint"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("rrslint", flag.ContinueOnError)
	fs.SetOutput(stderr)
	jsonOut := fs.Bool("json", false, "shorthand for -format=json")
	format := fs.String("format", "text", "output format: text, json (findings + timing), or sarif")
	checksFlag := fs.String("checks", "", "comma-separated checks to run; prefix a name with - to exclude it")
	list := fs.Bool("list", false, "list available checks and exit")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *jsonOut {
		*format = "json"
	}
	switch *format {
	case "text", "json", "sarif":
	default:
		fmt.Fprintf(stderr, "rrslint: unknown -format %q (want text, json, or sarif)\n", *format)
		return 2
	}
	if *list {
		for _, line := range lint.CheckNames() {
			fmt.Fprintln(stdout, line)
		}
		return 0
	}

	cwd, err := os.Getwd()
	if err != nil {
		fmt.Fprintln(stderr, "rrslint:", err)
		return 2
	}
	root, err := findModuleRoot(cwd)
	if err != nil {
		fmt.Fprintln(stderr, "rrslint:", err)
		return 2
	}

	patterns := fs.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	dirs, all, err := resolvePatterns(patterns, cwd, root)
	if err != nil {
		fmt.Fprintln(stderr, "rrslint:", err)
		return 2
	}
	if all {
		dirs = nil
	}

	var checks []string
	if *checksFlag != "" {
		checks = strings.Split(*checksFlag, ",")
	}

	res, err := lint.RunTimed(lint.Config{Root: root, Dirs: dirs, Checks: checks})
	if err != nil {
		fmt.Fprintln(stderr, "rrslint:", err)
		return 2
	}
	diags := res.Diagnostics
	if diags == nil {
		diags = []lint.Diagnostic{}
	}

	switch *format {
	case "json":
		out := struct {
			Findings []lint.Diagnostic  `json:"findings"`
			Timing   []lint.CheckTiming `json:"timing"`
		}{Findings: diags, Timing: res.Timing}
		if err := json.NewEncoder(stdout).Encode(out); err != nil {
			fmt.Fprintln(stderr, "rrslint:", err)
			return 2
		}
	case "sarif":
		if err := writeSARIF(stdout, diags); err != nil {
			fmt.Fprintln(stderr, "rrslint:", err)
			return 2
		}
	default:
		for _, d := range diags {
			fmt.Fprintln(stdout, d)
		}
	}
	if len(diags) > 0 {
		return 1
	}
	return 0
}

// SARIF 2.1.0, the minimal subset code-scanning upload consumes: one
// run, one rule per registered check, one result per finding.
type sarifLog struct {
	Schema  string     `json:"$schema"`
	Version string     `json:"version"`
	Runs    []sarifRun `json:"runs"`
}

type sarifRun struct {
	Tool    sarifTool     `json:"tool"`
	Results []sarifResult `json:"results"`
}

type sarifTool struct {
	Driver sarifDriver `json:"driver"`
}

type sarifDriver struct {
	Name  string      `json:"name"`
	Rules []sarifRule `json:"rules"`
}

type sarifRule struct {
	ID               string       `json:"id"`
	ShortDescription sarifMessage `json:"shortDescription"`
}

type sarifMessage struct {
	Text string `json:"text"`
}

type sarifResult struct {
	RuleID    string          `json:"ruleId"`
	Level     string          `json:"level"`
	Message   sarifMessage    `json:"message"`
	Locations []sarifLocation `json:"locations"`
}

type sarifLocation struct {
	PhysicalLocation sarifPhysical `json:"physicalLocation"`
}

type sarifPhysical struct {
	ArtifactLocation sarifArtifact `json:"artifactLocation"`
	Region           sarifRegion   `json:"region"`
}

type sarifArtifact struct {
	URI string `json:"uri"`
}

type sarifRegion struct {
	StartLine   int `json:"startLine"`
	StartColumn int `json:"startColumn"`
}

func writeSARIF(w io.Writer, diags []lint.Diagnostic) error {
	var rules []sarifRule
	for _, c := range lint.Checks() {
		rules = append(rules, sarifRule{ID: c.Name, ShortDescription: sarifMessage{Text: c.Doc}})
	}
	results := make([]sarifResult, 0, len(diags))
	for _, d := range diags {
		results = append(results, sarifResult{
			RuleID:  d.Check,
			Level:   "warning",
			Message: sarifMessage{Text: d.Message},
			Locations: []sarifLocation{{
				PhysicalLocation: sarifPhysical{
					ArtifactLocation: sarifArtifact{URI: d.File},
					Region:           sarifRegion{StartLine: d.Line, StartColumn: d.Col},
				},
			}},
		})
	}
	log := sarifLog{
		Schema:  "https://json.schemastore.org/sarif-2.1.0.json",
		Version: "2.1.0",
		Runs: []sarifRun{{
			Tool:    sarifTool{Driver: sarifDriver{Name: "rrslint", Rules: rules}},
			Results: results,
		}},
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(log)
}

// findModuleRoot walks up from dir to the directory containing go.mod.
func findModuleRoot(dir string) (string, error) {
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", fmt.Errorf("no go.mod found above %s", dir)
		}
		dir = parent
	}
}

// resolvePatterns converts CLI package patterns into module-relative
// directory selectors for lint.Config.Dirs. The boolean reports
// whether the whole module was selected.
func resolvePatterns(patterns []string, cwd, root string) ([]string, bool, error) {
	var dirs []string
	for _, pat := range patterns {
		sub, recursive := strings.CutSuffix(pat, "...")
		sub = strings.TrimSuffix(sub, "/")
		if sub == "." || sub == "" {
			sub = cwd
		} else if !filepath.IsAbs(sub) {
			sub = filepath.Join(cwd, sub)
		}
		rel, err := filepath.Rel(root, sub)
		if err != nil || rel == ".." || strings.HasPrefix(rel, ".."+string(filepath.Separator)) {
			return nil, false, fmt.Errorf("pattern %q is outside module root %s", pat, root)
		}
		if rel == "." {
			rel = ""
		}
		rel = filepath.ToSlash(rel)
		if recursive {
			if rel == "" {
				return nil, true, nil // whole module
			}
			dirs = append(dirs, rel+"/...")
		} else {
			dirs = append(dirs, rel)
		}
	}
	return dirs, false, nil
}
