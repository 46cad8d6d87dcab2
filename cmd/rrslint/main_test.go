package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"roughsurface/internal/lint"
)

func TestListChecks(t *testing.T) {
	var out, errb bytes.Buffer
	if code := run([]string{"-list"}, &out, &errb); code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, errb.String())
	}
	lines := strings.Split(strings.TrimSuffix(out.String(), "\n"), "\n")
	checks := lint.Checks()
	if len(lines) != len(checks) {
		t.Fatalf("-list printed %d lines, want one per check (%d):\n%s", len(lines), len(checks), out.String())
	}
	for i, c := range checks {
		if !strings.HasPrefix(lines[i], c.Name+" ") {
			t.Errorf("-list line %d = %q, want check %q", i, lines[i], c.Name)
		}
	}
}

func TestBadFlagExitsUsage(t *testing.T) {
	var out, errb bytes.Buffer
	if code := run([]string{"-no-such-flag"}, &out, &errb); code != 2 {
		t.Errorf("bad flag exit %d, want 2", code)
	}
}

func TestUnknownCheckExitsError(t *testing.T) {
	var out, errb bytes.Buffer
	if code := run([]string{"-checks", "nope", "./."}, &out, &errb); code != 2 {
		t.Errorf("unknown check exit %d, want 2 (stderr: %s)", code, errb.String())
	}
}

// jsonOutput mirrors the -format=json object.
type jsonOutput struct {
	Findings []lint.Diagnostic  `json:"findings"`
	Timing   []lint.CheckTiming `json:"timing"`
}

// decodeJSON parses CLI JSON output and sanity-checks the timing
// breakdown every invocation must carry.
func decodeJSON(t *testing.T, data []byte, wantChecks int) jsonOutput {
	t.Helper()
	var out jsonOutput
	if err := json.Unmarshal(data, &out); err != nil {
		t.Fatalf("JSON output invalid: %v\n%s", err, data)
	}
	if len(out.Timing) != wantChecks {
		t.Errorf("timing entries: got %d, want %d (%v)", len(out.Timing), wantChecks, out.Timing)
	}
	for i, ct := range out.Timing {
		if ct.Millis < 0 {
			t.Errorf("check %s: negative timing", ct.Check)
		}
		if i > 0 && out.Timing[i-1].Check >= ct.Check {
			t.Errorf("timing not sorted: %q before %q", out.Timing[i-1].Check, ct.Check)
		}
	}
	return out
}

// TestRepoIsLintClean is the gate every change maintains: the module's
// own tree must produce zero findings under every registered check.
func TestRepoIsLintClean(t *testing.T) {
	if testing.Short() {
		t.Skip("type-checks the whole module")
	}
	cwd, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	root, err := findModuleRoot(cwd)
	if err != nil {
		t.Fatal(err)
	}
	var out, errb bytes.Buffer
	if code := run([]string{"-json", root + "/..."}, &out, &errb); code != 0 {
		t.Fatalf("rrslint exit %d on own tree\nstdout: %s\nstderr: %s",
			code, out.String(), errb.String())
	}
	res := decodeJSON(t, out.Bytes(), len(lint.Checks()))
	if len(res.Findings) != 0 {
		t.Errorf("own tree has %d findings", len(res.Findings))
	}
}

// chdir moves the process into dir for the duration of the test; the
// CLI resolves patterns against os.Getwd, so these tests are not
// parallel-safe and do not call t.Parallel.
func chdir(t *testing.T, dir string) {
	t.Helper()
	old, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Chdir(dir); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		if err := os.Chdir(old); err != nil {
			t.Fatal(err)
		}
	})
}

// writeModule lays out a throwaway module and returns its root.
func writeModule(t *testing.T, files map[string]string) string {
	t.Helper()
	dir := t.TempDir()
	files["go.mod"] = "module tmpfixture\n\ngo 1.22\n"
	for name, src := range files {
		if err := os.WriteFile(filepath.Join(dir, name), []byte(src), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return dir
}

// dirtySrc trips four AST checks: seedrand (the import), floatcmp,
// parpolicy and errdrop (Save's error dropped in Drop).
const dirtySrc = `package tmpfixture

import "math/rand"

func Same(a, b float64) bool {
	return a == b
}

func Orphan(fn func()) {
	go fn()
}

func Roll() int {
	return rand.Intn(6)
}

func Save() error { return nil }

func Drop() {
	Save()
}
`

// silencedSrc is dirtySrc with the floatcmp, parpolicy and seedrand
// findings silenced in source.
const silencedSrc = `package tmpfixture

import "math/rand" //lint:ignore seedrand test fixture: the global source is deliberate

func Same(a, b float64) bool {
	//lint:ignore floatcmp test fixture: exactness is deliberate
	return a == b
}

func Orphan(fn func()) {
	//lint:ignore parpolicy test fixture: the raw goroutine is deliberate
	go fn()
}

func Roll() int {
	return rand.Intn(6)
}

func Save() error { return nil }

func Drop() {
	Save()
}
`

// selected is the -checks list the fixed-module tests run: three
// checks that all fire on dirtySrc.
const selected = "floatcmp,parpolicy,seedrand"

// TestNewPassesExitCode drives the CLI over a module where all three
// selected checks fire: exit 1, each check named in the JSON findings.
func TestNewPassesExitCode(t *testing.T) {
	chdir(t, writeModule(t, map[string]string{"dirty.go": dirtySrc}))
	var out, errb bytes.Buffer
	code := run([]string{"-checks", selected, "-json", "./..."}, &out, &errb)
	if code != 1 {
		t.Fatalf("exit %d, want 1\nstdout: %s\nstderr: %s", code, out.String(), errb.String())
	}
	res := decodeJSON(t, out.Bytes(), 3)
	got := map[string]int{}
	for _, d := range res.Findings {
		got[d.Check]++
	}
	for _, check := range strings.Split(selected, ",") {
		if got[check] == 0 {
			t.Errorf("check %s: no finding in %v", check, res.Findings)
		}
	}
}

// TestNewPassesHonorIgnore is the same module with every finding
// silenced by //lint:ignore: exit 0, empty JSON array.
func TestNewPassesHonorIgnore(t *testing.T) {
	chdir(t, writeModule(t, map[string]string{"dirty.go": silencedSrc}))
	var out, errb bytes.Buffer
	code := run([]string{"-checks", selected, "-json", "./..."}, &out, &errb)
	if code != 0 {
		t.Fatalf("exit %d, want 0\nstdout: %s\nstderr: %s", code, out.String(), errb.String())
	}
	res := decodeJSON(t, out.Bytes(), 3)
	if len(res.Findings) != 0 {
		t.Errorf("silenced module still has findings: %v", res.Findings)
	}
}

// TestSelfCheckExcludesTestdata pins that linting internal/lint itself
// is clean: the fixture tree under testdata (full of deliberate
// violations) must not leak into the real-package findings.
func TestSelfCheckExcludesTestdata(t *testing.T) {
	var out, errb bytes.Buffer
	if code := run([]string{"-json", "../../internal/lint"}, &out, &errb); code != 0 {
		t.Fatalf("exit %d on internal/lint\nstdout: %s\nstderr: %s",
			code, out.String(), errb.String())
	}
	res := decodeJSON(t, out.Bytes(), len(lint.Checks()))
	if len(res.Findings) != 0 {
		t.Errorf("internal/lint has %d findings (testdata leaking in?): %v", len(res.Findings), res.Findings)
	}
}

// TestJSONGolden pins the -format=json findings bytes on a fixed
// module: deterministic content AND deterministic order, so CI diffs
// of the findings artifact stay reviewable. Timing is asserted
// structurally (it cannot be byte-stable) and stripped before the
// golden comparison.
func TestJSONGolden(t *testing.T) {
	chdir(t, writeModule(t, map[string]string{"dirty.go": dirtySrc}))
	runOnce := func() []byte {
		var out, errb bytes.Buffer
		if code := run([]string{"-checks", selected, "-format", "json", "./..."}, &out, &errb); code != 1 {
			t.Fatalf("exit %d, want 1\nstderr: %s", code, errb.String())
		}
		res := decodeJSON(t, out.Bytes(), 3)
		findings, err := json.Marshal(res.Findings)
		if err != nil {
			t.Fatal(err)
		}
		return findings
	}
	got := runOnce()
	const golden = `[` +
		`{"check":"seedrand","file":"dirty.go","line":3,"col":8,"message":"math/rand outside internal/rng; draw variates from internal/rng so seeds stay reproducible"},` +
		`{"check":"floatcmp","file":"dirty.go","line":6,"col":11,"message":"exact == between floating-point/complex values; compare against a tolerance instead"},` +
		`{"check":"parpolicy","file":"dirty.go","line":10,"col":2,"message":"raw go statement outside internal/par; route fan-out through par.For/par.ForEach"}` +
		`]`
	if string(got) != golden {
		t.Errorf("findings drifted from golden:\n got: %s\nwant: %s", got, golden)
	}
	if again := runOnce(); !bytes.Equal(got, again) {
		t.Errorf("findings not deterministic across runs:\n%s\nvs\n%s", got, again)
	}
}

// TestSARIFOutput pins the SARIF envelope that cmd/rrslint/sarif makes
// of a -json report: schema, one rule per registered check, one result
// per finding with a physical location.
func TestSARIFOutput(t *testing.T) {
	chdir(t, writeModule(t, map[string]string{"dirty.go": dirtySrc}))
	var report, errb bytes.Buffer
	if code := run([]string{"-checks", selected, "-json", "./..."}, &report, &errb); code != 1 {
		t.Fatalf("exit %d, want 1\nstderr: %s", code, errb.String())
	}
	// cmd/rrslint/sarif's conversion.
	var res lint.Result
	if err := json.Unmarshal(report.Bytes(), &res); err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	if err := lint.WriteSARIF(&out, res.Diagnostics); err != nil {
		t.Fatal(err)
	}
	var log struct {
		Version string `json:"version"`
		Runs    []struct {
			Tool struct {
				Driver struct {
					Name  string `json:"name"`
					Rules []struct {
						ID string `json:"id"`
					} `json:"rules"`
				} `json:"driver"`
			} `json:"tool"`
			Results []struct {
				RuleID    string `json:"ruleId"`
				Locations []struct {
					PhysicalLocation struct {
						ArtifactLocation struct {
							URI string `json:"uri"`
						} `json:"artifactLocation"`
						Region struct {
							StartLine int `json:"startLine"`
						} `json:"region"`
					} `json:"physicalLocation"`
				} `json:"locations"`
			} `json:"results"`
		} `json:"runs"`
	}
	if err := json.Unmarshal(out.Bytes(), &log); err != nil {
		t.Fatalf("SARIF output invalid: %v", err)
	}
	if log.Version != "2.1.0" || len(log.Runs) != 1 {
		t.Fatalf("envelope: version %q, %d runs", log.Version, len(log.Runs))
	}
	r := log.Runs[0]
	if want := len(lint.Checks()); r.Tool.Driver.Name != "rrslint" || len(r.Tool.Driver.Rules) != want {
		t.Errorf("driver: name %q, %d rules (want rrslint, %d)", r.Tool.Driver.Name, len(r.Tool.Driver.Rules), want)
	}
	// Every registered rule must be in the SARIF rule table even when
	// the run selects other checks: code scanning keys on rule IDs.
	haveRule := map[string]bool{}
	for _, rule := range r.Tool.Driver.Rules {
		haveRule[rule.ID] = true
	}
	for _, c := range lint.Checks() {
		if !haveRule[c.Name] {
			t.Errorf("SARIF rule table missing %q", c.Name)
		}
	}
	if len(r.Results) != 3 {
		t.Fatalf("results: got %d, want 3", len(r.Results))
	}
	for _, res := range r.Results {
		if res.RuleID == "" || len(res.Locations) != 1 ||
			res.Locations[0].PhysicalLocation.ArtifactLocation.URI != "dirty.go" ||
			res.Locations[0].PhysicalLocation.Region.StartLine == 0 {
			t.Errorf("malformed result: %+v", res)
		}
	}
}

// TestChecksExcludeFlag drives the -checks exclusion syntax end to
// end: the excluded pass stays quiet, the rest still fire.
func TestChecksExcludeFlag(t *testing.T) {
	chdir(t, writeModule(t, map[string]string{"dirty.go": dirtySrc}))
	var out, errb bytes.Buffer
	code := run([]string{"-checks", "-seedrand,-floatcmp", "-json", "./..."}, &out, &errb)
	if code != 1 {
		t.Fatalf("exit %d, want 1\nstderr: %s", code, errb.String())
	}
	res := decodeJSON(t, out.Bytes(), len(lint.Checks())-2)
	for _, d := range res.Findings {
		if d.Check == "seedrand" || d.Check == "floatcmp" {
			t.Errorf("excluded check still reported: %v", d)
		}
	}
	got := map[string]bool{}
	for _, d := range res.Findings {
		got[d.Check] = true
	}
	if !got["parpolicy"] || !got["errdrop"] {
		t.Errorf("non-excluded checks missing from %v", res.Findings)
	}
}

// TestUnmatchedPatternExitsError pins that a pattern selecting no
// package is a load error (exit 2, naming the pattern) in both forms,
// so a mistyped directory in a CI script cannot lint nothing and pass.
func TestUnmatchedPatternExitsError(t *testing.T) {
	chdir(t, writeModule(t, map[string]string{"dirty.go": dirtySrc}))
	for _, args := range [][]string{
		{"./nosuchdir"},
		{"-json", "./nosuch/..."},
	} {
		var out, errb bytes.Buffer
		if code := run(args, &out, &errb); code != 2 {
			t.Errorf("%v: exit %d, want 2\nstdout: %s\nstderr: %s", args, code, out.String(), errb.String())
		}
		pat := strings.TrimPrefix(args[len(args)-1], "./")
		if !strings.Contains(errb.String(), pat) {
			t.Errorf("%v: stderr %q does not name %q", args, errb.String(), pat)
		}
		if out.Len() != 0 {
			t.Errorf("%v: stdout not empty: %s", args, out.String())
		}
	}
}

func TestResolvePatterns(t *testing.T) {
	root := filepath.FromSlash("/mod")
	cwd := filepath.FromSlash("/mod/internal")
	cases := []struct {
		pats []string
		want []string
		all  bool
		err  bool
	}{
		{pats: []string{"./..."}, all: false, want: []string{"internal/..."}},
		{pats: []string{"fft"}, want: []string{"internal/fft"}},
		{pats: []string{"/mod/..."}, all: true},
		{pats: []string{"../../elsewhere"}, err: true},
	}
	for _, c := range cases {
		got, all, err := resolvePatterns(c.pats, cwd, root)
		if c.err {
			if err == nil {
				t.Errorf("%v: want error", c.pats)
			}
			continue
		}
		if err != nil {
			t.Errorf("%v: %v", c.pats, err)
			continue
		}
		if all != c.all {
			t.Errorf("%v: all = %v, want %v", c.pats, all, c.all)
		}
		if strings.Join(got, ",") != strings.Join(c.want, ",") {
			t.Errorf("%v: dirs = %v, want %v", c.pats, got, c.want)
		}
	}
}
