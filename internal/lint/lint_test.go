package lint_test

import (
	"encoding/json"
	"fmt"
	"strings"
	"testing"

	"roughsurface/internal/lint"
)

// fixtureRun returns the findings of one check under one fixture
// directory as "file:line check" strings, plus the directive findings
// there, which a run of any check reports. It reads them from
// lint.FixtureTree: a unit's findings depend only on that unit, so
// each row reads its slice of one run.
func fixtureRun(t *testing.T, dir, check string) []string {
	t.Helper()
	diags, err := lint.FixtureTree()
	if err != nil {
		t.Fatalf("fixture run: %v", err)
	}
	var got []string
	for _, d := range diags {
		if strings.HasPrefix(d.File, dir+"/") && (d.Check == check || d.Check == "directive") {
			got = append(got, fmt.Sprintf("%s:%d %s", d.File, d.Line, d.Check))
		}
	}
	return got
}

// TestChecks drives every check over a fixture package that violates
// it, asserting the exact findings (and, via the clean fixture, the
// absence of false positives).
func TestChecks(t *testing.T) {
	tests := []struct {
		dir   string
		check string
		want  []string
	}{
		{"floatcmp", "floatcmp", []string{
			"floatcmp/floatcmp.go:5 floatcmp",
			"floatcmp/floatcmp.go:7 floatcmp",
			"floatcmp/floatcmp.go:9 floatcmp",
			"floatcmp/floatcmp.go:11 floatcmp",
			"floatcmp/floatcmp.go:13 floatcmp",
		}},
		{"parpolicy", "parpolicy", []string{
			"parpolicy/parpolicy.go:8 parpolicy",
			"parpolicy/parpolicy.go:11 parpolicy",
		}},
		{"seedrand", "seedrand", []string{
			"seedrand/seedrand.go:7 seedrand",  // import outside internal/rng
			"seedrand/seedrand.go:17 seedrand", // NewSource(time.Now...)
			"seedrand/seedrand.go:22 seedrand", // Seed(time.Now...)
		}},
		// The exempt package: no import finding, but wall-clock seeding
		// is flagged even here.
		{"internal/rng", "seedrand", []string{
			"internal/rng/rng.go:19 seedrand",
		}},
		{"errdrop", "errdrop", []string{
			"errdrop/errdrop.go:12 errdrop",
			"errdrop/errdrop.go:14 errdrop",
			"errdrop/errdrop.go:16 errdrop",
			"errdrop/errdrop.go:18 errdrop",
		}},
		{"mapordered", "mapordered", []string{
			"mapordered/mapordered.go:12 mapordered",
			"mapordered/mapordered.go:28 mapordered",
		}},
		{"ctxflow", "ctxflow", []string{
			"ctxflow/ctxflow.go:32 ctxflow", // blocks on request path, no ctx (needs call graph)
			"ctxflow/ctxflow.go:38 ctxflow", // same, reached through a closure (needs reach edges)
			"ctxflow/ctxflow.go:48 ctxflow", // ctx parameter dropped
			"ctxflow/ctxflow.go:55 ctxflow", // context.Background under a ctx param
			"ctxflow/ctxflow.go:77 ctxflow", // outbound http.NewRequest drops the inbound ctx
		}},
		{"detflow", "detflow", []string{
			"detflow/detflow.go:30 detflow",  // map iteration order into a hash
			"detflow/detflow.go:41 detflow",  // time.Now through a callee's return
			"detflow/detflow.go:48 detflow",  // os.Getenv into key construction
			"detflow/detflow.go:59 detflow",  // %p into rng seeding
			"detflow/detflow.go:72 detflow",  // select branch choice into JSON
			"detflow/detflow.go:88 detflow",  // hash inside a callee (needs sinkParams)
			"detflow/detflow.go:105 detflow", // goroutine write order into a hash
		}},
		// detflow's collect-then-sort negative stays invisible to
		// mapordered.
		{"detflow", "mapordered", nil},
		{"ignore", "floatcmp", []string{
			"ignore/ignore.go:16 floatcmp",
			"ignore/ignore.go:20 directive",
			"ignore/ignore.go:21 floatcmp",
			"ignore/ignore.go:25 directive", // names an unregistered check
		}},
		// buildtag holds a race/!race constant pair: honoring //go:build
		// is what keeps the pair from "redeclaring" in one lint unit.
		{"buildtag", "floatcmp", nil},
		{"clean", "floatcmp", nil},
		{"clean", "parpolicy", nil},
		{"clean", "seedrand", nil},
		{"clean", "errdrop", nil},
		{"clean", "mapordered", nil},
		{"clean", "ctxflow", nil},
		{"clean", "detflow", nil},
	}
	for _, tc := range tests {
		t.Run(tc.dir+"/"+tc.check, func(t *testing.T) {
			got := fixtureRun(t, tc.dir, tc.check)
			if len(got) != len(tc.want) {
				t.Fatalf("got %d findings %v, want %d %v", len(got), got, len(tc.want), tc.want)
			}
			for i := range got {
				if got[i] != tc.want[i] {
					t.Errorf("finding %d: got %q, want %q", i, got[i], tc.want[i])
				}
			}
		})
	}
}

// TestAllChecksOnFixtureTree pins the per-check and total counts of
// the full-suite run (lint.FixtureTree) TestChecks reads its rows from, findings in
// fixture directories no row covers included.
func TestAllChecksOnFixtureTree(t *testing.T) {
	diags, err := lint.FixtureTree()
	if err != nil {
		t.Fatal(err)
	}
	perCheck := map[string]int{}
	for _, d := range diags {
		perCheck[d.Check]++
	}
	want := map[string]int{
		"floatcmp":   7, // 5 in floatcmp fixture + 2 unsilenced in ignore fixture
		"parpolicy":  3, // 2 in parpolicy fixture + 1 in detflow
		"seedrand":   4, // import + 2 time seeds in seedrand fixture, 1 time seed in internal/rng
		"errdrop":    4,
		"mapordered": 2,
		"directive":  2, // one malformed, one naming an unregistered check
		"ctxflow":    5,
		"detflow":    7,
	}
	for check, n := range want {
		if perCheck[check] != n {
			t.Errorf("check %s: got %d findings, want %d (all: %v)", check, perCheck[check], n, diags)
		}
	}
	if len(diags) != 34 {
		t.Errorf("total findings: got %d, want 34: %v", len(diags), diags)
	}
}

// TestExternalTestSeesOneIdentity: an external test package that
// imports its package both directly and through a dependent package
// type-checks, with export_test.go helpers still in scope — the
// dependent is re-checked against the package under test, as the go
// tool recompiles it for the test.
func TestExternalTestSeesOneIdentity(t *testing.T) {
	if got := fixtureRun(t, "xtest", "floatcmp"); len(got) != 0 {
		t.Errorf("findings %v, want none", got)
	}
}

// TestUnknownCheckRejected guards the CLI's -checks plumbing.
func TestUnknownCheckRejected(t *testing.T) {
	_, err := lint.Run(lint.Config{
		Root:    "testdata/src/fixture",
		ModPath: "fixture",
		Checks:  []string{"nosuchcheck"},
	})
	if err == nil {
		t.Fatal("unknown check name accepted")
	}
}

// TestUnmatchedDirsRejected: every Dirs pattern that selects no lint
// unit is named in the error; a pattern that does select one is not.
func TestUnmatchedDirsRejected(t *testing.T) {
	_, err := lint.Run(lint.Config{
		Root:    "testdata/src/fixture",
		ModPath: "fixture",
		Dirs:    []string{"nosuchdir", "clean", "nosuch/..."},
	})
	if err == nil {
		t.Fatal("patterns matching nothing accepted")
	}
	for _, want := range []string{`"nosuchdir"`, `"nosuch/..."`} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("error %q does not name %s", err, want)
		}
	}
	if strings.Contains(err.Error(), `"clean"`) {
		t.Errorf("error %q names a matching pattern", err)
	}
}

// TestDiagnosticJSON pins the JSON shape the CI gate consumes.
func TestDiagnosticJSON(t *testing.T) {
	d := lint.Diagnostic{Check: "floatcmp", File: "a/b.go", Line: 3, Col: 7, Message: "m"}
	out, err := json.Marshal(d)
	if err != nil {
		t.Fatal(err)
	}
	const want = `{"check":"floatcmp","file":"a/b.go","line":3,"col":7,"message":"m"}`
	if string(out) != want {
		t.Errorf("got %s, want %s", out, want)
	}
}

// TestCheckNames pins the registered suite, in registration order.
func TestCheckNames(t *testing.T) {
	want := []string{"floatcmp", "parpolicy", "seedrand", "errdrop", "mapordered", "ctxflow", "detflow"}
	checks := lint.Checks()
	names := lint.CheckNames()
	if len(checks) != len(want) || len(names) != len(want) {
		t.Fatalf("got %d checks (%d names), want %d: %v", len(checks), len(names), len(want), names)
	}
	for i, c := range checks {
		if c.Name != want[i] || !strings.HasPrefix(names[i], c.Name+" ") {
			t.Errorf("check %d: got %q (%q), want %q", i, c.Name, names[i], want[i])
		}
	}
}

// TestChecksExclusion pins the -checks selection rules: a plain name
// includes, "-name" removes from the full suite, mixing includes and
// excludes filters the include list, and selecting nothing or naming
// an unknown check is an error. The floatcmp and parpolicy fixtures
// import nothing heavier than sync, so each Run stays cheap.
func TestChecksExclusion(t *testing.T) {
	run := func(checks []string) ([]lint.Diagnostic, error) {
		return lint.Run(lint.Config{
			Root:    "testdata/src/fixture",
			ModPath: "fixture",
			Dirs:    []string{"floatcmp/...", "parpolicy/..."},
			Checks:  checks,
		})
	}
	all, err := run(nil)
	if err != nil {
		t.Fatal(err)
	}
	without, err := run([]string{"-floatcmp"})
	if err != nil {
		t.Fatal(err)
	}
	if want := len(all) - 5; len(without) != want {
		t.Errorf("excluding floatcmp: got %d findings, want %d", len(without), want)
	}
	for _, d := range without {
		if d.Check == "floatcmp" {
			t.Errorf("excluded check still reported: %v", d)
		}
	}
	mixed, err := run([]string{"floatcmp", "parpolicy", "-floatcmp"})
	if err != nil {
		t.Fatal(err)
	}
	if len(mixed) != 2 {
		t.Errorf("include+exclude: got %d findings, want 2 (parpolicy only): %v", len(mixed), mixed)
	}
	if _, err := run([]string{"parpolicy", "-parpolicy"}); err == nil {
		t.Error("empty selection accepted")
	}
	if _, err := run([]string{"-nosuchcheck"}); err == nil {
		t.Error("unknown excluded check accepted")
	}
}

// TestRunTimed pins the timing breakdown the CI artifact carries: one
// entry per selected check, sorted by name, non-negative.
func TestRunTimed(t *testing.T) {
	res, err := lint.RunTimed(lint.Config{
		Root:    "testdata/src/fixture",
		ModPath: "fixture",
		Dirs:    []string{"clean/..."},
	})
	if err != nil {
		t.Fatal(err)
	}
	if want := len(lint.Checks()); len(res.Timing) != want {
		t.Fatalf("got %d timing entries, want %d: %v", len(res.Timing), want, res.Timing)
	}
	for i, ct := range res.Timing {
		if ct.Millis < 0 {
			t.Errorf("check %s: negative timing %v", ct.Check, ct.Millis)
		}
		if i > 0 && res.Timing[i-1].Check >= ct.Check {
			t.Errorf("timing not sorted by check: %q before %q", res.Timing[i-1].Check, ct.Check)
		}
	}
}
