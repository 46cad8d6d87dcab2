package lint_test

import (
	"encoding/json"
	"fmt"
	"strings"
	"sync"
	"testing"

	"roughsurface/internal/lint"
)

// fixtureTree is one lint.Run of every check over the whole fixture
// module, computed once per test binary. A unit's findings depend only
// on that unit, so each (dir, check) row reads its slice of this run
// instead of loading and type-checking the tree again.
var fixtureTree = sync.OnceValues(func() ([]lint.Diagnostic, error) {
	return lint.Run(lint.Config{Root: "testdata/src/fixture", ModPath: "fixture"})
})

// fixtureRun returns the findings of one check under one fixture
// directory as "file:line check" strings, plus the malformed-directive
// findings there, which a run of any check reports.
func fixtureRun(t *testing.T, dir, check string) []string {
	t.Helper()
	diags, err := fixtureTree()
	if err != nil {
		t.Fatalf("lint.Run: %v", err)
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
		{"poolbalance", "poolbalance", []string{
			"poolbalance/poolbalance.go:13 poolbalance",
			"poolbalance/poolbalance.go:22 poolbalance",
		}},
		{"retainescape", "retainescape", []string{
			"retainescape/retainescape.go:22 retainescape",
			"retainescape/retainescape.go:30 retainescape",
			"retainescape/retainescape.go:36 retainescape",
			"retainescape/retainescape.go:41 retainescape",
			"retainescape/retainescape.go:46 retainescape",
		}},
		{"goleak", "goleak", []string{
			"goleak/goleak.go:11 goleak",
			"goleak/goleak.go:17 goleak",
		}},
		{"lockbalance", "lockbalance", []string{
			"lockbalance/lockbalance.go:29 lockbalance", // leaked on early return
			"lockbalance/lockbalance.go:39 lockbalance", // channel wait while held
			"lockbalance/lockbalance.go:48 lockbalance", // blocking callee (needs summary)
			"lockbalance/lockbalance.go:60 lockbalance", // recursive lock via method (needs call graph)
			"lockbalance/lockbalance.go:73 lockbalance", // direct double lock
		}},
		{"ctxflow", "ctxflow", []string{
			"ctxflow/ctxflow.go:32 ctxflow", // blocks on request path, no ctx (needs call graph)
			"ctxflow/ctxflow.go:38 ctxflow", // same, reached through a closure (needs reach edges)
			"ctxflow/ctxflow.go:48 ctxflow", // ctx parameter dropped
			"ctxflow/ctxflow.go:55 ctxflow", // context.Background under a ctx param
			"ctxflow/ctxflow.go:77 ctxflow", // outbound http.NewRequest drops the inbound ctx
		}},
		{"httpwrite", "httpwrite", []string{
			"httpwrite/httpwrite.go:28 httpwrite", // path with no write
			"httpwrite/httpwrite.go:38 httpwrite", // double status via two helpers (needs summaries)
			"httpwrite/httpwrite.go:46 httpwrite", // body after error status
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
		{"floatreduce", "floatreduce", []string{
			"floatreduce/floatreduce.go:19 floatreduce", // captured += under par.Dynamic
			"floatreduce/floatreduce.go:30 floatreduce", // x = x + e under a raw goroutine
			"floatreduce/floatreduce.go:52 floatreduce", // &acc through addTo (needs accum summary)
			"floatreduce/floatreduce.go:65 floatreduce", // named task accumulating a global
			"floatreduce/floatreduce.go:71 floatreduce", // global reached through a callee
		}},
		// parpolicy's fixture joins every goroutine through wg.Wait, so
		// the CFG pass must stay quiet on it even though parpolicy fires.
		{"parpolicy", "goleak", nil},
		// The new fixtures' negatives double as cross-checks: httpwrite's
		// helpers never block (no ctxflow), ctxflow's handler writes once
		// (no httpwrite), lockbalance's helpers are handler-free.
		{"httpwrite", "ctxflow", nil},
		{"ctxflow", "httpwrite", nil},
		{"lockbalance", "ctxflow", nil},
		{"lockbalance", "httpwrite", nil},
		{"httpwrite", "lockbalance", nil},
		{"ctxflow", "lockbalance", nil},
		// The taint fixtures must not trip each other: detflow's joined
		// goroutines write strings (no float accumulation), and
		// floatreduce's accumulators never reach a sink. Neither trips
		// goleak (every launch joins), and detflow's collect-then-sort
		// negative stays invisible to mapordered.
		{"detflow", "floatreduce", nil},
		{"floatreduce", "detflow", nil},
		{"detflow", "goleak", nil},
		{"floatreduce", "goleak", nil},
		{"detflow", "mapordered", nil},
		{"ignore", "floatcmp", []string{
			"ignore/ignore.go:16 floatcmp",
			"ignore/ignore.go:20 directive",
			"ignore/ignore.go:21 floatcmp",
		}},
		// buildtag holds a race/!race constant pair: honoring //go:build
		// is what keeps the pair from "redeclaring" in one lint unit.
		{"buildtag", "floatcmp", nil},
		{"clean", "floatcmp", nil},
		{"clean", "parpolicy", nil},
		{"clean", "seedrand", nil},
		{"clean", "errdrop", nil},
		{"clean", "mapordered", nil},
		{"clean", "poolbalance", nil},
		{"clean", "retainescape", nil},
		{"clean", "goleak", nil},
		{"clean", "lockbalance", nil},
		{"clean", "ctxflow", nil},
		{"clean", "httpwrite", nil},
		{"clean", "detflow", nil},
		{"clean", "floatreduce", nil},
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
// the full-suite run TestChecks reads its rows from, findings in
// fixture directories no row covers included.
func TestAllChecksOnFixtureTree(t *testing.T) {
	diags, err := fixtureTree()
	if err != nil {
		t.Fatal(err)
	}
	perCheck := map[string]int{}
	for _, d := range diags {
		perCheck[d.Check]++
	}
	want := map[string]int{
		"floatcmp":     7,  // 5 in floatcmp fixture + 2 unsilenced in ignore fixture
		"parpolicy":    10, // 2 in parpolicy fixture + 6 in goleak + 1 each in detflow/floatreduce
		"seedrand":     4,  // import + 2 time seeds in seedrand fixture, 1 time seed in internal/rng
		"errdrop":      4,
		"mapordered":   2,
		"directive":    1,
		"poolbalance":  2,
		"retainescape": 5,
		"goleak":       2,
		"lockbalance":  5,
		"ctxflow":      5,
		"httpwrite":    3,
		"detflow":      7,
		"floatreduce":  5,
	}
	for check, n := range want {
		if perCheck[check] != n {
			t.Errorf("check %s: got %d findings, want %d (all: %v)", check, perCheck[check], n, diags)
		}
	}
	if len(diags) != 62 {
		t.Errorf("total findings: got %d, want 62: %v", len(diags), diags)
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

// TestCheckNames pins the registered suite.
func TestCheckNames(t *testing.T) {
	names := lint.CheckNames()
	if len(names) != 13 {
		t.Fatalf("got %d checks, want 13: %v", len(names), names)
	}
}

// TestChecksExclusion pins the -checks exclusion syntax: "-name"
// removes from the full suite, mixing includes and excludes filters
// the include list, and selecting nothing is an error.
func TestChecksExclusion(t *testing.T) {
	run := func(checks []string) ([]lint.Diagnostic, error) {
		return lint.Run(lint.Config{
			Root:    "testdata/src/fixture",
			ModPath: "fixture",
			Dirs:    []string{"lockbalance/...", "ctxflow/..."},
			Checks:  checks,
		})
	}
	all, err := run(nil)
	if err != nil {
		t.Fatal(err)
	}
	without, err := run([]string{"-lockbalance"})
	if err != nil {
		t.Fatal(err)
	}
	if want := len(all) - 5; len(without) != want {
		t.Errorf("excluding lockbalance: got %d findings, want %d", len(without), want)
	}
	for _, d := range without {
		if d.Check == "lockbalance" {
			t.Errorf("excluded check still reported: %v", d)
		}
	}
	mixed, err := run([]string{"lockbalance", "ctxflow", "-lockbalance"})
	if err != nil {
		t.Fatal(err)
	}
	if len(mixed) != 5 {
		t.Errorf("include+exclude: got %d findings, want 5 (ctxflow only): %v", len(mixed), mixed)
	}
	if _, err := run([]string{"ctxflow", "-ctxflow"}); err == nil {
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
	if len(res.Timing) != 13 {
		t.Fatalf("got %d timing entries, want 13: %v", len(res.Timing), res.Timing)
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
