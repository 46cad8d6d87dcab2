package main

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"roughsurface/internal/lint"
)

// TestConvertsJSONReport: the SARIF converted from an rrslint -json
// report is WriteSARIF of its findings, with and without findings.
func TestConvertsJSONReport(t *testing.T) {
	for _, diags := range [][]lint.Diagnostic{
		{},
		{
			{Check: "floatcmp", File: "a/b.go", Line: 3, Col: 8, Message: "exact == between floating-point/complex values"},
			{Check: "seedrand", File: "c.go", Line: 10, Col: 2, Message: "math/rand outside internal/rng"},
		},
	} {
		report, err := json.Marshal(lint.Result{Diagnostics: diags, Timing: []lint.CheckTiming{}})
		if err != nil {
			t.Fatal(err)
		}
		var want, got, errb bytes.Buffer
		if err := lint.WriteSARIF(&want, diags); err != nil {
			t.Fatal(err)
		}
		if code := run(bytes.NewReader(report), &got, &errb); code != 0 {
			t.Fatalf("exit %d: %s", code, errb.String())
		}
		if !bytes.Equal(got.Bytes(), want.Bytes()) {
			t.Errorf("%d findings: converted SARIF differs:\n%s\nwant\n%s", len(diags), got.String(), want.String())
		}
	}
}

func TestBadInputExitsError(t *testing.T) {
	var out, errb bytes.Buffer
	if code := run(strings.NewReader("{not json"), &out, &errb); code != 2 || out.Len() != 0 {
		t.Errorf("exit %d with %d bytes of output, want 2 and none", code, out.Len())
	}
}
