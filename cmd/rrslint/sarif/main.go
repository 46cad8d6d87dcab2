// Command sarif converts an rrslint -json report on stdin into a
// SARIF 2.1.0 log for code-scanning upload, so one analysis yields both
// reports:
//
//	go run ./cmd/rrslint -json ./... > findings.json
//	go run ./cmd/rrslint/sarif < findings.json > findings.sarif
//
// Exit status: 0 on success, 2 on unreadable input.
package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"

	"roughsurface/internal/lint"
)

func main() {
	os.Exit(run(os.Stdin, os.Stdout, os.Stderr))
}

func run(stdin io.Reader, stdout, stderr io.Writer) int {
	var report lint.Result
	if err := json.NewDecoder(stdin).Decode(&report); err != nil {
		fmt.Fprintln(stderr, "sarif: reading rrslint -json report:", err)
		return 2
	}
	if err := lint.WriteSARIF(stdout, report.Diagnostics); err != nil {
		fmt.Fprintln(stderr, "sarif:", err)
		return 2
	}
	return 0
}
