// Command javelin-vet runs the repo's custom static-analysis suite
// (internal/analyzers): pinpair, kernelpurity, asmvet, atomicvet,
// lockvet, ctxloop, and noallocgraph. It is dependency-free — packages
// are loaded with `go list` and type-checked with stdlib go/types
// against build-cache export data — so it runs anywhere the go
// toolchain does, with go.mod kept at zero requires. noallocgraph
// builds each package it checks once more, with -gcflags=-m, for the
// compiler's escape analysis.
//
// Usage:
//
//	javelin-vet [flags] [packages]
//
// Packages default to ./... . Each analyzer has an enable/disable flag
// named after it (all default true). With -json, findings are emitted
// as a JSON array on stdout instead of file:line text. Findings are
// sorted by file, line, column, analyzer, so output is byte-identical
// across runs. Exit status: 0 clean, 1 findings, 2 usage or
// load/analysis error.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"

	"javelin/internal/analyzers"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("javelin-vet", flag.ContinueOnError)
	fs.SetOutput(stderr)
	jsonOut := fs.Bool("json", false, "emit findings as a JSON array on stdout")
	dir := fs.String("dir", ".", "directory to resolve package patterns from (module root)")
	enabled := map[string]*bool{}
	for _, a := range analyzers.All() {
		enabled[a.Name] = fs.Bool(a.Name, true, "run the "+a.Name+" analyzer: "+a.Doc)
	}
	if err := fs.Parse(args); err != nil {
		return 2
	}
	patterns := fs.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}

	pkgs, err := analyzers.Load(*dir, patterns)
	if err != nil {
		fmt.Fprintf(stderr, "javelin-vet: %v\n", err)
		return 2
	}

	var findings []analyzers.Finding
	for _, pkg := range pkgs {
		for _, a := range analyzers.All() {
			if !*enabled[a.Name] {
				continue
			}
			if err := analyzers.RunAnalyzer(a, pkg, &findings); err != nil {
				fmt.Fprintf(stderr, "javelin-vet: %v\n", err)
				return 2
			}
		}
	}
	// Module analyzers see the whole loaded set at once (call-graph
	// checks that cross package boundaries).
	for _, a := range analyzers.All() {
		if a.RunModule == nil || !*enabled[a.Name] {
			continue
		}
		if err := analyzers.RunModuleAnalyzer(a, pkgs, &findings); err != nil {
			fmt.Fprintf(stderr, "javelin-vet: %v\n", err)
			return 2
		}
	}
	analyzers.SortFindings(findings)

	if *jsonOut {
		enc := json.NewEncoder(stdout)
		enc.SetIndent("", "  ")
		if findings == nil {
			findings = []analyzers.Finding{}
		}
		if err := enc.Encode(findings); err != nil {
			fmt.Fprintf(stderr, "javelin-vet: %v\n", err)
			return 2
		}
	} else {
		for _, f := range findings {
			fmt.Fprintln(stdout, f.String())
		}
	}
	if len(findings) > 0 {
		if !*jsonOut {
			fmt.Fprintf(stderr, "javelin-vet: %d finding(s)\n", len(findings))
		}
		return 1
	}
	return 0
}
