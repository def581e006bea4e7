// Command schedlint runs the repository's static-analysis suite
// (internal/lint): depsaudit, determinism and atomicsdiscipline — the
// machine-checked versions of the invariants the verifier's soundness
// rests on.
//
// Usage:
//
//	schedlint [-passes depsaudit,determinism,atomicsdiscipline] [packages]
//
// analyzes the packages (default ./...) and prints findings as
// file:line:col: pass: message. Exit status: 0 clean, 1 findings,
// 2 load or internal error.
//
// Findings are suppressed per line with `//schedlint:allow <pass>
// <reason>`; the reason is mandatory.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"repro/internal/lint"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("schedlint", flag.ContinueOnError)
	fs.SetOutput(stderr)
	passes := fs.String("passes", "", "comma-separated analyzer subset (default: all, gated per package)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	selected, err := selectAnalyzers(*passes)
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 2
	}
	prog, targets, err := lint.Load(".", fs.Args()...)
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 2
	}
	findings := 0
	for _, pkg := range targets {
		diags, err := lint.RunPackage(prog, pkg, analyzersFor(pkg.Path, selected))
		if err != nil {
			fmt.Fprintln(stderr, err)
			return 2
		}
		for _, d := range diags {
			fmt.Fprintln(stdout, d)
			findings++
		}
	}
	if findings > 0 {
		fmt.Fprintf(stderr, "schedlint: %d finding(s)\n", findings)
		return 1
	}
	return 0
}

// selectAnalyzers parses -passes; nil means "all, gated per package by
// lint.AnalyzersFor".
func selectAnalyzers(passes string) ([]*lint.Analyzer, error) {
	if passes == "" {
		return nil, nil
	}
	var out []*lint.Analyzer
	for _, name := range strings.Split(passes, ",") {
		name = strings.TrimSpace(name)
		a, ok := lint.ByName(name)
		if !ok {
			return nil, fmt.Errorf("schedlint: unknown pass %q", name)
		}
		out = append(out, a)
	}
	return out, nil
}

// analyzersFor narrows the package's gated analyzers to the -passes
// selection: a selected pass that does not guard the package stays off.
func analyzersFor(importPath string, selected []*lint.Analyzer) []*lint.Analyzer {
	gated := lint.AnalyzersFor(importPath)
	if selected == nil {
		return gated
	}
	var out []*lint.Analyzer
	for _, a := range selected {
		for _, g := range gated {
			if a == g {
				out = append(out, a)
			}
		}
	}
	return out
}
