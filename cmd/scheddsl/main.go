// Command scheddsl compiles a scheduling-policy DSL file: it
// type-checks the source and emits the generated Go backend — the
// repository's analogue of the paper's DSL→{C, Scala} compiler. To run
// the proof obligations on a DSL policy, use `schedverify -dsl`.
//
// Usage:
//
//	scheddsl -in policy.pol [-gen out.go] [-pkg policies] [-print]
//	scheddsl -lint [-max-faults n] -in policy.pol
//
// With no -in, scheddsl reads standard input.
//
// -lint runs the DSL semantic linter (dsl.Analyze) and prints its
// findings instead of compiling: exit 0 when the policy lints clean,
// 1 when there are findings, 2 when the source does not parse.
// -max-faults supplies the fault budget of the universe the policy is
// headed for, which decides whether a missing rescue clause is worth a
// warning.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"repro/internal/dsl"
)

func main() {
	var (
		in        = flag.String("in", "", "DSL source file (default: stdin)")
		gen       = flag.String("gen", "", "write generated Go code to this file")
		pkg       = flag.String("pkg", "policies", "package name for generated code")
		pretty    = flag.Bool("print", false, "print the canonicalized policy")
		lint      = flag.Bool("lint", false, "run the semantic linter and exit (0 clean, 1 findings, 2 parse error)")
		maxFaults = flag.Int("max-faults", 0, "fault budget of the target universe (with -lint: makes a missing rescue clause a finding)")
	)
	flag.Parse()

	src, err := readSource(*in)
	if err != nil {
		fatal(err)
	}

	if *lint {
		name := *in
		if name == "" {
			name = "<stdin>"
		}
		os.Exit(runLint(src, name, *maxFaults, os.Stdout, os.Stderr))
	}

	ast, err := dsl.Parse(src)
	if err != nil {
		fatal(err)
	}
	fmt.Printf("parsed policy %q: ok\n", ast.Name)
	if *pretty {
		fmt.Print(ast)
	}

	if *gen != "" {
		// The policy and its support declarations are separate files of
		// one package (each carries its own package clause).
		if err := os.WriteFile(*gen, []byte(dsl.Generate(ast, *pkg)), 0o644); err != nil {
			fatal(err)
		}
		support := supportPath(*gen)
		if err := os.WriteFile(support, []byte(dsl.GenerateSupport(*pkg)), 0o644); err != nil {
			fatal(err)
		}
		fmt.Printf("generated %s and %s (package %s)\n", *gen, support, *pkg)
	}
}

// runLint is the -lint mode: parse, analyze, print findings. Exit
// contract: 0 clean, 1 findings, 2 parse error.
func runLint(src, name string, maxFaults int, stdout, stderr io.Writer) int {
	ast, err := dsl.Parse(src)
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 2
	}
	findings := dsl.Analyze(ast, dsl.AnalyzeOptions{MaxFaults: maxFaults})
	for _, d := range findings {
		fmt.Fprintf(stdout, "%s:%s\n", name, d)
	}
	if len(findings) > 0 {
		fmt.Fprintf(stderr, "scheddsl: %d finding(s) in policy %q\n", len(findings), ast.Name)
		return 1
	}
	fmt.Fprintf(stdout, "policy %q lints clean\n", ast.Name)
	return 0
}

// supportPath derives the support-file name: foo.go -> foo_support.go.
func supportPath(gen string) string {
	const ext = ".go"
	if len(gen) > len(ext) && gen[len(gen)-len(ext):] == ext {
		return gen[:len(gen)-len(ext)] + "_support" + ext
	}
	return gen + "_support.go"
}

func readSource(path string) (string, error) {
	if path == "" {
		b, err := io.ReadAll(os.Stdin)
		return string(b), err
	}
	b, err := os.ReadFile(path)
	return string(b), err
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, err)
	os.Exit(2)
}
