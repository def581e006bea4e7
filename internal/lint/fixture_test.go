package lint_test

// The expectation harness for the lint suite's fixture tests, in the
// style of x/tools' analysistest: a fixture package under testdata/src
// carries `// want "regexp"` comments on the lines where diagnostics are
// expected, and runFixture fails the test on any unmatched expectation
// or unexpected diagnostic — so each fixture pins the exact diagnostic
// set, not just "at least one finding".

import (
	"fmt"
	"regexp"
	"strings"
	"testing"

	"repro/internal/lint"
)

// wantArg extracts the quoted regexps after `// want`; escaped quotes
// are allowed inside.
var wantArg = regexp.MustCompile(`"((?:[^"\\]|\\.)*)"`)

type expectation struct {
	re      *regexp.Regexp
	pos     string
	matched bool
}

// runFixture loads the single fixture package named by pattern (a package
// pattern relative to the test's working directory, e.g.
// "./testdata/src/determinism"), runs the analyzers through
// lint.RunPackage — directives and all — and checks the resulting
// diagnostics against the fixture's `// want` comments. It returns the
// diagnostics for any extra assertions the caller wants to make.
func runFixture(t *testing.T, pattern string, analyzers ...*lint.Analyzer) []lint.Diagnostic {
	t.Helper()
	prog, targets, err := lint.Load(".", pattern)
	if err != nil {
		t.Fatalf("loading fixture %s: %v", pattern, err)
	}
	if len(targets) != 1 {
		t.Fatalf("fixture %s: want exactly one package, got %d", pattern, len(targets))
	}
	pkg := targets[0]
	diags, err := lint.RunPackage(prog, pkg, analyzers)
	if err != nil {
		t.Fatalf("running analyzers on %s: %v", pattern, err)
	}

	wants := map[string][]*expectation{}
	for _, file := range pkg.Files {
		for _, cg := range file.Comments {
			for _, c := range cg.List {
				idx := strings.Index(c.Text, "// want ")
				if idx < 0 {
					continue
				}
				pos := prog.Fset.Position(c.Pos())
				key := fmt.Sprintf("%s:%d", pos.Filename, pos.Line)
				args := wantArg.FindAllStringSubmatch(c.Text[idx:], -1)
				if len(args) == 0 {
					t.Errorf("%s: malformed want comment (no quoted regexp): %s", key, c.Text)
					continue
				}
				for _, m := range args {
					re, err := regexp.Compile(m[1])
					if err != nil {
						t.Errorf("%s: bad want regexp %q: %v", key, m[1], err)
						continue
					}
					wants[key] = append(wants[key], &expectation{re: re, pos: key})
				}
			}
		}
	}

	for _, d := range diags {
		key := fmt.Sprintf("%s:%d", d.Pos.Filename, d.Pos.Line)
		matched := false
		for _, w := range wants[key] {
			if !w.matched && w.re.MatchString(d.Message) {
				w.matched = true
				matched = true
				break
			}
		}
		if !matched {
			t.Errorf("unexpected diagnostic at %s: %s: %s", key, d.Pass, d.Message)
		}
	}
	for _, ws := range wants {
		for _, w := range ws {
			if !w.matched {
				t.Errorf("%s: no diagnostic matched want %q", w.pos, w.re)
			}
		}
	}
	return diags
}
