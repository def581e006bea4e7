package lint_test

import (
	"strings"
	"testing"

	"repro/internal/lint"
)

func TestDeterminismFixture(t *testing.T) {
	runFixture(t, "./testdata/src/determinism", lint.Determinism)
}

func TestAtomicsFixture(t *testing.T) {
	runFixture(t, "./testdata/src/atomics", lint.AtomicsDiscipline)
}

func TestDepsAuditOK(t *testing.T) {
	diags := runFixture(t, "./testdata/src/depsaudit_ok", lint.DepsAudit)
	if len(diags) != 0 {
		t.Errorf("clean fixture produced %d diagnostics", len(diags))
	}
}

// TestDepsAuditBad pins the issue's negative case: a checker calling
// Choose without CompChoose in its row draws exactly one diagnostic on
// that row (plus the unreached-steal and undeclared-pick diagnostics
// the fixture also carries).
func TestDepsAuditBad(t *testing.T) {
	diags := runFixture(t, "./testdata/src/depsaudit_bad", lint.DepsAudit)
	if len(diags) != 3 {
		t.Fatalf("got %d diagnostics, want 3: %v", len(diags), diags)
	}
	undeclared := 0
	for _, d := range diags {
		if strings.Contains(d.Message, `reaches policy component "choose"`) {
			undeclared++
		}
	}
	if undeclared != 1 {
		t.Errorf("undeclared-Choose drew %d diagnostics, want exactly 1", undeclared)
	}
}

func TestDepsAuditNoRow(t *testing.T) {
	runFixture(t, "./testdata/src/depsaudit_norow", lint.DepsAudit)
}

// TestDepsAuditRealTable runs the audit over the real internal/verify
// package: the shipped table must agree with the shipped checkers, with
// the one reviewed exception (choice-independence's discarded Choose)
// suppressed by its row annotation.
func TestDepsAuditRealTable(t *testing.T) {
	prog, targets, err := lint.Load("../..", "./internal/verify")
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	diags, err := lint.RunPackage(prog, targets[0], []*lint.Analyzer{lint.DepsAudit})
	if err != nil {
		t.Fatalf("RunPackage: %v", err)
	}
	for _, d := range diags {
		t.Errorf("%s", d)
	}
}
