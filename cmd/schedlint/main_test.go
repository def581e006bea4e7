package main

import (
	"strings"
	"testing"

	"repro/internal/lint"
)

// cmd/go probes vet tools with -V=full and -flags before trusting them;
// both must answer on stdout and exit 0 or `go vet -vettool` refuses to
// run the tool at all.
func TestVetToolHandshake(t *testing.T) {
	var stdout, stderr strings.Builder
	if exit := run([]string{"-V=full"}, &stdout, &stderr); exit != 0 {
		t.Fatalf("-V=full exited %d: %s", exit, stderr.String())
	}
	if !strings.HasPrefix(stdout.String(), "schedlint version ") {
		t.Errorf("-V=full printed %q, want a version line", stdout.String())
	}

	stdout.Reset()
	if exit := run([]string{"-flags"}, &stdout, &stderr); exit != 0 {
		t.Fatalf("-flags exited %d: %s", exit, stderr.String())
	}
	if strings.TrimSpace(stdout.String()) != "[]" {
		t.Errorf("-flags printed %q, want []", stdout.String())
	}
}

func TestSelectAnalyzers(t *testing.T) {
	if got, err := selectAnalyzers(""); err != nil || got != nil {
		t.Errorf("empty -passes = %v, %v; want nil, nil (all analyzers, gated)", got, err)
	}
	got, err := selectAnalyzers("determinism, depsaudit")
	if err != nil || len(got) != 2 || got[0].Name != "determinism" || got[1].Name != "depsaudit" {
		t.Errorf("two-pass selection = %v, %v", got, err)
	}
	if _, err := selectAnalyzers("nope"); err == nil {
		t.Error("unknown pass name did not error")
	}
}

// Test-variant import paths ("pkg [pkg.test]") must gate exactly like
// the base package: vet analyzes the variant compiled with the
// package's test files.
func TestAnalyzersForTestVariant(t *testing.T) {
	base := analyzersFor("repro/internal/verify", nil)
	variant := analyzersFor("repro/internal/verify [repro/internal/verify.test]", nil)
	if len(base) == 0 {
		t.Fatal("internal/verify gates no analyzers")
	}
	if len(variant) != len(base) {
		t.Fatalf("test variant gates %d analyzers, base gates %d", len(variant), len(base))
	}
	for i := range base {
		if base[i] != variant[i] {
			t.Errorf("analyzer %d differs: %s vs %s", i, base[i].Name, variant[i].Name)
		}
	}

	// -passes intersects with the per-package gates rather than
	// overriding them: atomicsdiscipline only guards the executor, so
	// selecting it for internal/sched yields nothing.
	atomics, _ := lint.ByName("atomicsdiscipline")
	if got := analyzersFor("repro/internal/sched", []*lint.Analyzer{atomics}); len(got) != 0 {
		t.Errorf("atomicsdiscipline selected for internal/sched: %v", got)
	}
	// depsaudit runs everywhere (it no-ops without an obligations
	// table), so the same selection keeps it.
	dep, _ := lint.ByName("depsaudit")
	if got := analyzersFor("repro/internal/sched", []*lint.Analyzer{dep}); len(got) != 1 || got[0] != dep {
		t.Errorf("depsaudit not selected for internal/sched: %v", got)
	}
}

func TestModuleResolution(t *testing.T) {
	root, modPath, ok := findModule(".")
	if !ok || modPath != "repro" {
		t.Fatalf("findModule(.) = %q, %q, %v", root, modPath, ok)
	}
	if rel, in := moduleRel("repro/internal/sched", "repro"); !in || rel != "internal/sched" {
		t.Errorf("moduleRel(repro/internal/sched) = %q, %v", rel, in)
	}
	if rel, in := moduleRel("repro", "repro"); !in || rel != "." {
		t.Errorf("moduleRel(repro) = %q, %v", rel, in)
	}
	if _, in := moduleRel("reprox/other", "repro"); in {
		t.Error("moduleRel matched a module-path prefix that is not a path boundary")
	}
	if _, in := moduleRel("sort", "repro"); in {
		t.Error("moduleRel matched the standard library")
	}
}
