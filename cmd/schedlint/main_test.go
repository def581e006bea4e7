package main

import (
	"testing"

	"repro/internal/lint"
)

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

// -passes intersects with the per-package gates rather than overriding
// them.
func TestPassesIntersectGates(t *testing.T) {
	// atomicsdiscipline only guards the executor, so selecting it for
	// internal/sched yields nothing.
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
