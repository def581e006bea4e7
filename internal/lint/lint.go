// Package lint is the repository's static-analysis suite: machine
// checks for the meta-level invariants the verifier's soundness rests
// on. The paper replaces "we believe the scheduler is work-conserving"
// with a checked proof; this package applies the same move to the
// verifier itself — the hand-audited obligationDeps table (what makes
// schedverifyd memoization sound), the byte-identical-report
// determinism discipline, and the atomics discipline of the lock-free
// executor are enforced by analyzers instead of comments.
//
// The design mirrors golang.org/x/tools/go/analysis (Analyzer, Pass,
// Diagnostic) but is self-contained: the repository builds with the
// standard library only, so the loader (load.go) drives `go list
// -export` and go/types directly instead of importing x/tools.
//
// Three analyzers ship:
//
//   - depsaudit: walks the call graph from every obligation checker in
//     internal/verify down to the sched.Policy interface methods and
//     fails when the reached component set disagrees with the
//     obligationDeps row the memoizer trusts.
//   - determinism: forbids wall-clock reads, global math/rand, map
//     iteration feeding order-sensitive code, and map-typed fields in
//     JSON structs inside the deterministic packages.
//   - atomicsdiscipline: flags plain reads/writes of fields that are
//     elsewhere accessed through sync/atomic, and by-value copies of
//     sync/atomic values.
//
// Findings are suppressed one line at a time with
//
//	//schedlint:allow <pass> <reason>
//
// where the reason is mandatory — an annotation is a reviewed
// decision, not a blanket ignore (directives.go).
package lint

import (
	"fmt"
	"go/token"
	"sort"
)

// An Analyzer is one named static check.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics and in
	// //schedlint:allow directives.
	Name string
	// Run analyzes one package, reporting findings via pass.Report.
	Run func(*Pass) error
}

// A Pass is one (analyzer, package) unit of work.
type Pass struct {
	Analyzer *Analyzer
	// Prog is the whole loaded program: depsaudit follows calls across
	// package boundaries through it.
	Prog *Program
	// Pkg is the package under analysis.
	Pkg *Package

	report func(Diagnostic)
}

// Reportf reports a finding at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.report(Diagnostic{
		Pass:    p.Analyzer.Name,
		Pos:     p.Prog.Fset.Position(pos),
		Message: fmt.Sprintf(format, args...),
	})
}

// A Diagnostic is one finding.
type Diagnostic struct {
	Pass    string
	Pos     token.Position
	Message string
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s: %s: %s", d.Pos, d.Pass, d.Message)
}

// Analyzers returns every analyzer in the suite, in fixed order.
func Analyzers() []*Analyzer {
	return []*Analyzer{DepsAudit, Determinism, AtomicsDiscipline}
}

// ByName resolves an analyzer by its directive/flag name.
func ByName(name string) (*Analyzer, bool) {
	for _, a := range Analyzers() {
		if a.Name == name {
			return a, true
		}
	}
	return nil, false
}

// DeterministicPackages lists the import paths (as path prefixes: a
// listed path covers its subpackages) the determinism analyzer guards.
// These are the packages whose outputs must be byte-identical run to
// run — reports, canonical forms, histograms, simulation traces — plus
// internal/service, whose legitimate wall-clock uses carry reviewed
// //schedlint:allow annotations instead of being exempted wholesale.
var DeterministicPackages = []string{
	"repro/internal/verify",
	"repro/internal/statespace",
	"repro/internal/dsl",
	"repro/internal/loadgen",
	"repro/internal/metrics",
	"repro/internal/sim",
	"repro/internal/service",
}

// AtomicsPackages lists the import-path prefixes the atomicsdiscipline
// analyzer guards: the lock-free executor.
var AtomicsPackages = []string{
	"repro/internal/engine",
}

// pathIn reports whether importPath equals one of the prefixes or is a
// subpackage of one (segment-aware, so "…/sim" does not match
// "…/simx").
func pathIn(importPath string, prefixes []string) bool {
	for _, p := range prefixes {
		if importPath == p || (len(importPath) > len(p) && importPath[:len(p)] == p && importPath[len(p)] == '/') {
			return true
		}
	}
	return false
}

// AnalyzersFor selects the suite's analyzers that apply to a package:
// depsaudit everywhere (it no-ops without an obligationDeps table), the
// guarded analyzers only inside their package sets.
func AnalyzersFor(importPath string) []*Analyzer {
	out := []*Analyzer{DepsAudit}
	if pathIn(importPath, DeterministicPackages) {
		out = append(out, Determinism)
	}
	if pathIn(importPath, AtomicsPackages) {
		out = append(out, AtomicsDiscipline)
	}
	return out
}

// RunPackage runs the given analyzers over one package, applies
// //schedlint:allow suppression, appends directive-hygiene findings
// (malformed or unknown-pass directives), and returns the surviving
// diagnostics sorted by position.
func RunPackage(prog *Program, pkg *Package, analyzers []*Analyzer) ([]Diagnostic, error) {
	var raw []Diagnostic
	for _, a := range analyzers {
		pass := &Pass{
			Analyzer: a,
			Prog:     prog,
			Pkg:      pkg,
			report:   func(d Diagnostic) { raw = append(raw, d) },
		}
		if err := a.Run(pass); err != nil {
			return nil, fmt.Errorf("lint: %s on %s: %w", a.Name, pkg.Path, err)
		}
	}
	allows, hygiene := directives(prog, pkg)
	var kept []Diagnostic
	for _, d := range append(hygiene, raw...) {
		if allows.covers(d.Pass, d.Pos.Filename, d.Pos.Line) {
			continue
		}
		kept = append(kept, d)
	}
	sortDiagnostics(kept)
	return kept, nil
}

func sortDiagnostics(ds []Diagnostic) {
	sort.Slice(ds, func(i, j int) bool {
		a, b := ds[i], ds[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		if a.Pass != b.Pass {
			return a.Pass < b.Pass
		}
		return a.Message < b.Message
	})
}
