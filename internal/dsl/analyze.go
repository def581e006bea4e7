package dsl

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/sched"
)

// This file is the DSL's semantic linter: checks on a parsed policy
// that are not type errors (check.go rejects those) but are almost
// certainly not what the author meant — a filter that never fires, a
// disjunct another disjunct shadows, a load clause nothing reads, a
// rescue clause missing from a policy about to be verified under
// faults. Findings are warnings, never errors: every frontend
// (scheddsl -lint, schedverify, schedverifyd's /v1/verify) surfaces
// them without blocking compilation or verification, in the spirit of
// the paper's "the DSL makes concise *and analyzable* policies" claim.
//
// The expression checks are decided over a bounded probe universe: a
// fixed grid of synthetic cores varying every attribute the DSL can
// observe (queue length, running task, weights, id, group, node), with
// the policy's own load metric evaluated on each. "Never true" below
// always means "never true on that grid" — the grid is deliberately
// diverse enough that a predicate false everywhere on it is wrong in
// practice, but the verdicts are heuristic, which is the second reason
// findings stay warnings. Everything is deterministic: fixed grid,
// fixed check order, findings sorted by position.

// A Diagnostic is one linter finding. Line/Col point into the policy
// source when the finding anchors to an expression; both are 0 for
// policy-level findings (missing rescue, unused load).
type Diagnostic struct {
	// Code identifies the check: rescue-missing, filter-false,
	// self-steal, shadowed-clause, vacuous-conjunct, steal-nonpositive,
	// load-unused or alias-mixed.
	Code    string `json:"code"`
	Message string `json:"message"`
	Line    int    `json:"line,omitempty"`
	Col     int    `json:"col,omitempty"`
}

func (d Diagnostic) String() string {
	if d.Line > 0 {
		return fmt.Sprintf("%d:%d: %s: %s", d.Line, d.Col, d.Code, d.Message)
	}
	return fmt.Sprintf("%s: %s", d.Code, d.Message)
}

// AnalyzeOptions parameterizes Analyze with the verification context
// the policy is headed for.
type AnalyzeOptions struct {
	// MaxFaults is the target universe's fault budget. When it is
	// positive the fault obligations will run, and a policy without a
	// rescue clause is guaranteed to fail no-task-lost on any script
	// that never revives — worth a warning at submit time, before the
	// enumeration spends the cycles.
	MaxFaults int
}

// Analyze lints a parsed, checked policy and returns its findings in
// deterministic order (byte-identical across runs for the same input).
func Analyze(p *Policy, opts AnalyzeOptions) []Diagnostic {
	var ds []Diagnostic

	if opts.MaxFaults > 0 && p.Rescue.Name == "" {
		ds = append(ds, Diagnostic{
			Code: "rescue-missing",
			Message: fmt.Sprintf("policy %q has no rescue clause but the target universe allows %d fault(s): no-task-lost fails on any script that fails a non-empty core and never revives it",
				p.Name, opts.MaxFaults),
		})
	}

	// The checks run the clauses as Compile runs them, compiled into a
	// local: the front end never publishes p's program.
	prog := newProgram(p)
	ds = append(ds, analyzeFilter(p, prog)...)
	ds = append(ds, analyzeSteal(p, prog)...)
	ds = append(ds, analyzeLoadUse(p)...)
	ds = append(ds, analyzeAliases(p)...)

	sort.SliceStable(ds, func(i, j int) bool {
		a, b := ds[i], ds[j]
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		if a.Col != b.Col {
			return a.Col < b.Col
		}
		return a.Code < b.Code
	})
	return ds
}

// analyzeFilter decides filter-false / self-steal for the whole
// predicate and shadowed-clause / vacuous-conjunct for its &&/||
// operands.
func analyzeFilter(p *Policy, prog *program) []Diagnostic {
	var ds []Diagnostic

	acceptsProper := false
	for _, pr := range probeProper {
		if prog.filter(pr.self, pr.stealee) {
			acceptsProper = true
			break
		}
	}
	if !acceptsProper {
		acceptsSelf := false
		for _, pr := range probeIdentical {
			if prog.filter(pr.self, pr.stealee) {
				acceptsSelf = true
				break
			}
		}
		line, col := exprPos(p.Filter)
		if acceptsSelf {
			ds = append(ds, Diagnostic{
				Code:    "self-steal",
				Message: "the filter only accepts a core stealing from itself (e.g. it requires self.id == stealee.id): the runtime never offers a core as its own victim, so the policy never steals",
				Line:    line, Col: col,
			})
		} else {
			ds = append(ds, Diagnostic{
				Code:    "filter-false",
				Message: "the filter never accepts any (thief, stealee) pair on the probe universe: the policy never steals, which fails work conservation on any imbalanced state",
				Line:    line, Col: col,
			})
		}
		// The whole predicate is degenerate; per-operand shadowing
		// verdicts under it would be noise.
		return ds
	}

	walkExprs(p.Filter, func(e expr) {
		b, ok := e.(*binary)
		if !ok || (b.op != "&&" && b.op != "||") {
			return
		}
		lv := truthVector(compileBool(b.l, prog.load))
		rv := truthVector(compileBool(b.r, prog.load))
		switch b.op {
		case "||":
			// A disjunct is shadowed when every state it accepts is
			// already accepted by the other side: deleting it changes
			// nothing.
			if implies(rv, lv) {
				ds = append(ds, Diagnostic{
					Code:    "shadowed-clause",
					Message: fmt.Sprintf("in %s, the right operand of || is unreachable: every state it accepts is already accepted by %s", b, b.l),
					Line:    b.line, Col: b.col,
				})
			} else if implies(lv, rv) {
				ds = append(ds, Diagnostic{
					Code:    "shadowed-clause",
					Message: fmt.Sprintf("in %s, the left operand of || is redundant: every state it accepts is already accepted by %s", b, b.r),
					Line:    b.line, Col: b.col,
				})
			}
		case "&&":
			// A conjunct is vacuous when it is true whenever the other
			// side is: it filters nothing out.
			if implies(lv, rv) {
				ds = append(ds, Diagnostic{
					Code:    "vacuous-conjunct",
					Message: fmt.Sprintf("in %s, the right operand of && never rejects anything the left operand accepts: it can be dropped", b),
					Line:    b.line, Col: b.col,
				})
			} else if implies(rv, lv) {
				ds = append(ds, Diagnostic{
					Code:    "vacuous-conjunct",
					Message: fmt.Sprintf("in %s, the left operand of && never rejects anything the right operand accepts: it can be dropped", b),
					Line:    b.line, Col: b.col,
				})
			}
		}
	})
	return ds
}

// analyzeSteal flags a steal count that is never positive on any
// filter-accepted pair: the policy elects victims and then moves
// nothing.
func analyzeSteal(p *Policy, prog *program) []Diagnostic {
	accepted := 0
	positive := false
	for _, pr := range probeProper {
		if !prog.filter(pr.self, pr.stealee) {
			continue
		}
		accepted++
		if prog.steal(pr.self, pr.stealee) > 0 {
			positive = true
			break
		}
	}
	if accepted == 0 || positive {
		return nil // filter-false owns the no-accepted-pair case
	}
	line, col := exprPos(p.Steal)
	return []Diagnostic{{
		Code:    "steal-nonpositive",
		Message: "the steal clause never yields a positive count on any filter-accepted pair: the policy selects victims and then moves nothing",
		Line:    line, Col: col,
	}}
}

// analyzeLoadUse flags a declared load clause that nothing consumes:
// no x.load reference in filter or steal, and no load-driven chooser.
func analyzeLoadUse(p *Policy) []Diagnostic {
	if !p.LoadDeclared {
		return nil
	}
	usesLoad := false
	for _, e := range []expr{p.Filter, p.Steal} {
		walkExprs(e, func(e expr) {
			if ref, ok := e.(*attrRef); ok && ref.attr == attrLoad {
				usesLoad = true
			}
		})
	}
	for _, c := range []Chooser{p.Choose, p.Rescue} {
		if c.Name == "max_load" || c.Name == "min_load" {
			usesLoad = true
		}
	}
	if usesLoad {
		return nil
	}
	line, col := exprPos(p.Load)
	return []Diagnostic{{
		Code:    "load-unused",
		Message: fmt.Sprintf("policy %q declares a load metric but no clause consumes it: filter and steal never mention load, and neither chooser is load-driven", p.Name),
		Line:    line, Col: col,
	}}
}

// analyzeAliases flags one attribute spelled through different aliases
// (nthreads vs threads, ready.size vs nready, …) and one core root
// spelled differently within a single clause (thief vs self): both
// compile identically, and mixed spellings read as two different
// quantities.
func analyzeAliases(p *Policy) []Diagnostic {
	var ds []Diagnostic

	attrSpellings := map[coreAttr]map[string]bool{}
	var attrOrder []coreAttr
	clauses := []struct {
		name string
		e    expr
	}{{"load", p.Load}, {"filter", p.Filter}, {"steal", p.Steal}}
	for _, cl := range clauses {
		rootSpellings := map[coreRoot]map[string]bool{}
		walkExprs(cl.e, func(e expr) {
			ref, ok := e.(*attrRef)
			if !ok {
				return
			}
			root, attrPath := splitRoot(ref.path)
			if attrSpellings[ref.attr] == nil {
				attrSpellings[ref.attr] = map[string]bool{}
				attrOrder = append(attrOrder, ref.attr)
			}
			attrSpellings[ref.attr][attrPath] = true
			if root != "" {
				if rootSpellings[ref.root] == nil {
					rootSpellings[ref.root] = map[string]bool{}
				}
				rootSpellings[ref.root][root] = true
			}
		})
		for _, root := range []coreRoot{rootSelf, rootStealee} {
			if sp := rootSpellings[root]; len(sp) > 1 {
				ds = append(ds, Diagnostic{
					Code: "alias-mixed",
					Message: fmt.Sprintf("the %s clause spells the same core both %s: pick one alias",
						cl.name, quotedList(sp)),
				})
			}
		}
	}
	for _, attr := range attrOrder {
		if sp := attrSpellings[attr]; len(sp) > 1 {
			ds = append(ds, Diagnostic{
				Code: "alias-mixed",
				Message: fmt.Sprintf("attribute %q is spelled both %s: pick one alias",
					attrNames[attr], quotedList(sp)),
			})
		}
	}
	return ds
}

// walkExprs visits e and every subexpression, parents before children,
// left before right.
func walkExprs(e expr, visit func(expr)) {
	if e == nil {
		return
	}
	visit(e)
	switch n := e.(type) {
	case *unary:
		walkExprs(n.x, visit)
	case *binary:
		walkExprs(n.l, visit)
		walkExprs(n.r, visit)
	}
}

// exprPos returns the best source anchor an expression offers.
func exprPos(e expr) (line, col int) {
	switch n := e.(type) {
	case *attrRef:
		return n.line, n.col
	case *binary:
		return n.line, n.col
	case *unary:
		return exprPos(n.x)
	}
	return 0, 0
}

// splitRoot splits a surface path into its root spelling (self, core,
// thief, stealee, victim — "" when the path is a bare attribute) and
// the attribute spelling.
func splitRoot(path []string) (root, attr string) {
	if len(path) > 1 {
		switch path[0] {
		case "self", "core", "thief", "stealee", "victim":
			return path[0], strings.Join(path[1:], ".")
		}
	}
	return "", strings.Join(path, ".")
}

func quotedList(set map[string]bool) string {
	items := make([]string, 0, len(set))
	//schedlint:allow determinism items are sorted before joining
	for s := range set {
		items = append(items, fmt.Sprintf("%q", s))
	}
	sort.Strings(items)
	return strings.Join(items, " and ")
}

// probePair is one (thief, stealee) grid point.
type probePair struct {
	self, stealee *sched.Core
}

// probeProper and probeIdentical are the probe universe's ordered pairs,
// built once and only ever read — Core's read methods are pure — so
// every Analyze call shares them.
var probeProper, probeIdentical = probePairs()

// probeCores builds the probe universe's cores: every DSL-observable
// attribute varies somewhere in the set, so a predicate that is
// constant across all of it has no input left to depend on.
func probeCores() []*sched.Core {
	mk := func(id, node, group, ready int, current bool, weight int64) *sched.Core {
		c := &sched.Core{ID: id, Node: node, Group: group}
		if current {
			c.Current = &sched.Task{ID: sched.TaskID(100*id + 99), Weight: weight}
		}
		for i := 0; i < ready; i++ {
			c.Push(&sched.Task{ID: sched.TaskID(100*id + i), Weight: weight})
		}
		return c
	}
	return []*sched.Core{
		mk(0, 0, 0, 0, false, 1),  // idle
		mk(1, 0, 0, 0, true, 1),   // running, empty queue
		mk(2, 0, 0, 1, true, 1),   // queue 1
		mk(3, 0, 0, 3, true, 1),   // queue 3
		mk(4, 0, 0, 2, true, 5),   // heavy weights
		mk(5, 1, 1, 5, true, 1),   // busy, other node/group
		mk(6, 1, 0, 8, true, 2),   // very busy
		mk(7, 0, 1, 12, false, 1), // deep queue, nothing running
	}
}

// probePairs returns the ordered pairs of distinct cores (proper:
// what the runtime actually offers a filter) and the identical pairs
// (self-steal probes).
func probePairs() (proper, identical []probePair) {
	cores := probeCores()
	for _, a := range cores {
		for _, b := range cores {
			if a.ID == b.ID {
				identical = append(identical, probePair{a, b})
			} else {
				proper = append(proper, probePair{a, b})
			}
		}
	}
	return proper, identical
}

// truthVector evaluates a compiled bool expression over the proper
// pairs.
func truthVector(f boolFn) []bool {
	out := make([]bool, len(probeProper))
	for i, pr := range probeProper {
		out[i] = f(pr.self, pr.stealee)
	}
	return out
}

// implies reports pointwise a ⇒ b.
func implies(a, b []bool) bool {
	for i := range a {
		if a[i] && !b[i] {
			return false
		}
	}
	return true
}
