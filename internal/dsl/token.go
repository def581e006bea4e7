// Package dsl implements the paper's scheduling-policy domain-specific
// language. The paper compiles one policy source to two backends — C for
// the Linux kernel and Scala for the Leon verifier; this package mirrors
// the pipeline with two Go backends: a sched.Policy whose clauses are
// compiled once to closures (Compile), for execution (simulator,
// executor, verifier), and a Go source-code generator (Generate)
// standing in for the kernel backend.
//
// A policy file looks like Listing 1:
//
//	# The simple balancer of Listing 1.
//	policy delta2 {
//	    load   = self.ready.size + self.current.size
//	    filter = stealee.load - thief.load >= 2
//	    steal  = 1
//	    choose = max_load
//	}
//
// `load` defines the per-core load metric (paths rooted at self/core),
// `filter` is the step-1 predicate over thief/stealee, `steal` sizes the
// step-3 migration, and `choose` picks a step-2 heuristic by name —
// heuristics are deliberately *names, not expressions*, because the
// paper's proofs never depend on the choice step.
package dsl

import "fmt"

// tokenKind classifies lexical tokens.
type tokenKind int8

const (
	tokEOF tokenKind = iota
	tokIdent
	tokInt
	tokPunct // single/double-character operators and delimiters
)

// token is one lexical unit with its source position.
type token struct {
	kind tokenKind
	text string
	line int
	col  int
}

func (t token) String() string {
	switch t.kind {
	case tokEOF:
		return "end of file"
	case tokInt:
		return fmt.Sprintf("number %q", t.text)
	case tokIdent:
		return fmt.Sprintf("identifier %q", t.text)
	default:
		return fmt.Sprintf("%q", t.text)
	}
}

// Error is a DSL front-end error with source position.
type Error struct {
	Line, Col int
	Msg       string
}

// Error implements the error interface.
func (e *Error) Error() string {
	return fmt.Sprintf("dsl: %d:%d: %s", e.Line, e.Col, e.Msg)
}

func errf(line, col int, format string, args ...any) *Error {
	return &Error{Line: line, Col: col, Msg: fmt.Sprintf(format, args...)}
}
