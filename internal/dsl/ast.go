package dsl

import (
	"fmt"
	"strings"
	"sync/atomic"
)

// typ is the DSL's two-type system.
type typ int8

const (
	typInt typ = iota
	typBool
)

func (t typ) String() string {
	if t == typBool {
		return "bool"
	}
	return "int"
}

// expr is a typed expression node.
type expr interface {
	fmt.Stringer
	// typ is set during checking; nodes are created untyped by the
	// parser and annotated by the checker.
	exprType() typ
}

// intLit is an integer literal.
type intLit struct {
	val int64
}

func (e *intLit) exprType() typ  { return typInt }
func (e *intLit) String() string { return fmt.Sprintf("%d", e.val) }

// boolLit is true/false.
type boolLit struct {
	val bool
}

func (e *boolLit) exprType() typ  { return typBool }
func (e *boolLit) String() string { return fmt.Sprintf("%v", e.val) }

// attrRef is a dotted path like `stealee.load` or `self.ready.size`. The
// checker resolves root (which core) and attribute (which metric).
type attrRef struct {
	path []string
	line int
	col  int

	// Resolved by the checker:
	root coreRoot
	attr coreAttr
}

func (e *attrRef) exprType() typ  { return typInt }
func (e *attrRef) String() string { return strings.Join(e.path, ".") }

// coreRoot identifies which core a path refers to.
type coreRoot int8

const (
	rootSelf    coreRoot = iota // the measured core (load) / the thief (filter, steal)
	rootStealee                 // the filter/steal counterpart
)

// coreAttr identifies the resolved core metric.
type coreAttr int8

const (
	attrLoad      coreAttr = iota // the policy's own load function
	attrNThreads                  // thread count including current
	attrReadySize                 // runqueue length
	attrCurrent                   // 0 or 1
	attrWeightSum                 // sum of weights
	attrID                        // core ID
	attrGroup                     // scheduling group
	attrNode                      // NUMA node
)

var attrNames = map[coreAttr]string{
	attrLoad: "load", attrNThreads: "nthreads", attrReadySize: "ready.size",
	attrCurrent: "current.size", attrWeightSum: "weight.sum",
	attrID: "id", attrGroup: "group", attrNode: "node",
}

// unary is -x or !x.
type unary struct {
	op string
	x  expr
	t  typ
}

func (e *unary) exprType() typ  { return e.t }
func (e *unary) String() string { return e.op + e.x.String() }

// binary is a two-operand operation.
type binary struct {
	op   string
	l, r expr
	t    typ
	line int
	col  int
}

func (e *binary) exprType() typ { return e.t }
func (e *binary) String() string {
	return fmt.Sprintf("(%s %s %s)", e.l, e.op, e.r)
}

// Chooser names a step-2 heuristic.
type Chooser struct {
	// Name is one of first, max_load, min_load, random.
	Name string
	// Seed parameterizes random.
	Seed int64
}

// Policy is a parsed, checked policy definition.
type Policy struct {
	// Name is the policy's declared name.
	Name string
	// Load is the load metric expression (int, roots: self).
	Load expr
	// LoadDeclared records whether the source had an explicit load
	// clause, as opposed to the parser's self.nthreads default — the
	// linter flags a declared load that nothing consumes.
	LoadDeclared bool
	// Filter is the step-1 predicate (bool, roots: thief/self, stealee).
	Filter expr
	// Steal is the step-3 count expression (int, roots: thief/self,
	// stealee).
	Steal expr
	// Choose is the step-2 heuristic.
	Choose Chooser
	// Rescue is the fail-stop rescue rule: the chooser that picks which
	// online core adopts each task orphaned by a core failure. A nil
	// Name means no rescue — orphans stay stranded until the core
	// revives, which is the behavior the no-task-lost obligation
	// refutes.
	Rescue Chooser

	// prog is the executable program, built by the first Compile.
	prog atomic.Pointer[program]
}

// String renders the policy back to canonical DSL form.
func (p *Policy) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "policy %s {\n", p.Name)
	fmt.Fprintf(&b, "    load   = %s\n", p.Load)
	fmt.Fprintf(&b, "    filter = %s\n", p.Filter)
	fmt.Fprintf(&b, "    steal  = %s\n", p.Steal)
	if p.Choose.Name == "random" {
		fmt.Fprintf(&b, "    choose = random(%d)\n", p.Choose.Seed)
	} else {
		fmt.Fprintf(&b, "    choose = %s\n", p.Choose.Name)
	}
	if p.Rescue.Name != "" {
		if p.Rescue.Name == "random" {
			fmt.Fprintf(&b, "    rescue = random(%d)\n", p.Rescue.Seed)
		} else {
			fmt.Fprintf(&b, "    rescue = %s\n", p.Rescue.Name)
		}
	}
	b.WriteString("}\n")
	return b.String()
}
