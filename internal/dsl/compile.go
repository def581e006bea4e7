package dsl

import (
	"fmt"

	"repro/internal/sched"
)

// Compile turns a checked policy into an executable sched.Policy — the
// DSL's "kernel backend". The same object is what internal/verify checks,
// so execution and verification consume one artifact, like the paper's
// single DSL source feeding both C and Scala.
//
// The executable program is built once per *Policy, on the first Compile
// call, and cached in p: Parse, ComponentForms and Analyze never pay for
// it, and the verifier's factories, which call Compile once per state
// and per game node, pay for it once. p must not be modified after its
// first Compile. A stateless program — one with no random chooser or
// rescue rule — is handed out as one shared, immutable instance, so
// Compile allocates nothing for it; a random one gets a fresh copy per
// call, whose xorshift states start from the source's seeds. Compile is
// safe for concurrent calls on one p.
func Compile(p *Policy) sched.Policy {
	prog := p.prog.Load()
	if prog == nil {
		// Concurrent first calls may each build a program; they are equal,
		// and all callers go on with the one published first.
		p.prog.CompareAndSwap(nil, newProgram(p))
		prog = p.prog.Load()
	}
	if prog.choose.kind != chooseRandom && prog.rescue.kind != chooseRandom {
		return prog
	}
	// The published program is never handed out, so its states stay at
	// the seeds.
	fresh := *prog
	return &fresh
}

// CompileSource parses, checks and compiles in one step.
func CompileSource(src string) (sched.Policy, *Policy, error) {
	ast, err := Parse(src)
	if err != nil {
		return nil, nil, err
	}
	return Compile(ast), ast, nil
}

// program is the executable form of a parsed policy: the AST, the load
// evaluator its `x.load` references go through, and its compiled
// choosers.
type program struct {
	ast            *Policy
	load           func(*sched.Core) int64
	choose, rescue chooser
}

func newProgram(p *Policy) *program {
	prog := &program{ast: p, load: loadOf(p), choose: newChooser(p.Choose), rescue: chooser{kind: noRescue}}
	if p.Rescue.Name != "" {
		// The rescue rule reuses the chooser vocabulary: the chooser
		// picks, among the online cores, the one that adopts each orphan
		// of the failed core. Without a rescue clause orphans stay
		// stranded.
		prog.rescue = newChooser(p.Rescue)
	}
	return prog
}

// chooserKind is a compiled step-2 heuristic or rescue rule.
type chooserKind int8

const (
	chooseFirst chooserKind = iota
	chooseMaxLoad
	chooseMinLoad
	chooseRandom
	noRescue // the policy has no rescue clause
)

// chooser is a compiled Chooser; state is a random one's xorshift state.
type chooser struct {
	kind  chooserKind
	state uint64
}

func newChooser(c Chooser) chooser {
	switch c.Name {
	case "", "first":
		return chooser{kind: chooseFirst}
	case "max_load":
		return chooser{kind: chooseMaxLoad}
	case "min_load":
		return chooser{kind: chooseMinLoad}
	case "random":
		seed := uint64(c.Seed)
		if seed == 0 {
			seed = 0x9E3779B97F4A7C15
		}
		return chooser{kind: chooseRandom, state: seed}
	}
	panic(fmt.Sprintf("dsl: unknown chooser %q", c.Name))
}

// pick runs the chooser over candidates, which is never empty. Only a
// random chooser writes c.
func (c *chooser) pick(candidates []*sched.Core, load func(*sched.Core) int64) *sched.Core {
	switch c.kind {
	case chooseFirst:
		return sched.ChooseFirst(nil, candidates)
	case chooseMaxLoad, chooseMinLoad:
		// Ties go to the lowest core ID either way.
		best := candidates[0]
		bestLoad := load(best)
		for _, cand := range candidates[1:] {
			l := load(cand)
			better := l > bestLoad
			if c.kind == chooseMinLoad {
				better = l < bestLoad
			}
			if better || (l == bestLoad && cand.ID < best.ID) {
				best, bestLoad = cand, l
			}
		}
		return best
	case chooseRandom:
		c.state ^= c.state << 13
		c.state ^= c.state >> 7
		c.state ^= c.state << 17
		return candidates[c.state%uint64(len(candidates))]
	}
	panic(fmt.Sprintf("dsl: chooser kind %d cannot pick", c.kind))
}

// Name implements sched.Policy.
func (x *program) Name() string { return x.ast.Name }

// Load implements sched.Policy.
func (x *program) Load(c *sched.Core) int64 { return x.load(c) }

// CanSteal implements sched.Policy.
func (x *program) CanSteal(thief, stealee *sched.Core) bool {
	return evalBool(x.ast.Filter, thief, stealee, x.load)
}

// Choose implements sched.Policy.
func (x *program) Choose(_ *sched.Core, candidates []*sched.Core) *sched.Core {
	return x.choose.pick(candidates, x.load)
}

// StealCount implements sched.Policy.
func (x *program) StealCount(thief, stealee *sched.Core) int {
	return int(evalInt(x.ast.Steal, thief, stealee, x.load))
}

var _ sched.Rescuer = (*program)(nil)

// RescueTarget implements sched.Rescuer: the rescue chooser's pick among
// the online candidates, or nil — the task stays stranded — for a
// policy without a rescue clause.
func (x *program) RescueTarget(_ *sched.Core, candidates []*sched.Core) *sched.Core {
	if x.rescue.kind == noRescue {
		return nil
	}
	return x.rescue.pick(candidates, x.load)
}

// loadOf returns the policy's load evaluator (used by `x.load` references
// inside filter/steal expressions).
func loadOf(p *Policy) func(*sched.Core) int64 {
	return func(c *sched.Core) int64 {
		return evalInt(p.Load, c, nil, nil) // load cannot reference load
	}
}

// evalInt evaluates an int-typed expression. self is the thief (or the
// measured core in load context); stealee may be nil in load context.
func evalInt(e expr, self, stealee *sched.Core, load func(*sched.Core) int64) int64 {
	switch n := e.(type) {
	case *intLit:
		return n.val
	case *attrRef:
		core := self
		if n.root == rootStealee {
			core = stealee
		}
		return attrValue(n.attr, core, load)
	case *unary: // "-"
		return -evalInt(n.x, self, stealee, load)
	case *binary:
		l := evalInt(n.l, self, stealee, load)
		r := evalInt(n.r, self, stealee, load)
		switch n.op {
		case "+":
			return l + r
		case "-":
			return l - r
		case "*":
			return l * r
		case "/":
			if r == 0 {
				return 0 // total semantics: x/0 = 0, as in Leon/SMT practice
			}
			return l / r
		case "%":
			if r == 0 {
				return 0
			}
			return l % r
		}
	}
	panic(fmt.Sprintf("dsl: evalInt on %T", e))
}

// evalBool evaluates a bool-typed expression.
func evalBool(e expr, self, stealee *sched.Core, load func(*sched.Core) int64) bool {
	switch n := e.(type) {
	case *boolLit:
		return n.val
	case *unary: // "!"
		return !evalBool(n.x, self, stealee, load)
	case *binary:
		switch n.op {
		case "&&":
			return evalBool(n.l, self, stealee, load) && evalBool(n.r, self, stealee, load)
		case "||":
			return evalBool(n.l, self, stealee, load) || evalBool(n.r, self, stealee, load)
		}
		l := evalInt(n.l, self, stealee, load)
		r := evalInt(n.r, self, stealee, load)
		switch n.op {
		case "==":
			return l == r
		case "!=":
			return l != r
		case "<":
			return l < r
		case "<=":
			return l <= r
		case ">":
			return l > r
		case ">=":
			return l >= r
		}
	}
	panic(fmt.Sprintf("dsl: evalBool on %T", e))
}

func attrValue(a coreAttr, c *sched.Core, load func(*sched.Core) int64) int64 {
	switch a {
	case attrLoad:
		if load == nil {
			panic("dsl: load reference without a load function")
		}
		return load(c)
	case attrNThreads:
		return int64(c.NThreads())
	case attrReadySize:
		return int64(len(c.Queued()))
	case attrCurrent:
		if c.Current != nil {
			return 1
		}
		return 0
	case attrWeightSum:
		return c.WeightSum()
	case attrID:
		return int64(c.ID)
	case attrGroup:
		return int64(c.Group)
	case attrNode:
		return int64(c.Node)
	}
	panic(fmt.Sprintf("dsl: unknown attribute %d", a))
}
