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
// The executable program — each clause compiled to a tree of closures —
// is built once per *Policy, on the first Compile call, and cached in p:
// Parse and ComponentForms never pay for it, Analyze builds its own into
// a local it never publishes, and the verifier's factories, which call
// Compile once per state and per game node, pay for it once. p must not be modified after its
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

// program is the executable form of a parsed policy: its clauses
// compiled to closures, and its compiled choosers.
type program struct {
	name           string
	load, steal    intFn
	filter         boolFn
	choose, rescue chooser
}

func newProgram(p *Policy) *program {
	load := compileInt(p.Load, nil) // the load clause cannot reference load
	prog := &program{
		name:   p.Name,
		load:   load,
		filter: compileBool(p.Filter, load),
		steal:  compileInt(p.Steal, load),
		choose: newChooser(p.Choose),
		rescue: chooser{kind: noRescue},
	}
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
func (c *chooser) pick(candidates []*sched.Core, load intFn) *sched.Core {
	switch c.kind {
	case chooseFirst:
		return sched.ChooseFirst(nil, candidates)
	case chooseMaxLoad, chooseMinLoad:
		// Ties go to the lowest core ID either way.
		best := candidates[0]
		bestLoad := load(best, nil)
		for _, cand := range candidates[1:] {
			l := load(cand, nil)
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
func (x *program) Name() string { return x.name }

// Load implements sched.Policy.
func (x *program) Load(c *sched.Core) int64 { return x.load(c, nil) }

// CanSteal implements sched.Policy.
func (x *program) CanSteal(thief, stealee *sched.Core) bool { return x.filter(thief, stealee) }

// Choose implements sched.Policy.
func (x *program) Choose(_ *sched.Core, candidates []*sched.Core) *sched.Core {
	return x.choose.pick(candidates, x.load)
}

// StealCount implements sched.Policy.
func (x *program) StealCount(thief, stealee *sched.Core) int { return int(x.steal(thief, stealee)) }

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

// intFn and boolFn are compiled expressions. self is the thief, or the
// measured core in the load clause; stealee is nil in the load clause.
type (
	intFn  func(self, stealee *sched.Core) int64
	boolFn func(self, stealee *sched.Core) bool
)

// compileInt compiles an int-typed expression into a tree of closures,
// once: every attribute read and every operator is chosen here, so a
// call pays for neither a node type switch nor an operator compare.
// load is the compiled load clause, which `x.load` references call.
func compileInt(e expr, load intFn) intFn {
	switch n := e.(type) {
	case *intLit:
		v := n.val
		return func(_, _ *sched.Core) int64 { return v }
	case *attrRef:
		return compileAttr(n.root, n.attr, load)
	case *unary: // "-"
		x := compileInt(n.x, load)
		return func(s, t *sched.Core) int64 { return -x(s, t) }
	case *binary:
		if root, ok := threadSum(n); ok {
			return compileAttr(root, attrNThreads, load)
		}
		l, r := compileInt(n.l, load), compileInt(n.r, load)
		switch n.op {
		case "+":
			return func(s, t *sched.Core) int64 { return l(s, t) + r(s, t) }
		case "-":
			return func(s, t *sched.Core) int64 { return l(s, t) - r(s, t) }
		case "*":
			return func(s, t *sched.Core) int64 { return l(s, t) * r(s, t) }
		case "/":
			return func(s, t *sched.Core) int64 {
				a, b := l(s, t), r(s, t)
				if b == 0 {
					return 0 // total semantics: x/0 = 0, as in Leon/SMT practice
				}
				return a / b
			}
		case "%":
			return func(s, t *sched.Core) int64 {
				a, b := l(s, t), r(s, t)
				if b == 0 {
					return 0
				}
				return a % b
			}
		}
	}
	panic(fmt.Sprintf("dsl: compileInt on %T", e))
}

// compileBool compiles a bool-typed expression; && and || short-circuit.
func compileBool(e expr, load intFn) boolFn {
	switch n := e.(type) {
	case *boolLit:
		v := n.val
		return func(_, _ *sched.Core) bool { return v }
	case *unary: // "!"
		x := compileBool(n.x, load)
		return func(s, t *sched.Core) bool { return !x(s, t) }
	case *binary:
		switch n.op {
		case "&&":
			l, r := compileBool(n.l, load), compileBool(n.r, load)
			return func(s, t *sched.Core) bool { return l(s, t) && r(s, t) }
		case "||":
			l, r := compileBool(n.l, load), compileBool(n.r, load)
			return func(s, t *sched.Core) bool { return l(s, t) || r(s, t) }
		}
		l := compileInt(n.l, load)
		if lit, ok := n.r.(*intLit); ok {
			return compileCompareConst(n.op, l, lit.val)
		}
		r := compileInt(n.r, load)
		switch n.op {
		case "==":
			return func(s, t *sched.Core) bool { return l(s, t) == r(s, t) }
		case "!=":
			return func(s, t *sched.Core) bool { return l(s, t) != r(s, t) }
		case "<":
			return func(s, t *sched.Core) bool { return l(s, t) < r(s, t) }
		case "<=":
			return func(s, t *sched.Core) bool { return l(s, t) <= r(s, t) }
		case ">":
			return func(s, t *sched.Core) bool { return l(s, t) > r(s, t) }
		case ">=":
			return func(s, t *sched.Core) bool { return l(s, t) >= r(s, t) }
		}
	}
	panic(fmt.Sprintf("dsl: compileBool on %T", e))
}

// compileCompareConst compiles a comparison whose right operand is a
// literal, the shape of most filters (`stealee.load - self.load >= 2`).
func compileCompareConst(op string, l intFn, v int64) boolFn {
	switch op {
	case "==":
		return func(s, t *sched.Core) bool { return l(s, t) == v }
	case "!=":
		return func(s, t *sched.Core) bool { return l(s, t) != v }
	case "<":
		return func(s, t *sched.Core) bool { return l(s, t) < v }
	case "<=":
		return func(s, t *sched.Core) bool { return l(s, t) <= v }
	case ">":
		return func(s, t *sched.Core) bool { return l(s, t) > v }
	case ">=":
		return func(s, t *sched.Core) bool { return l(s, t) >= v }
	}
	panic(fmt.Sprintf("dsl: unknown comparison %q", op))
}

// threadSum reports whether b is `x.ready.size + x.current.size` (either
// order) on one core x — Listing 1's load, which is that core's
// NThreads.
func threadSum(b *binary) (coreRoot, bool) {
	l, lok := b.l.(*attrRef)
	r, rok := b.r.(*attrRef)
	if b.op != "+" || !lok || !rok || l.root != r.root {
		return 0, false
	}
	pair := [2]coreAttr{l.attr, r.attr}
	return l.root, pair == [2]coreAttr{attrReadySize, attrCurrent} || pair == [2]coreAttr{attrCurrent, attrReadySize}
}

// compileAttr returns the reader of one attribute of one core, self or
// stealee.
func compileAttr(root coreRoot, attr coreAttr, load intFn) intFn {
	if attr == attrLoad && load == nil {
		panic("dsl: load reference without a load function")
	}
	if root == rootStealee {
		switch attr {
		case attrLoad:
			return func(_, c *sched.Core) int64 { return load(c, nil) }
		case attrNThreads:
			return func(_, c *sched.Core) int64 { return int64(c.NThreads()) }
		case attrReadySize:
			return func(_, c *sched.Core) int64 { return int64(len(c.Queued())) }
		case attrCurrent:
			return func(_, c *sched.Core) int64 { return running(c) }
		case attrWeightSum:
			return func(_, c *sched.Core) int64 { return c.WeightSum() }
		case attrID:
			return func(_, c *sched.Core) int64 { return int64(c.ID) }
		case attrGroup:
			return func(_, c *sched.Core) int64 { return int64(c.Group) }
		case attrNode:
			return func(_, c *sched.Core) int64 { return int64(c.Node) }
		}
	} else {
		switch attr {
		case attrLoad:
			return func(c, _ *sched.Core) int64 { return load(c, nil) }
		case attrNThreads:
			return func(c, _ *sched.Core) int64 { return int64(c.NThreads()) }
		case attrReadySize:
			return func(c, _ *sched.Core) int64 { return int64(len(c.Queued())) }
		case attrCurrent:
			return func(c, _ *sched.Core) int64 { return running(c) }
		case attrWeightSum:
			return func(c, _ *sched.Core) int64 { return c.WeightSum() }
		case attrID:
			return func(c, _ *sched.Core) int64 { return int64(c.ID) }
		case attrGroup:
			return func(c, _ *sched.Core) int64 { return int64(c.Group) }
		case attrNode:
			return func(c, _ *sched.Core) int64 { return int64(c.Node) }
		}
	}
	panic(fmt.Sprintf("dsl: unknown attribute %d", attr))
}

// running is current.size: 1 while the core runs a task, else 0.
func running(c *sched.Core) int64 {
	if c.Current != nil {
		return 1
	}
	return 0
}
