package dsl

import (
	"fmt"

	"repro/internal/sched"
)

// Compile turns a checked policy into an executable sched.Policy — the
// DSL's "kernel backend". The same object is what internal/verify checks,
// so execution and verification consume one artifact, like the paper's
// single DSL source feeding both C and Scala.
func Compile(p *Policy) sched.Policy {
	// One load evaluator per compiled policy, not one per evaluation.
	loadFn := loadOf(p)
	fp := &sched.FuncPolicy{
		PolicyName: p.Name,
		LoadFn:     loadFn,
		FilterFn: func(thief, stealee *sched.Core) bool {
			return evalBool(p.Filter, thief, stealee, loadFn)
		},
		ChooseFn: compileChooser(p.Choose, loadFn),
		CountFn: func(thief, stealee *sched.Core) int {
			return int(evalInt(p.Steal, thief, stealee, loadFn))
		},
	}
	if p.Rescue.Name != "" {
		// The rescue rule reuses the chooser vocabulary: the chooser
		// picks, among the online cores, the one that adopts each orphan
		// of the failed core. Policies without a rescue clause leave
		// RescueFn nil, i.e. orphans stay stranded.
		rescue := compileChooser(p.Rescue, loadFn)
		fp.RescueFn = func(failed *sched.Core, _ *sched.Task, candidates []*sched.Core) *sched.Core {
			return rescue(failed, candidates)
		}
	}
	return fp
}

// CompileSource parses, checks and compiles in one step.
func CompileSource(src string) (sched.Policy, *Policy, error) {
	ast, err := Parse(src)
	if err != nil {
		return nil, nil, err
	}
	return Compile(ast), ast, nil
}

// loadOf returns the policy's load evaluator (used by `x.load` references
// inside filter/steal expressions).
func loadOf(p *Policy) func(*sched.Core) int64 {
	return func(c *sched.Core) int64 {
		return evalInt(p.Load, c, nil, nil) // load cannot reference load
	}
}

func compileChooser(c Chooser, load func(*sched.Core) int64) sched.ChooseFunc {
	switch c.Name {
	case "", "first":
		return sched.ChooseFirst
	case "max_load":
		return sched.ChooseMaxLoad(load)
	case "min_load":
		return func(_ *sched.Core, candidates []*sched.Core) *sched.Core {
			best := candidates[0]
			bestLoad := load(best)
			for _, cand := range candidates[1:] {
				if l := load(cand); l < bestLoad || (l == bestLoad && cand.ID < best.ID) {
					best, bestLoad = cand, l
				}
			}
			return best
		}
	case "random":
		state := uint64(c.Seed)
		if state == 0 {
			state = 0x9E3779B97F4A7C15
		}
		return func(_ *sched.Core, candidates []*sched.Core) *sched.Core {
			state ^= state << 13
			state ^= state >> 7
			state ^= state << 17
			return candidates[state%uint64(len(candidates))]
		}
	}
	panic(fmt.Sprintf("dsl: unknown chooser %q", c.Name))
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
		return int64(len(c.Ready))
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
