package dsl

import (
	"fmt"

	"repro/internal/sched"
)

// The reference semantics: a tree-walking evaluator, an implementation
// independent of Compile's closures for the differential tests
// (FuzzParse, TestCompiledMatchesReference) to hold Compile to. It
// evaluates every node through a type switch and every operator through
// a string compare, and folds nothing.

// referencePolicy builds p's policy as a set of closures over the tree
// walk, one chooser state per closure.
func referencePolicy(p *Policy) *sched.FuncPolicy {
	load := loadOf(p)
	fp := &sched.FuncPolicy{
		PolicyName: p.Name,
		LoadFn:     load,
		FilterFn: func(thief, stealee *sched.Core) bool {
			return evalBool(p.Filter, thief, stealee, load)
		},
		ChooseFn: referenceChooser(p.Choose, load),
		CountFn: func(thief, stealee *sched.Core) int {
			return int(evalInt(p.Steal, thief, stealee, load))
		},
	}
	if p.Rescue.Name != "" {
		fp.RescueFn = referenceChooser(p.Rescue, load)
	}
	return fp
}

func referenceChooser(c Chooser, load func(*sched.Core) int64) sched.ChooseFunc {
	switch c.Name {
	case "max_load":
		return sched.ChooseMaxLoad(load)
	case "min_load":
		return func(_ *sched.Core, candidates []*sched.Core) *sched.Core {
			best := candidates[0]
			for _, cand := range candidates[1:] {
				if l, bl := load(cand), load(best); l < bl || (l == bl && cand.ID < best.ID) {
					best = cand
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
	return sched.ChooseFirst
}

// agree compares every decision the two policies make on a machine's
// cores: those of each ordered pair of distinct cores, and Choose and
// RescueTarget over each thief's candidates.
func agree(compiled, ref sched.Policy, cores []*sched.Core) error {
	for _, thief := range cores {
		var others []*sched.Core
		for _, stealee := range cores {
			if stealee == thief {
				continue
			}
			others = append(others, stealee)
			if err := agreeOnPair(compiled, ref, thief, stealee); err != nil {
				return err
			}
		}
		if got, want := compiled.Choose(thief, others), ref.Choose(thief, others); got != want {
			return fmt.Errorf("Choose for c%d picked c%d, the reference picks c%d", thief.ID, got.ID, want.ID)
		}
		got := compiled.(sched.Rescuer).RescueTarget(thief, others)
		if want := ref.(sched.Rescuer).RescueTarget(thief, others); got != want {
			return fmt.Errorf("RescueTarget for c%d is %v, the reference says %v", thief.ID, got, want)
		}
	}
	return nil
}

// agreeOnPair compares Load of both cores, CanSteal and StealCount.
func agreeOnPair(compiled, ref sched.Policy, thief, stealee *sched.Core) error {
	for _, c := range [2]*sched.Core{thief, stealee} {
		if got, want := compiled.Load(c), ref.Load(c); got != want {
			return fmt.Errorf("Load(c%d) = %d, the reference says %d", c.ID, got, want)
		}
	}
	if got, want := compiled.CanSteal(thief, stealee), ref.CanSteal(thief, stealee); got != want {
		return fmt.Errorf("CanSteal(c%d, c%d) = %v, the reference says %v", thief.ID, stealee.ID, got, want)
	}
	if got, want := compiled.StealCount(thief, stealee), ref.StealCount(thief, stealee); got != want {
		return fmt.Errorf("StealCount(c%d, c%d) = %d, the reference says %d", thief.ID, stealee.ID, got, want)
	}
	return nil
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
