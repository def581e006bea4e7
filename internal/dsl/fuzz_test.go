package dsl

import (
	"math/rand/v2"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/sched"
)

// FuzzParse feeds arbitrary source to the front end. For every source it
// accepts:
//
//   - Parse → String → Parse reaches a fixpoint: the canonical rendering
//     parses back to a policy that renders identically;
//   - the compiled program agrees with a closure set built straight from
//     the AST on the evaluator (referencePolicy) on Load, CanSteal,
//     StealCount, Choose and RescueTarget, over random 2–4-core views
//     drawn from viewSeed.
//
// The seed corpus is testdata/*.pol; crashers land in testdata/fuzz.
func FuzzParse(f *testing.F) {
	files, err := filepath.Glob("testdata/*.pol")
	if err != nil {
		f.Fatal(err)
	}
	for _, name := range files {
		src, err := os.ReadFile(name)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(string(src), uint64(1))
	}
	f.Add(randomBoth, uint64(2))
	f.Add(rescueMinLoad, uint64(3))
	f.Fuzz(func(t *testing.T, src string, viewSeed uint64) {
		p, err := Parse(src)
		if err != nil {
			return
		}
		canon := p.String()
		again, err := Parse(canon)
		if err != nil {
			t.Fatalf("the canonical form does not parse: %v\n%s", err, canon)
		}
		if got := again.String(); got != canon {
			t.Fatalf("Parse → String is not a fixpoint:\n%s\nrenders as\n%s", canon, got)
		}

		compiled, ref := Compile(p), referencePolicy(p)
		rng := rand.New(rand.NewPCG(viewSeed, 0x5eed))
		for view := 0; view < 8; view++ {
			m := randomView(rng)
			for _, c := range m.Cores {
				if got, want := compiled.Load(c), ref.Load(c); got != want {
					t.Fatalf("%v: Load(c%d) = %d, closures say %d", m, c.ID, got, want)
				}
			}
			for _, thief := range m.Cores {
				var others []*sched.Core
				for _, stealee := range m.Cores {
					if stealee == thief {
						continue
					}
					others = append(others, stealee)
					if got, want := compiled.CanSteal(thief, stealee), ref.CanSteal(thief, stealee); got != want {
						t.Fatalf("%v: CanSteal(c%d, c%d) = %v, closures say %v", m, thief.ID, stealee.ID, got, want)
					}
					if got, want := compiled.StealCount(thief, stealee), ref.StealCount(thief, stealee); got != want {
						t.Fatalf("%v: StealCount(c%d, c%d) = %d, closures say %d", m, thief.ID, stealee.ID, got, want)
					}
				}
				if got, want := compiled.Choose(thief, others), ref.Choose(thief, others); got != want {
					t.Fatalf("%v: Choose for c%d picked c%d, closures pick c%d", m, thief.ID, got.ID, want.ID)
				}
				got := compiled.(sched.Rescuer).RescueTarget(thief, others)
				if want := ref.RescueTarget(thief, others); got != want {
					t.Fatalf("%v: RescueTarget for c%d is %v, closures say %v", m, thief.ID, got, want)
				}
			}
		}
	})
}

// referencePolicy builds p's policy as a set of closures over the
// evaluator, one chooser state per closure: the per-call construction
// Compile's cached program replaces.
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

// randomView is a machine of 2–4 cores in up to two groups, each running
// at most one task and queueing up to three, with weights from three
// classes.
func randomView(rng *rand.Rand) *sched.Machine {
	weights := []int64{512, sched.DefaultWeight, 2048}
	specs := make([]sched.CoreSpec, 2+rng.IntN(3))
	for i := range specs {
		if rng.IntN(2) == 1 {
			specs[i].Running = weights[rng.IntN(len(weights))]
		}
		for range rng.IntN(4) {
			specs[i].Queued = append(specs[i].Queued, weights[rng.IntN(len(weights))])
		}
	}
	m := machineFromSpec(specs...)
	for _, c := range m.Cores {
		c.Group = rng.IntN(2)
		c.Node = c.Group
	}
	return m
}
