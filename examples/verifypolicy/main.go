// Verifypolicy shows the verification workflow through the session API:
// write policies as plain Go, install them with WithPolicyFactory,
// check them against the paper's proof obligations with Cluster.Verify
// (parallel across obligations, cancellable), and read the
// counterexamples the checker produces for broken filters.
//
// Three policies are checked:
//
//   - a Delta2 variant with a custom step-2 heuristic — passes everything,
//     demonstrating the paper's claim that the choice step needs no proof;
//
//   - an overly timid filter (gap >= 3) — fails Lemma 1's exists-
//     direction: an idle core cannot steal from a load-2 overloaded core;
//
//   - the §4.3 greedy filter — sequentially fine, but the checker finds
//     the concurrent ping-pong livelock automatically.
//
//     go run ./examples/verifypolicy
package main

import (
	"context"
	"fmt"

	optsched "repro"
	"repro/internal/policy"
	"repro/internal/sched"
)

// fancyChooser is an arbitrary placement heuristic: prefer even core IDs,
// then the most loaded. Heuristics like this never affect the proofs.
func fancyChooser(load func(*sched.Core) int64) sched.ChooseFunc {
	return func(_ *sched.Core, candidates []*sched.Core) *sched.Core {
		best := candidates[0]
		key := func(c *sched.Core) int64 {
			k := load(c)
			if c.ID%2 == 0 {
				k += 1 << 20
			}
			return k
		}
		for _, c := range candidates[1:] {
			if key(c) > key(best) {
				best = c
			}
		}
		return best
	}
}

func delta2Fancy() optsched.Policy {
	p := policy.NewDelta2()
	p.Chooser = fancyChooser(p.Load)
	return p
}

// delta3 steals only across a gap of 3 — too timid: an idle core facing
// a load-2 overloaded core has no candidate, violating Lemma 1.
func delta3() optsched.Policy {
	load := func(c *sched.Core) int64 { return int64(c.NThreads()) }
	return &optsched.FuncPolicy{
		PolicyName: "delta3-timid",
		LoadFn:     load,
		FilterFn: func(thief, stealee *sched.Core) bool {
			return load(stealee)-load(thief) >= 3
		},
	}
}

func main() {
	ctx := context.Background()
	cases := []struct {
		banner  string
		name    string
		factory func() optsched.Policy
	}{
		{"== Delta2 with a custom placement heuristic ==\n(the paper's point: step 2 carries no proof obligations)",
			"delta2-fancy-choice", delta2Fancy},
		{"\n== an overly timid filter (gap >= 3) ==", "delta3-timid", delta3},
		{"\n== the paper's greedy counterexample ==", "greedy-buggy",
			func() optsched.Policy { p, _ := optsched.NewPolicy("greedy-buggy"); return p }},
	}
	for _, tc := range cases {
		fmt.Println(tc.banner)
		c, err := optsched.New(optsched.WithPolicyFactory(tc.name, tc.factory))
		if err != nil {
			panic(err)
		}
		rep, err := c.Verify(ctx)
		if err != nil {
			panic(err)
		}
		fmt.Println(rep)
	}
}
