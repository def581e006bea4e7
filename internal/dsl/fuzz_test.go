package dsl

import (
	"math/rand/v2"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/sched"
)

// FuzzParse feeds arbitrary source to the front end. For every source it
// accepts:
//
//   - Parse → String → Parse reaches a fixpoint: the canonical rendering
//     parses back to a policy that renders identically;
//   - the compiled program agrees with the reference tree walk
//     (referencePolicy) on Load, CanSteal, StealCount, Choose and
//     RescueTarget, over random 2–4-core views drawn from viewSeed.
//
// The seed corpus is testdata/*.pol, two chooser-heavy policies and a
// filter nested far past maxNesting; crashers land in testdata/fuzz.
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
	f.Add("policy deep { filter = "+strings.Repeat("(", 3*maxNesting)+"true"+strings.Repeat(")", 3*maxNesting)+" }", uint64(4))
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
			if err := agree(compiled, ref, m.Cores); err != nil {
				t.Fatalf("%v: %v", m, err)
			}
		}
	})
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
