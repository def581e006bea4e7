package policy

import (
	"testing"
	"testing/quick"

	"repro/internal/sched"
)

// These tests pin the DSL code-generation backend: gen_delta2.go was
// produced by `scheddsl -in internal/dsl/testdata/delta2.pol -gen ...`
// and must stay behaviorally identical to the hand-written Delta2 and to
// the DSL interpreter (checked on the dsl side).

func TestGeneratedDelta2MatchesEverything(t *testing.T) {
	gen := &Delta2Gen{}
	native := NewDelta2()
	f := func(raw []uint8) bool {
		if len(raw) < 2 {
			return true
		}
		if len(raw) > 5 {
			raw = raw[:5]
		}
		loads := make([]int, len(raw))
		for i, r := range raw {
			loads[i] = int(r % 5)
		}
		m := sched.MachineFromLoads(loads...)
		for ti := range m.Cores {
			for si := range m.Cores {
				if ti == si {
					continue
				}
				a, b := m.Core(ti), m.Core(si)
				if gen.CanSteal(a, b) != native.CanSteal(a, b) {
					return false
				}
				if gen.Load(b) != native.Load(b) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 400}); err != nil {
		t.Error(err)
	}
}

func TestGeneratedDelta2Registered(t *testing.T) {
	p, err := New("delta2-gen")
	if err != nil {
		t.Fatal(err)
	}
	if p.Name() != "delta2_gen" {
		t.Errorf("Name = %q", p.Name())
	}
	// The generated chooser is max_load, unlike native delta2's
	// lowest-ID default: on two candidates it must pick the heavier.
	m := sched.MachineFromLoads(0, 2, 4)
	att := sched.Select(p, m, 0)
	if att.Victim != 2 {
		t.Errorf("Victim = %d, want max-load core 2", att.Victim)
	}
}

func TestGeneratedDelta2Balances(t *testing.T) {
	p := &Delta2Gen{}
	m := sched.MachineFromLoads(0, 5, 0, 3)
	for i := 0; i < 16 && !m.WorkConserved(); i++ {
		sched.SequentialRound(p, m)
	}
	if !m.WorkConserved() {
		t.Fatalf("generated policy did not converge: %v", m.Loads())
	}
	if err := m.Validate(); err != nil {
		t.Error(err)
	}
}

func TestGeneratedSupportHelpers(t *testing.T) {
	c := &sched.Core{}
	if currentSize(c) != 0 {
		t.Error("currentSize of empty core != 0")
	}
	c.Current = sched.NewTask(1)
	if currentSize(c) != 1 {
		t.Error("currentSize of running core != 1")
	}
}
