package sched_test

import (
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/policy"
	"repro/internal/sched"
)

// randomGroupedMachine draws up to eight cores (the default topology's
// width, for numa-aware) with weighted tasks, unscheduled and offline
// cores and group labels.
func randomGroupedMachine(r *rand.Rand) *sched.Machine {
	specs := make([]sched.CoreSpec, 1+r.Intn(8))
	weight := func() int64 { return int64(256) << uint(r.Intn(5)) }
	for i := range specs {
		if r.Intn(3) > 0 {
			specs[i].Running = weight()
		}
		for n := r.Intn(6); n > 0; n-- {
			specs[i].Queued = append(specs[i].Queued, weight())
		}
	}
	m := sched.MachineFromSpec(specs...)
	groups := 1 + r.Intn(3)
	for _, c := range m.Cores {
		c.Offline = r.Intn(5) == 0
		c.Group = c.ID * groups / len(m.Cores)
		c.Node = c.Group
	}
	return m
}

func mustNew(t *testing.T, name string) sched.Policy {
	t.Helper()
	p, err := policy.New(name)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// SelectAll takes no snapshot and observes once. That must be invisible:
// for every registered policy it returns what selecting for each thief in
// turn — observation included — against a private copy of the machine
// returns, and it leaves the machine as it found it.
func TestSelectAllIsPerThiefSelectOnAClone(t *testing.T) {
	for _, name := range policy.Names() {
		name := name
		check := func(seed int64) bool {
			m := randomGroupedMachine(rand.New(rand.NewSource(seed)))
			key := m.Key()
			all, one := mustNew(t, name), mustNew(t, name)
			got := sched.SelectAll(all, m)
			if m.Key() != key {
				t.Errorf("%s seed %d: SelectAll changed the machine: %s -> %s", name, seed, key, m.Key())
				return false
			}
			view := m.Clone()
			for id := range m.Cores {
				want := sched.Select(one, view, id)
				if fmt.Sprintf("%+v", got[id]) != fmt.Sprintf("%+v", want) {
					t.Errorf("%s seed %d machine %s thief %d:\n SelectAll %+v\n Select    %+v", name, seed, key, id, got[id], want)
					return false
				}
			}
			return view.Key() == key
		}
		if err := quick.Check(check, &quick.Config{MaxCount: 200}); err != nil {
			t.Errorf("%s: %v", name, err)
		}
	}
}
