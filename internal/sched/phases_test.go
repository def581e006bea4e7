package sched

import (
	"testing"
	"testing/quick"
)

// Tests for the SelectAll/ExecuteSteals decomposition that backs both
// ConcurrentRound and the verifier's choice adversary.

func TestSelectAllMatchesPerCoreSelect(t *testing.T) {
	p := delta2()
	m := MachineFromLoads(0, 1, 3, 5)
	atts := SelectAll(p, m)
	if len(atts) != 4 {
		t.Fatalf("attempts = %d", len(atts))
	}
	for id := range m.Cores {
		want := Select(p, m, id)
		got := atts[id]
		if got.Thief != want.Thief || got.Victim != want.Victim {
			t.Errorf("core %d: SelectAll %+v vs Select %+v", id, got, want)
		}
	}
}

func TestSelectAllIsSnapshotted(t *testing.T) {
	p := delta2()
	m := MachineFromLoads(0, 3)
	key := m.Key()
	SelectAll(p, m)
	if m.Key() != key {
		t.Error("SelectAll mutated the machine")
	}
}

func TestExecuteStealsDoesNotMutateAttempts(t *testing.T) {
	p := delta2()
	m := MachineFromLoads(0, 0, 3)
	atts := SelectAll(p, m)
	before := make([]Attempt, len(atts))
	copy(before, atts)
	ExecuteSteals(p, m, atts, IdentityOrder(3))
	for i := range atts {
		if atts[i].Moved != before[i].Moved || atts[i].Reason != before[i].Reason {
			t.Errorf("attempt %d mutated: %+v -> %+v", i, before[i], atts[i])
		}
	}
}

func TestExecuteStealsWithOverriddenVictim(t *testing.T) {
	// The choice adversary's move: override the victim with another
	// filter-passing candidate and execute.
	p := delta2()
	m := MachineFromLoads(0, 3, 3)
	atts := SelectAll(p, m)
	if atts[0].Victim != 1 {
		t.Fatalf("default victim = %d", atts[0].Victim)
	}
	atts[0].Victim = 2 // the other candidate
	rr := ExecuteSteals(p, m, atts, IdentityOrder(3))
	found := false
	for _, att := range rr.Attempts {
		if att.Thief == 0 && att.Succeeded() && att.Victim == 2 {
			found = true
		}
	}
	if !found {
		t.Errorf("overridden steal did not execute: %+v", rr.Attempts)
	}
	if got := m.Loads(); got[2] != 2 {
		t.Errorf("Loads = %v, want core 2 drained to 2", got)
	}
}

// Property: ConcurrentRound is exactly SelectAll followed by
// ExecuteSteals — the decomposition must not change semantics.
func TestConcurrentRoundDecompositionProperty(t *testing.T) {
	p := delta2()
	f := func(raw []uint8, rot uint8) bool {
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
		n := len(loads)
		order := make([]int, n)
		for i := range order {
			order[i] = (i + int(rot)) % n
		}
		m1 := MachineFromLoads(loads...)
		m2 := MachineFromLoads(loads...)
		ConcurrentRound(p, m1, order)
		ExecuteSteals(p, m2, SelectAll(p, m2), order)
		return m1.Key() == m2.Key()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// Property: the weighted (TaskPicker) policy also conserves threads and
// validity across concurrent rounds — the picker path through Steal.
func TestPickerRoundConservationProperty(t *testing.T) {
	picker := &pickerPolicy{}
	f := func(raw []uint8, rot uint8) bool {
		if len(raw) < 2 {
			return true
		}
		if len(raw) > 4 {
			raw = raw[:4]
		}
		specs := make([]CoreSpec, len(raw))
		total := 0
		for i, r := range raw {
			n := int(r % 4)
			total += n
			for j := 0; j < n; j++ {
				specs[i].Queued = append(specs[i].Queued, int64(1+(i+j)%3))
			}
		}
		m := MachineFromSpec(specs...)
		n := len(raw)
		order := make([]int, n)
		for i := range order {
			order[i] = (i + int(rot)) % n
		}
		ConcurrentRound(picker, m, order)
		return m.TotalThreads() == total && m.Validate() == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// pickerPolicy is a minimal TaskPicker: weighted gap filter, picks the
// smallest queued task strictly below the gap.
type pickerPolicy struct{}

func (*pickerPolicy) Name() string               { return "picker-test" }
func (*pickerPolicy) Load(c *Core) int64         { return c.WeightSum() }
func (*pickerPolicy) StealCount(_, _ *Core) int  { return 1 }
func (p *pickerPolicy) CanSteal(t, s *Core) bool { return p.PickTask(t, s) != nil }
func (p *pickerPolicy) Choose(t *Core, cands []*Core) *Core {
	return ChooseFirst(t, cands)
}
func (p *pickerPolicy) PickTask(t, s *Core) *Task {
	gap := s.WeightSum() - t.WeightSum()
	var best *Task
	for _, task := range s.Queued() {
		if task.Weight >= gap {
			continue
		}
		if best == nil || task.Weight < best.Weight {
			best = task
		}
	}
	return best
}
