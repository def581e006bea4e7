package sched_test

import (
	"os"
	"reflect"
	"testing"

	"repro/internal/dsl"
	"repro/internal/policy"
	"repro/internal/sched"
)

// groupedLoads builds a machine of two scheduling groups where core i
// owns loads(i) threads.
func groupedLoads(cores int, loads func(i int) int) *sched.Machine {
	l := make([]int, cores)
	for i := range l {
		l[i] = loads(i)
	}
	m := sched.MachineFromLoads(l...)
	for _, c := range m.Cores {
		c.Group = c.ID * 2 / cores
		c.Node = c.Group
	}
	return m
}

// The executor's lock-free phase is one Select per idle turn on a view it
// owns: once the view's buffers are sized, a selection allocates nothing,
// whether or not the filter keeps a candidate.
func TestSelectAllocatesNothing(t *testing.T) {
	src, err := os.ReadFile("../dsl/testdata/delta2.pol")
	if err != nil {
		t.Fatal(err)
	}
	listing1, _, err := dsl.CompileSource(string(src))
	if err != nil {
		t.Fatal(err)
	}
	policies := []sched.Policy{policy.NewDelta2(), policy.NewHierarchical(), listing1}
	for _, p := range policies {
		for _, cores := range []int{4, 64} {
			for _, tc := range []struct {
				name      string
				loads     func(i int) int
				candidate bool
			}{
				{"candidate", func(i int) int { return i % 4 }, true},
				{"none", func(int) int { return 1 }, false},
			} {
				m := groupedLoads(cores, tc.loads)
				if got := sched.Select(p, m, 0).Victim >= 0; got != tc.candidate {
					t.Fatalf("%s cores=%d %s: a victim was chosen = %v", p.Name(), cores, tc.name, got)
				}
				if n := testing.AllocsPerRun(100, func() { sched.Select(p, m, 0) }); n != 0 {
					t.Errorf("%s cores=%d %s: Select allocates %v objects per call, want 0", p.Name(), cores, tc.name, n)
				}
			}
		}
	}
}

// An attempt's Candidates live in its thief's slot of the view's buffers:
// only the next selection for that thief on that view overwrites them.
func TestSelectOverwritesOnlyItsOwnThiefsCandidates(t *testing.T) {
	p := policy.NewDelta2()
	m := sched.MachineFromLoads(0, 0, 3, 4, 1)
	all := sched.SelectAll(p, m)
	want := make([][]int, len(all))
	for id, att := range all {
		want[id] = append([]int(nil), att.Candidates...)
	}
	// Core 2's queue empties, so thief 0 now finds a different set.
	const k = 0
	m.Core(2).PopTail()
	m.Core(2).PopTail()
	again := sched.Select(p, m, k)
	if reflect.DeepEqual(again.Candidates, want[k]) {
		t.Fatalf("thief %d still selects among %v: the test does not exercise an overwrite", k, want[k])
	}
	if !reflect.DeepEqual(all[k].Candidates[:len(again.Candidates)], again.Candidates) {
		t.Errorf("Select for thief %d did not reuse SelectAll's slot for it", k)
	}
	for id, att := range all {
		if id != k && !reflect.DeepEqual(append([]int(nil), att.Candidates...), want[id]) {
			t.Errorf("Select for thief %d changed thief %d's candidates: %v, were %v", k, id, att.Candidates, want[id])
		}
	}

	// Views do not share buffers: a selection on b leaves a's result alone.
	a, b := sched.MachineFromLoads(0, 3, 3), sched.MachineFromLoads(0, 1, 5)
	onA := sched.Select(p, a, 0)
	sched.Select(p, b, 0)
	if !reflect.DeepEqual(onA.Candidates, []int{1, 2}) {
		t.Errorf("a selection on another view changed this one's candidates to %v", onA.Candidates)
	}

	// Nor does a selection discard the round its machine last ran (the
	// simulator balances idle cores between a round and reading it).
	r := sched.MachineFromLoads(0, 3, 0, 3)
	rr := sched.SequentialRound(p, r)
	moved := rr.TasksMoved()
	sched.Select(p, r, 0)
	if moved == 0 || rr.TasksMoved() != moved || len(rr.Attempts) != r.NumCores() {
		t.Errorf("a selection changed its machine's last round: %d tasks moved, were %d", rr.TasksMoved(), moved)
	}
}
