package sched_test

import (
	"fmt"
	"reflect"
	"testing"

	"repro/internal/dsl"
	"repro/internal/policy"
	"repro/internal/sched"
)

// TestDecideStealMatchesSteal pins the kernel contract the backends rely
// on: the step-3 decision taken on two read-only views is exactly what
// Steal does to a machine built from the same views — same reason, same
// count, same tasks — and the views themselves are left untouched. It
// covers a native policy, a TaskPicker and a DSL-compiled policy whose
// steal count needs the clamp, with either side online or fail-stopped.
func TestDecideStealMatchesSteal(t *testing.T) {
	grab, _, err := dsl.CompileSource(
		`policy grab { filter = stealee.load - self.load >= 2 steal = stealee.load }`)
	if err != nil {
		t.Fatal(err)
	}
	policies := []sched.Policy{policy.NewDelta2(), policy.NewWeighted(), grab}

	var specs []sched.CoreSpec
	for _, running := range []int64{0, 2} {
		for _, queued := range [][]int64{nil, {1}, {3, 1}, {1, 2, 3}} {
			specs = append(specs, sched.CoreSpec{Running: running, Queued: queued})
		}
	}
	for _, p := range policies {
		seen := map[sched.FailureReason]int{}
		for _, ts := range specs {
			for _, vs := range specs {
				for offline := 0; offline < 3; offline++ {
					m := sched.MachineFromSpec(ts, vs)
					if offline > 0 {
						m.Core(offline - 1).Offline = true
					}
					name := fmt.Sprintf("%s %v<-%v offline=%d", p.Name(), ts, vs, offline)
					views := m.Clone()
					n, pick, reason := sched.DecideSteal(p, views.Core(0), views.Core(1))
					if views.Key() != m.Key() {
						t.Fatalf("%s: DecideSteal mutated its views", name)
					}
					var want []sched.TaskID
					if pick != nil {
						want = []sched.TaskID{pick.ID}
					} else if reason == sched.FailNone {
						ready := views.Core(1).Queued()
						for i := 0; i < n; i++ {
							want = append(want, ready[len(ready)-1-i].ID)
						}
					}

					att := sched.Attempt{Thief: 0, Victim: 1}
					sched.Steal(p, m, &att)
					if att.Reason != reason {
						t.Fatalf("%s: Steal reason %v, decision %v", name, att.Reason, reason)
					}
					seen[reason]++
					if reason != sched.FailNone {
						if n != 0 || pick != nil || att.Moved != 0 {
							t.Fatalf("%s: failed decision moves n=%d pick=%v, Steal moved %d", name, n, pick, att.Moved)
						}
						continue
					}
					if att.Moved != n || !reflect.DeepEqual(att.MovedTasks, want) {
						t.Fatalf("%s: Steal moved %v, decision n=%d tasks=%v", name, att.MovedTasks, n, want)
					}
				}
			}
		}
		if seen[sched.FailNone] == 0 || seen[sched.FailRevalidation] == 0 {
			t.Errorf("%s: grid exercised only %v", p.Name(), seen)
		}
	}
}
