package sched

import (
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"strings"
	"testing"
	"testing/quick"
)

// referenceKey is Machine.Key as it was written before AppendKey
// (fmt + sort.Slice into a strings.Builder), kept as the encoding's
// independent statement: verify.Version does not move while the two
// agree.
func referenceKey(m *Machine) string {
	var b strings.Builder
	for i, c := range m.Cores {
		if i > 0 {
			b.WriteByte('|')
		}
		if c.Offline {
			b.WriteByte('!')
		}
		if c.Current != nil {
			fmt.Fprintf(&b, "%d", c.Current.Weight)
		} else {
			b.WriteByte('0')
		}
		b.WriteByte(':')
		ws := make([]int64, len(c.Queued()))
		for j, t := range c.Queued() {
			ws[j] = t.Weight
		}
		sort.Slice(ws, func(a, z int) bool { return ws[a] < ws[z] })
		for j, w := range ws {
			if j > 0 {
				b.WriteByte(',')
			}
			fmt.Fprintf(&b, "%d", w)
		}
	}
	return b.String()
}

// randomMachine draws a machine with multi-digit weights, unsorted
// queues (some longer than AppendKey's stack buffer), unscheduled and
// offline cores, and topology labels.
func randomMachine(r *rand.Rand) *Machine {
	specs := make([]CoreSpec, 1+r.Intn(6))
	weight := func() int64 { return 1 + r.Int63n(200000) }
	for i := range specs {
		if r.Intn(3) > 0 {
			specs[i].Running = weight()
		}
		for n := r.Intn(5) * r.Intn(6); n > 0; n-- {
			specs[i].Queued = append(specs[i].Queued, weight())
		}
	}
	m := MachineFromSpec(specs...)
	for _, c := range m.Cores {
		c.Offline = r.Intn(4) == 0
		c.Group, c.Node = r.Intn(3), r.Intn(2)
	}
	return m
}

// taskIDs lists every task ID by position: per core, the current task
// (or -1) then the queue head first.
func taskIDs(m *Machine) [][]TaskID {
	ids := make([][]TaskID, len(m.Cores))
	for i, c := range m.Cores {
		ids[i] = []TaskID{-1}
		if c.Current != nil {
			ids[i][0] = c.Current.ID
		}
		for _, t := range c.Queued() {
			ids[i] = append(ids[i], t.ID)
		}
	}
	return ids
}

func TestKeyHasOneEncoding(t *testing.T) {
	prop := func(seed int64) bool {
		m := randomMachine(rand.New(rand.NewSource(seed)))
		want := referenceKey(m)
		prefix := []byte("kept:")
		return m.Key() == want &&
			string(m.AppendKey(nil)) == want &&
			string(m.AppendKey(prefix)) == "kept:"+want
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestCopyFromProperty(t *testing.T) {
	p := greedyBuggy() // steals whenever the victim has a queue to take from
	dst := new(Machine)
	prop := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		src := randomMachine(r)
		src.Faults = []FaultEvent{{Core: 0}}
		// dst is reused across draws: it arrives holding some other
		// machine, with more or fewer cores and tasks than src.
		if dst.CopyFrom(src) != dst {
			return false
		}
		key, ids := src.Key(), taskIDs(src)
		same := func(m *Machine) bool {
			return m.Key() == key && m.Validate() == nil && reflect.DeepEqual(taskIDs(m), ids)
		}
		if !same(dst) || !reflect.DeepEqual(dst.Faults, src.Faults) {
			return false
		}
		for i, c := range dst.Cores {
			if sc := src.Cores[i]; c == sc || c.ID != sc.ID || c.Group != sc.Group || c.Node != sc.Node || c.Offline != sc.Offline {
				return false
			}
		}
		// Independence, copy → source: rounds, spawns and direct task
		// edits on the copy leave the source alone. The edits change
		// queued weights, which leaves the copy's runqueue totals stale;
		// the CopyFrom below overwrites the copy before it is read again.
		for _, c := range dst.Cores {
			c.Offline = false
		}
		ConcurrentRound(p, dst, r.Perm(dst.NumCores()))
		dst.Spawn(0, 7).Weight = 9
		if t0 := dst.Core(0).Queued()[0]; t0 != nil {
			t0.Weight += 5
		}
		if !same(src) {
			return false
		}
		// And source → copy, on a fresh copy; the ID counter came along.
		dst.CopyFrom(src)
		nextID := TaskID(src.TotalThreads())
		for _, c := range src.Cores {
			c.Offline = false
		}
		ConcurrentRound(p, src, r.Perm(src.NumCores()))
		src.Spawn(0, 7).Weight = 9
		return same(dst) && dst.Spawn(0, 1).ID == nextID
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// CopyFrom overwrites every field of every core it keeps: a machine that
// held another state — more cores, more tasks, offline marks, a layout,
// a runqueue with slack at its front, a fault script, a spent ID counter
// — becomes equal to a fresh Clone of the source, unexported fields
// included.
func TestCopyFromIntoAUsedMachineIsAClone(t *testing.T) {
	p := greedyBuggy()
	prop := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		src := randomMachine(r)
		src.Faults = []FaultEvent{{Core: 0}}
		dst := randomMachine(r)
		for len(dst.Cores) <= len(src.Cores) {
			dst.CopyFrom(MachineFromLoads(append(make([]int, len(dst.Cores)), 4, 4)...))
			for _, c := range dst.Cores {
				c.Offline, c.Group, c.Node = r.Intn(2) == 0, 1+r.Intn(3), 1
			}
		}
		dst.Faults = []FaultEvent{{Core: 1, Revive: true}, {Core: 0}}
		for _, c := range dst.Cores {
			c.Offline = false
		}
		ConcurrentRound(p, dst, r.Perm(dst.NumCores())) // pops and steals leave slack
		dst.Cores[0].Offline = true
		dst.Spawn(1, 3)
		want := src.Clone()
		dst.CopyFrom(src)
		if dst.Validate() != nil {
			return false
		}
		// A kept core's empty ring is its old array emptied, a fresh
		// core's is nil; DeepEqual tells the two apart, a runqueue does not.
		for _, m := range []*Machine{dst, want} {
			for _, c := range m.Cores {
				if len(c.ring) == 0 {
					c.ring = nil
				}
			}
		}
		return reflect.DeepEqual(dst.Cores, want.Cores) && reflect.DeepEqual(dst.Faults, want.Faults) && dst.nextID == want.nextID
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestSetFromSpecIsMachineFromSpec(t *testing.T) {
	specs := []CoreSpec{{Running: 3, Queued: []int64{1024, 7}}, {}, {Queued: []int64{5}}}
	want := MachineFromSpec(specs...)
	// A receiver in the worst shape: more cores, more tasks, offline
	// cores, a layout, a fault script, a spent ID counter.
	m := randomMachine(rand.New(rand.NewSource(1)))
	m.CopyFrom(MachineFromLoads(3, 3, 3, 3, 3))
	for _, c := range m.Cores {
		c.Offline, c.Group, c.Node = true, 2, 1
	}
	m.Faults = []FaultEvent{{Core: 1}}
	m.SetFromSpec(specs)
	if m.Key() != want.Key() || !reflect.DeepEqual(taskIDs(m), taskIDs(want)) || m.Validate() != nil {
		t.Errorf("SetFromSpec built %s with IDs %v, MachineFromSpec %s with %v", m.Key(), taskIDs(m), want.Key(), taskIDs(want))
	}
	// The cores SetFromSpec keeps keep the layout they had.
	for i, c := range m.Cores {
		if c.ID != i || c.Offline || c.Group != 2 || c.Node != 1 {
			t.Errorf("core %d not reset, or its layout lost: %+v", i, c)
		}
	}
	if m.Faults != nil || m.Spawn(0, 1).ID != want.Spawn(0, 1).ID {
		t.Error("fault script or ID counter survived SetFromSpec")
	}
}

func TestReuseAllocatesNothing(t *testing.T) {
	src := MachineFromSpec(
		CoreSpec{Running: 1024, Queued: []int64{512, 256, 70000}},
		CoreSpec{},
		CoreSpec{Queued: []int64{1024, 3}},
	)
	src.Core(1).Offline = true
	specs := []CoreSpec{{Running: 2, Queued: []int64{9, 8}}, {Queued: []int64{4}}, {}, {Running: 1}}
	dst := new(Machine)
	key := make([]byte, 0, 128)
	// A standalone steal moving two tasks, a picked steal, and a failing
	// core whose three threads the rescue rule hands to the lowest online
	// core.
	steal2 := delta2().(*FuncPolicy)
	steal2.CountFn = func(_, _ *Core) int { return 2 }
	robbed := MachineFromLoads(0, 4, 1)
	rescuer := delta2().(*FuncPolicy)
	rescuer.RescueFn = func(_ *Core, candidates []*Core) *Core { return candidates[0] }
	failing := MachineFromLoads(3, 1, 0)
	// A spawn bound for an offline core: Place gathers the online cores
	// and asks the rescue rule.
	stranded := MachineFromLoads(3, 1, 0)
	stranded.Core(0).Offline = true
	// A picked steal: the picker names the weight-2 task, not the tail.
	weighed := MachineFromSpec(CoreSpec{}, CoreSpec{Running: 4, Queued: []int64{2, 8}})
	// A runqueue cycling at a fixed high-water mark: pushes compact into
	// the slack pops leave at the front instead of growing the array.
	cycling := MachineFromSpec(CoreSpec{Queued: []int64{3, 1, 1024, 1, 2, 8192, 3}}).Core(0)
	for name, fn := range map[string]func(){
		"CopyFrom":    func() { dst.CopyFrom(src) },
		"SetFromSpec": func() { dst.SetFromSpec(specs) },
		"AppendKey":   func() { key = src.AppendKey(key[:0]) },
		"Steal": func() {
			att := Attempt{Thief: 0, Victim: 1}
			Steal(steal2, dst.CopyFrom(robbed), &att)
			if att.Moved != 2 || len(att.MovedTasks) != 2 {
				t.Fatalf("the steal moved %d tasks, recorded %v", att.Moved, att.MovedTasks)
			}
		},
		"Steal (TaskPicker)": func() {
			att := Attempt{Thief: 0, Victim: 1}
			Steal(&pickerPolicy{}, dst.CopyFrom(weighed), &att)
			if att.Moved != 1 || len(att.MovedTasks) != 1 {
				t.Fatalf("the picked steal moved %d tasks, recorded %v", att.Moved, att.MovedTasks)
			}
		},
		"ApplyFault": func() {
			if n, err := dst.CopyFrom(failing).ApplyFault(rescuer, FaultEvent{Core: 0}); n != 3 || err != nil {
				t.Fatalf("fail(0) rescued %d tasks, err %v", n, err)
			}
		},
		"Push/Pop": func() {
			for range 10 {
				cycling.Push(cycling.Pop())
			}
		},
		"Place": func() {
			if to := Place(rescuer, stranded, 0); to.ID != 1 {
				t.Fatalf("Place(0) sent the task to c%d, want c1", to.ID)
			}
		},
		"PairwiseImbalance": func() { PairwiseImbalance(steal2, src) },
	} {
		fn() // the first call sizes the buffers
		if n := testing.AllocsPerRun(100, fn); n != 0 {
			t.Errorf("steady-state %s allocates %v times per call", name, n)
		}
	}
}

func TestRoundBuffersArePerMachine(t *testing.T) {
	// A game node's attempts are still being permuted while its
	// successors run their own selections: rounds on other machines —
	// copies included — must leave them alone.
	p := greedyBuggy()
	m := MachineFromLoads(0, 3, 2, 0)
	atts := SelectAll(p, m)
	want := fmt.Sprintf("%+v", atts)
	next := new(Machine)
	for _, order := range [][]int{{0, 1, 2, 3}, {3, 2, 1, 0}} {
		rr := ExecuteSteals(p, next.CopyFrom(m), atts, order)
		if rr.Successes() == 0 {
			t.Fatalf("order %v: no steal succeeded — fixture broken", order)
		}
		ConcurrentRound(p, next, order)
		SequentialRound(p, next)
		if got := fmt.Sprintf("%+v", atts); got != want {
			t.Fatalf("rounds on a copy rewrote the source's attempts:\n got %s\nwant %s", got, want)
		}
	}
	if m.Key() != MachineFromLoads(0, 3, 2, 0).Key() {
		t.Error("SelectAll or a round on a copy mutated the machine")
	}
}

func TestMovedTasksArePerMachine(t *testing.T) {
	// MovedTasks live in the round buffers of the machine the steal ran
	// on, like Candidates: a round on another machine leaves them alone,
	// the machine's own next round overwrites them.
	p := greedyBuggy()
	start := MachineFromLoads(0, 3, 2, 0)
	a, b := new(Machine), new(Machine)
	round := func(m *Machine) RoundResult { return ConcurrentRound(p, m.CopyFrom(start), []int{3, 2, 1, 0}) }
	rrB := round(b)
	if rrB.TasksMoved() == 0 || len(rrB.Attempts[0].MovedTasks) == 0 {
		t.Fatal("the first steal moved nothing — fixture broken")
	}
	wantB := fmt.Sprint(rrB.Attempts)
	round(a) // sizes a's buffers
	first := round(a).Attempts[0].MovedTasks
	if got := fmt.Sprint(rrB.Attempts); got != wantB {
		t.Errorf("rounds on a rewrote b's attempts:\n got %s\nwant %s", got, wantB)
	}
	if second := round(a).Attempts[0].MovedTasks; &first[0] != &second[0] {
		t.Error("a's next round recorded its moves beside its previous round's, not over them")
	}
	// Repeated standalone steals on one machine reuse one buffer.
	m := MachineFromLoads(0, 9)
	var slot *TaskID
	for i := 0; i < 4; i++ {
		att := Attempt{Thief: 0, Victim: 1}
		Steal(p, m, &att)
		if !att.Succeeded() {
			t.Fatalf("steal %d failed: %v", i, att.Reason)
		}
		if i == 0 {
			slot = &att.MovedTasks[0]
		} else if &att.MovedTasks[0] != slot {
			t.Errorf("standalone steal %d recorded its move beside the previous steal's", i)
		}
	}
}

func TestSpawnAcrossChunkBoundaryKeepsTasksValid(t *testing.T) {
	m := NewMachine(3)
	var tasks []*Task
	for i := 0; i < 3*slabChunk+5; i++ {
		tasks = append(tasks, m.Spawn(i%3, int64(1+i)))
	}
	for i, task := range tasks {
		if task.ID != TaskID(i) || task.Weight != int64(1+i) {
			t.Fatalf("task %d reads %+v after later spawns", i, *task)
		}
		if q := m.Core(i % 3).Queued()[i/3]; q != task {
			t.Fatalf("core %d slot %d holds %p, Spawn returned %p", i%3, i/3, q, task)
		}
	}
	if err := m.Validate(); err != nil {
		t.Error(err)
	}
	// A copy shares nothing with the chunks, and spawning on the source
	// afterwards leaves the copy alone.
	c := m.Clone()
	key := c.Key()
	m.Spawn(0, 7)
	tasks[0].Weight = 99
	if c.Key() != key || c.Validate() != nil {
		t.Error("a spawn or a write on the source reached its clone")
	}
	if got := c.Spawn(1, 7).ID; got != TaskID(len(tasks)) {
		t.Errorf("clone's next ID = %d, want %d", got, len(tasks))
	}
}

// Reset is where a machine's layout is set, and the rebuilds keep it:
// SetFromSpec and SetFromKey leave every core on the node and group
// Reset put it, while the ID counter, fault script and offline marks
// start over. Once a machine has grown, resetting it and spawning as
// much again allocates nothing.
func TestResetSetsTheLayoutRebuildsKeep(t *testing.T) {
	groups := []int{0, 0, 1, 1}
	m := MachineFromLoads(1, 2, 0)
	m.Core(1).Offline = true
	m.Faults = []FaultEvent{{Core: 1}}
	m.Spawn(0, 5)
	if m.Reset(len(groups), groups) != m {
		t.Fatal("Reset did not return its receiver")
	}
	layout := func(how string) {
		t.Helper()
		for i, c := range m.Cores {
			if c.ID != i || c.Group != groups[i] || c.Node != groups[i] || c.Offline {
				t.Errorf("after %s core %d reads %+v, want ID %d, node and group %d, online", how, i, *c, i, groups[i])
			}
		}
	}
	layout("Reset")
	if m.TotalThreads() != 0 || m.Faults != nil || m.Spawn(2, 1).ID != 0 {
		t.Error("Reset left tasks, a fault script or a spent ID counter")
	}
	m.Core(3).Offline = true
	m.SetFromSpec([]CoreSpec{{Running: 1}, {}, {Queued: []int64{2, 3}}, {Running: 4}})
	layout("SetFromSpec")
	m.SetFromKey([]byte("1:2|!0:|0:|3:1"))
	if m.Core(1).Offline = false; m.Key() != "1:2|0:|0:|3:1" {
		t.Errorf("SetFromKey built %s", m.Key())
	}
	layout("SetFromKey")
	// A flat reset clears the layout; a wider one adds flat cores.
	m.Reset(4, nil)
	m.SetFromSpec(make([]CoreSpec, 6))
	for i, c := range m.Cores {
		if c.ID != i || c.Group != 0 || c.Node != 0 {
			t.Errorf("core %d of a flat machine reads %+v", i, *c)
		}
	}

	spawn := func() {
		m.Reset(len(groups), groups)
		for i := range 3*slabChunk + 5 {
			m.Spawn(i%len(groups), 1)
		}
	}
	spawn() // grow the rings and the spawn slab
	if allocs := testing.AllocsPerRun(10, spawn); allocs != 0 {
		t.Errorf("a grown machine's reset and respawn allocates %.0f objects", allocs)
	}
	layout("a reset and respawn")
	if err := m.Validate(); err != nil {
		t.Error(err)
	}
}
