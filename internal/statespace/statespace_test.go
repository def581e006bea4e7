package statespace

import (
	"fmt"
	"reflect"
	"strings"
	"testing"

	"repro/internal/sched"
)

// size counts the states Enumerate produces.
func size(u Universe) int {
	n := 0
	u.Enumerate(func(*sched.Machine) bool { n++; return true })
	return n
}

func TestUniverseEnumerateCounts(t *testing.T) {
	// 2 cores, up to 2 threads each, unit weights, scheduled-only:
	// counts (0,0),(0,1),(0,2),(1,0),(1,1),(1,2),(2,0),(2,1),(2,2) = 9.
	u := Universe{Cores: 2, MaxPerCore: 2}
	if got := size(u); got != 9 {
		t.Errorf("Size = %d, want 9", got)
	}
}

func TestUniverseMaxTotal(t *testing.T) {
	u := Universe{Cores: 2, MaxPerCore: 2, MaxTotal: 2}
	// (0,0),(0,1),(0,2),(1,0),(1,1),(2,0) = 6.
	if got := size(u); got != 6 {
		t.Errorf("Size = %d, want 6", got)
	}
	u.Enumerate(func(m *sched.Machine) bool {
		if m.TotalThreads() > 2 {
			t.Errorf("machine %v exceeds MaxTotal", m.Loads())
		}
		return true
	})
}

func TestUniverseIncludeUnscheduled(t *testing.T) {
	// 1 core, up to 1 thread: states are (), (running), (queued-only) = 3.
	u := Universe{Cores: 1, MaxPerCore: 1, IncludeUnscheduled: true}
	if got := size(u); got != 3 {
		t.Errorf("Size = %d, want 3", got)
	}
	seenUnscheduled := false
	u.Enumerate(func(m *sched.Machine) bool {
		c := m.Core(0)
		if c.Current == nil && len(c.Queued()) == 1 {
			seenUnscheduled = true
		}
		return true
	})
	if !seenUnscheduled {
		t.Error("unscheduled state not enumerated")
	}
}

func TestUniverseWeights(t *testing.T) {
	// 1 core, exactly 2 threads, weights {1,2}: non-decreasing vectors
	// (1,1),(1,2),(2,2) = 3, plus counts 0 and 1 states: (0 threads)=1,
	// (1 thread)=2 → total 6.
	u := Universe{Cores: 1, MaxPerCore: 2, Weights: []int64{1, 2}}
	if got := size(u); got != 6 {
		t.Errorf("Size = %d, want 6", got)
	}
	var distinct Visited
	u.Enumerate(func(m *sched.Machine) bool {
		if !distinct.Add(m) {
			t.Errorf("duplicate state %q", m.Key())
		}
		return true
	})
}

func TestUniverseStatesAreValidAndReused(t *testing.T) {
	// The reuse contract: every callback gets the same machine, rebuilt in
	// place, so a callback that wrecks what it is handed — drains every
	// queue onto core 0, flips every Offline bit — must leave the
	// enumeration exactly what a read-only pass sees.
	type state struct{ key, faults string }
	observe := func(u Universe, wreck bool) []state {
		var seen []state
		u.Enumerate(func(m *sched.Machine) bool {
			if err := m.Validate(); err != nil {
				t.Fatalf("invalid state: %v", err)
			}
			seen = append(seen, state{m.Key(), fmt.Sprint(m.Faults)})
			if wreck {
				for _, c := range m.Cores[1:] {
					for task := c.Pop(); task != nil; task = c.Pop() {
						m.Core(0).Push(task)
					}
				}
				for _, c := range m.Cores {
					c.Current = nil
					c.Offline = !c.Offline
					c.Group, c.Node = 7, 7
				}
				m.Spawn(0, 99)
			}
			return true
		})
		return seen
	}
	for name, u := range map[string]Universe{
		"weighted":    {Cores: 3, MaxPerCore: 2, MaxTotal: 4, Weights: []int64{1, 300}},
		"unscheduled": {Cores: 3, MaxPerCore: 2, IncludeUnscheduled: true},
		"faults":      {Cores: 3, MaxPerCore: 2, MaxTotal: 3, IncludeUnscheduled: true, MaxFaults: 2},
		"grouped":     {Cores: 4, MaxPerCore: 1, Groups: []int{0, 0, 1, 1}},
	} {
		want, got := observe(u, false), observe(u, true)
		if len(want) != size(u) {
			t.Errorf("%s: observed %d states, size %d", name, len(want), size(u))
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s: a mutating callback changed the enumeration (%d vs %d states)", name, len(got), len(want))
		}
	}
}

func TestUniverseEarlyStop(t *testing.T) {
	u := Universe{Cores: 2, MaxPerCore: 2}
	n := 0
	complete := u.Enumerate(func(*sched.Machine) bool {
		n++
		return n < 3
	})
	if complete {
		t.Error("Enumerate should report early stop")
	}
	if n != 3 {
		t.Errorf("visited %d states, want 3", n)
	}
}

func TestUniversePanicsWithoutCores(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("zero-core universe did not panic")
		}
	}()
	Universe{}.Enumerate(func(*sched.Machine) bool { return true })
}

func TestPermutationsCountAndUniqueness(t *testing.T) {
	for n, want := range map[int]int{1: 1, 2: 2, 3: 6, 4: 24} {
		seen := make(map[string]bool)
		Permutations(make([]int, n), make([]int, n), func(p []int) bool {
			key := ""
			for _, v := range p {
				key += string(rune('0' + v))
			}
			if seen[key] {
				t.Errorf("n=%d: duplicate permutation %q", n, key)
			}
			seen[key] = true
			return true
		})
		if len(seen) != want {
			t.Errorf("n=%d: %d permutations, want %d", n, len(seen), want)
		}
	}
}

func TestPermutationsAreValid(t *testing.T) {
	Permutations(make([]int, 4), make([]int, 4), func(p []int) bool {
		seen := [4]bool{}
		for _, v := range p {
			if v < 0 || v >= 4 || seen[v] {
				t.Fatalf("invalid permutation %v", p)
			}
			seen[v] = true
		}
		return true
	})
}

func TestPermutationsEarlyStop(t *testing.T) {
	n := 0
	complete := Permutations(make([]int, 3), make([]int, 3), func([]int) bool {
		n++
		return n < 2
	})
	if complete || n != 2 {
		t.Errorf("complete=%v n=%d, want early stop after 2", complete, n)
	}
}

func TestVisited(t *testing.T) {
	var v Visited
	a := sched.MachineFromLoads(0, 2)
	b := sched.MachineFromLoads(2, 0)
	if !v.Add(a) {
		t.Error("first Add should be new")
	}
	if v.Add(a) {
		t.Error("second Add should not be new")
	}
	if !v.Add(b) {
		t.Error("different state reported as visited")
	}
	v.Reset()
	if !v.Add(b) || !v.Add(a) {
		t.Error("Add after Reset should be new")
	}
}

// shardTestUniverses are the partition-property fixtures: plain,
// unscheduled, weighted, and grouped universes all must shard cleanly.
func shardTestUniverses() map[string]Universe {
	return map[string]Universe{
		"plain":       {Cores: 3, MaxPerCore: 2, MaxTotal: 4},
		"unscheduled": {Cores: 3, MaxPerCore: 2, MaxTotal: 4, IncludeUnscheduled: true},
		"weighted":    {Cores: 2, MaxPerCore: 3, Weights: []int64{1, 3}, IncludeUnscheduled: true},
		"grouped":     {Cores: 4, MaxPerCore: 2, MaxTotal: 5, Groups: []int{0, 0, 1, 1}, IncludeUnscheduled: true},
	}
}

func TestEnumerateShardPartition(t *testing.T) {
	// For every shard count, the union of the shards' outputs must be
	// exactly Enumerate's output: same multiset of keys, no duplicates,
	// nothing missing. This is the property that lets the verifier fan
	// shards out with no locking.
	for name, u := range shardTestUniverses() {
		full := make(map[string]int)
		order := []string{}
		u.Enumerate(func(m *sched.Machine) bool {
			full[m.Key()]++
			order = append(order, m.Key())
			return true
		})
		if len(order) == 0 {
			t.Fatalf("%s: empty universe", name)
		}
		for total := 1; total <= 8; total++ {
			union := make(map[string]int)
			n := 0
			for shard := 0; shard < total; shard++ {
				complete := u.EnumerateShard(shard, total, func(m *sched.Machine) bool {
					union[m.Key()]++
					n++
					return true
				})
				if !complete {
					t.Errorf("%s total=%d shard=%d: reported early stop", name, total, shard)
				}
			}
			if n != len(order) {
				t.Errorf("%s total=%d: shards yielded %d states, Enumerate %d", name, total, n, len(order))
			}
			for k, c := range union {
				if full[k] != c {
					t.Errorf("%s total=%d: key %q appears %d times in shards, %d in Enumerate", name, total, k, c, full[k])
				}
			}
			for k := range full {
				if union[k] == 0 {
					t.Errorf("%s total=%d: key %q missing from every shard", name, total, k)
				}
			}
		}
	}
}

func TestEnumerateShardSingleIsEnumerate(t *testing.T) {
	u := Universe{Cores: 3, MaxPerCore: 2, MaxTotal: 4, IncludeUnscheduled: true}
	var seq, shard []string
	u.Enumerate(func(m *sched.Machine) bool { seq = append(seq, m.Key()); return true })
	u.EnumerateShard(0, 1, func(m *sched.Machine) bool { shard = append(shard, m.Key()); return true })
	if len(seq) != len(shard) {
		t.Fatalf("lengths differ: %d vs %d", len(seq), len(shard))
	}
	for i := range seq {
		if seq[i] != shard[i] {
			t.Fatalf("order differs at %d: %q vs %q", i, seq[i], shard[i])
		}
	}
}

func TestEnumerateShardRank(t *testing.T) {
	// Ranks identify the state's thread-count vector in global
	// enumeration order: within a shard they are non-decreasing and
	// congruent to the shard index mod total; across shards each rank
	// belongs to exactly one shard.
	u := Universe{Cores: 3, MaxPerCore: 2, MaxTotal: 4, IncludeUnscheduled: true}
	const total = 4
	owner := make(map[int]int)
	for shard := 0; shard < total; shard++ {
		last := -1
		u.EnumerateShardRank(shard, total, func(rank int, m *sched.Machine) bool {
			if rank%total != shard {
				t.Fatalf("shard %d saw rank %d", shard, rank)
			}
			if rank < last {
				t.Fatalf("shard %d: rank went backwards (%d after %d)", shard, rank, last)
			}
			last = rank
			if prev, ok := owner[rank]; ok && prev != shard {
				t.Fatalf("rank %d owned by shards %d and %d", rank, prev, shard)
			}
			owner[rank] = shard
			return true
		})
	}
}

func TestEnumerateShardEarlyStop(t *testing.T) {
	u := Universe{Cores: 2, MaxPerCore: 2}
	n := 0
	complete := u.EnumerateShard(0, 2, func(*sched.Machine) bool {
		n++
		return false
	})
	if complete || n != 1 {
		t.Errorf("complete=%v n=%d, want early stop after 1", complete, n)
	}
}

func TestReusedEnumeratorMatchesFresh(t *testing.T) {
	// One Enumerator walking universes of shrinking core counts, with and
	// without faults and weights, must yield exactly what a fresh one
	// yields: a stale offline flag would drop or add fault scripts, and a
	// stale specs[i].Queued would leak an earlier universe's tasks into
	// the next one's machines. The opening walk panics in the middle of a
	// two-event script — as a checker may, under verify's recover — so
	// nothing unwinds its failed cores or its script.
	type state struct {
		rank int
		key  string
	}
	walk := func(e *Enumerator, u Universe, shard, total int) []state {
		var got []state
		e.EnumerateShardRank(u, shard, total, func(rank int, m *sched.Machine) bool {
			got = append(got, state{rank, faultKey(m)})
			return true
		})
		return got
	}
	faults := Universe{Cores: 4, MaxPerCore: 2, MaxTotal: 3, MaxFaults: 2}
	var reused Enumerator
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("the opening walk never reached a two-event script")
			}
		}()
		reused.EnumerateShardRank(faults, 0, 1, func(_ int, m *sched.Machine) bool {
			if len(m.Faults) == 2 {
				panic("mid-script")
			}
			return true
		})
	}()
	const total = 3
	for _, u := range []Universe{
		faults,
		{Cores: 3, MaxPerCore: 2, MaxTotal: 4, IncludeUnscheduled: true},
		{Cores: 2, MaxPerCore: 2, Weights: []int64{1, 3}},
	} {
		for shard := 0; shard < total; shard++ {
			got, want := walk(&reused, u, shard, total), walk(new(Enumerator), u, shard, total)
			if len(want) == 0 {
				t.Fatalf("%v shard %d: empty", u, shard)
			}
			if !reflect.DeepEqual(got, want) {
				t.Errorf("%v shard %d: a reused enumerator yielded %d states, a fresh one %d (or they differ)", u, shard, len(got), len(want))
			}
		}
	}
	if reused.fn != nil {
		t.Error("the enumerator kept the last walk's fn")
	}
}

func TestEnumerateShardBadArgsPanic(t *testing.T) {
	u := Universe{Cores: 2, MaxPerCore: 1}
	for name, call := range map[string]func(){
		"total=0":      func() { u.EnumerateShard(0, 0, func(*sched.Machine) bool { return true }) },
		"shard<0":      func() { u.EnumerateShard(-1, 2, func(*sched.Machine) bool { return true }) },
		"shard==total": func() { u.EnumerateShard(2, 2, func(*sched.Machine) bool { return true }) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: no panic", name)
				}
			}()
			call()
		}()
	}
}

func TestValidateRejectsZeroCores(t *testing.T) {
	// Validate documents itself as the error-returning counterpart of
	// Enumerate's panics — and Enumerate panics on Cores <= 0, so a
	// zero-core universe (with or without Groups) must not validate.
	for name, u := range map[string]Universe{
		"zero cores":             {},
		"zero cores with bounds": {MaxPerCore: 2, MaxTotal: 4},
		"zero cores with groups": {Groups: []int{0, 1}},
		"negative cores":         {Cores: -1},
	} {
		if err := u.Validate(); err == nil {
			t.Errorf("%s: Validate accepted %+v", name, u)
		}
	}
}

func TestValidateAcceptsAndRejects(t *testing.T) {
	if err := (Universe{Cores: 3, MaxPerCore: 2, Groups: []int{0, 0, 1}, Weights: []int64{1, 2}}).Validate(); err != nil {
		t.Errorf("valid universe rejected: %v", err)
	}
	for name, u := range map[string]Universe{
		"group mismatch":  {Cores: 3, MaxPerCore: 2, Groups: []int{0, 1}},
		"negative bounds": {Cores: 2, MaxPerCore: -1},
		"bad weight":      {Cores: 2, MaxPerCore: 1, Weights: []int64{0}},
	} {
		if err := u.Validate(); err == nil {
			t.Errorf("%s: Validate accepted %+v", name, u)
		}
	}
}

// The verifier counts a state's n! steal orders in an int, and 21!
// passes int64: 20 cores is the widest universe, and the refusal names
// the counter it protects.
func TestValidateCapsCoresAtTheScheduleCounter(t *testing.T) {
	if err := (Universe{Cores: 20, MaxPerCore: 1, MaxTotal: 1}).Validate(); err != nil {
		t.Errorf("20 cores rejected: %v", err)
	}
	err := Universe{Cores: 21, MaxPerCore: 1, MaxTotal: 1}.Validate()
	if err == nil || !strings.Contains(err.Error(), "SchedulesChecked") {
		t.Errorf("21 cores: Validate returned %v, want an error naming the schedule counter", err)
	}
}

func TestUniverseFieldsCoveredByValidateAndCanonical(t *testing.T) {
	// Validate, String/Canonical and this table must move together: every
	// Universe field needs a mutation that changes Canonical() (content
	// identity — a field Canonical misses silently aliases distinct state
	// spaces in the memo cache) and, where the field has invalid values,
	// one that Validate rejects. Reflection makes a new field fail this
	// test until the table — and therefore both methods — is extended.
	base := Universe{Cores: 2, MaxPerCore: 2}
	fields := map[string]struct {
		mutate  func(*Universe) // must change Canonical()
		invalid func(*Universe) // must fail Validate; nil = every value valid
	}{
		"Cores": {
			mutate:  func(u *Universe) { u.Cores = 3 },
			invalid: func(u *Universe) { u.Cores = 0 },
		},
		"MaxPerCore": {
			mutate:  func(u *Universe) { u.MaxPerCore = 3 },
			invalid: func(u *Universe) { u.MaxPerCore = -1 },
		},
		"MaxTotal": {
			// 3, not Cores*MaxPerCore: the zero shorthand canonicalizes
			// to exactly that product, by design.
			mutate:  func(u *Universe) { u.MaxTotal = 3 },
			invalid: func(u *Universe) { u.MaxTotal = -1 },
		},
		"Weights": {
			mutate:  func(u *Universe) { u.Weights = []int64{1, 3} },
			invalid: func(u *Universe) { u.Weights = []int64{0} },
		},
		"IncludeUnscheduled": {
			mutate: func(u *Universe) { u.IncludeUnscheduled = true },
		},
		"Groups": {
			mutate:  func(u *Universe) { u.Groups = []int{0, 1} },
			invalid: func(u *Universe) { u.Groups = []int{0} },
		},
		"MaxFaults": {
			mutate:  func(u *Universe) { u.MaxFaults = 1 },
			invalid: func(u *Universe) { u.MaxFaults = -1 },
		},
	}
	typ := reflect.TypeOf(Universe{})
	for i := 0; i < typ.NumField(); i++ {
		name := typ.Field(i).Name
		spec, ok := fields[name]
		if !ok {
			t.Errorf("Universe.%s is not covered: extend Validate, String/Canonical and this table", name)
			continue
		}
		if err := base.Validate(); err != nil {
			t.Fatalf("base universe invalid: %v", err)
		}
		mutated := base
		spec.mutate(&mutated)
		if mutated.Canonical() == base.Canonical() {
			t.Errorf("Universe.%s: mutation did not change Canonical() (%q)", name, base.Canonical())
		}
		if spec.invalid != nil {
			bad := base
			spec.invalid(&bad)
			if err := bad.Validate(); err == nil {
				t.Errorf("Universe.%s: Validate accepted invalid value %+v", name, bad)
			}
		}
	}
	for name := range fields {
		if _, ok := typ.FieldByName(name); !ok {
			t.Errorf("table covers %s, which is no longer a Universe field", name)
		}
	}
}

// faultKey distinguishes fault-script variants of the same machine:
// enumeration attaches scripts to online machines, so Key() alone would
// collide across scripts.
func faultKey(m *sched.Machine) string {
	return m.Key() + "|" + fmt.Sprint(m.Faults)
}

// faultShardUniverses are the fault-dimension partition fixtures.
func faultShardUniverses() map[string]Universe {
	return map[string]Universe{
		"faults1":         {Cores: 3, MaxPerCore: 2, MaxTotal: 3, MaxFaults: 1},
		"faults2":         {Cores: 2, MaxPerCore: 2, MaxFaults: 2, IncludeUnscheduled: true},
		"faults-weighted": {Cores: 2, MaxPerCore: 2, Weights: []int64{1, 3}, MaxFaults: 1},
		"faults-deep":     {Cores: 2, MaxPerCore: 1, MaxFaults: 3},
	}
}

func TestEnumerateShardPartitionWithFaults(t *testing.T) {
	// The PR 2 partition property extended to the fault dimension: for
	// every shard count, the union of the shards' (machine, script) pairs
	// is exactly Enumerate's multiset. Scripts expand below the rank
	// level, so a shard owns every script of each thread-count vector it
	// owns — nothing is split mid-vector.
	for name, u := range faultShardUniverses() {
		full := make(map[string]int)
		states := 0
		u.Enumerate(func(m *sched.Machine) bool {
			full[faultKey(m)]++
			states++
			return true
		})
		if states == 0 {
			t.Fatalf("%s: empty universe", name)
		}
		for total := 1; total <= 8; total++ {
			union := make(map[string]int)
			n := 0
			for shard := 0; shard < total; shard++ {
				complete := u.EnumerateShard(shard, total, func(m *sched.Machine) bool {
					union[faultKey(m)]++
					n++
					return true
				})
				if !complete {
					t.Errorf("%s total=%d shard=%d: reported early stop", name, total, shard)
				}
			}
			if n != states {
				t.Errorf("%s total=%d: shards yielded %d states, Enumerate %d", name, total, n, states)
			}
			for k, c := range union {
				if full[k] != c {
					t.Errorf("%s total=%d: key %q appears %d times in shards, %d in Enumerate", name, total, k, c, full[k])
				}
			}
			for k := range full {
				if union[k] == 0 {
					t.Errorf("%s total=%d: key %q missing from every shard", name, total, k)
				}
			}
		}
	}
}

func TestFaultScriptsValidAndPrefixClosed(t *testing.T) {
	// Every enumerated script must be valid under the fail-stop rule as
	// sched.Machine.ApplyFault states it (fail only online non-last
	// cores, revive only offline cores) and the set must be prefix-closed
	// — the property the degraded-mode checkers lean on to treat
	// "recovered after the last event" as covering recovery after any
	// event. The empty script (healthy machine) must appear for every
	// machine, so healthy states are a subset. The 2-core universe is where
	// the last-online-core refusal bites within the script bound.
	for _, u := range []Universe{
		{Cores: 3, MaxPerCore: 1, MaxTotal: 2, MaxFaults: 2},
		{Cores: 2, MaxPerCore: 1, MaxTotal: 1, MaxFaults: 3},
	} {
		testFaultScripts(t, u)
	}
}

func testFaultScripts(t *testing.T, u Universe) {
	replay := func(script []sched.FaultEvent) *sched.Machine {
		m := sched.NewMachine(u.Cores)
		for _, ev := range script {
			if _, err := m.ApplyFault(nil, ev); err != nil {
				t.Fatalf("script %v: %v", script, err)
			}
		}
		return m
	}
	scripts := make(map[string][]sched.FaultEvent)
	healthy, total := 0, 0
	u.Enumerate(func(m *sched.Machine) bool {
		total++
		if len(m.Faults) == 0 {
			healthy++
		}
		if len(m.Faults) > u.MaxFaults {
			t.Fatalf("script %v longer than MaxFaults=%d", m.Faults, u.MaxFaults)
		}
		replay(m.Faults)
		// The script is live enumeration state: keep a copy.
		scripts[fmt.Sprint(m.Faults)] = append([]sched.FaultEvent(nil), m.Faults...)
		return true
	})
	if healthy == 0 {
		t.Fatal("no healthy (empty-script) states enumerated")
	}
	if len(scripts) < 2 {
		t.Fatalf("only %d distinct scripts — fault dimension not exercised", len(scripts))
	}
	// Prefix closure: every proper prefix of an enumerated script must
	// itself be an enumerated script.
	u.Enumerate(func(m *sched.Machine) bool {
		for i := range m.Faults {
			prefix := fmt.Sprint(m.Faults[:i])
			if _, ok := scripts[prefix]; !ok {
				t.Fatalf("script %v: prefix %s not enumerated", m.Faults, prefix)
			}
		}
		return true
	})
	// The DFS and the rule cannot drift: a one-event extension of an
	// enumerated script is itself enumerated exactly when ApplyFault
	// accepts the event.
	for _, script := range scripts {
		if len(script) == u.MaxFaults {
			continue
		}
		for c := 0; c < u.Cores; c++ {
			for _, ev := range []sched.FaultEvent{{Core: c}, {Core: c, Revive: true}} {
				_, err := replay(script).ApplyFault(nil, ev)
				_, enumerated := scripts[fmt.Sprint(append(script[:len(script):len(script)], ev))]
				if enumerated != (err == nil) {
					t.Errorf("script %v + %v: enumerated=%v but ApplyFault says %v", script, ev, enumerated, err)
				}
			}
		}
	}
}

func TestMaxFaultsZeroMatchesHealthyUniverse(t *testing.T) {
	// MaxFaults: 0 must be exactly the healthy universe — same states,
	// same order, nil scripts — so legacy obligations see no change.
	healthy := Universe{Cores: 3, MaxPerCore: 2, MaxTotal: 3, IncludeUnscheduled: true}
	faulty := healthy
	faulty.MaxFaults = 0
	var a, b []string
	healthy.Enumerate(func(m *sched.Machine) bool { a = append(a, m.Key()); return true })
	faulty.Enumerate(func(m *sched.Machine) bool {
		if m.Faults != nil {
			t.Fatalf("MaxFaults=0 attached script %v", m.Faults)
		}
		b = append(b, m.Key())
		return true
	})
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("MaxFaults=0 changed enumeration: %d vs %d states", len(a), len(b))
	}
}

func TestUniverseCoversDocumentedStates(t *testing.T) {
	// The §4.3 counterexample machine [0 1 2] must be in the universe the
	// verifier uses for 3-core checks.
	u := Universe{Cores: 3, MaxPerCore: 3}
	target := sched.MachineFromLoads(0, 1, 2).Key()
	found := false
	u.Enumerate(func(m *sched.Machine) bool {
		if m.Key() == target {
			found = true
			return false
		}
		return true
	})
	if !found {
		t.Error("universe misses the 0/1/2 counterexample state")
	}
}
