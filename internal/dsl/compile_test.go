package dsl

import (
	"reflect"
	"sync"
	"testing"

	"repro/internal/sched"
)

const rescueMinLoad = `policy delta2_rescue {
    load   = self.ready.size + self.current.size
    filter = stealee.load - self.load >= 2
    steal  = 1
    choose = first
    rescue = min_load
}`

const randomBoth = `policy r { filter = stealee.load >= 2 choose = random(7) rescue = random(3) }`

func TestCompileBuildsOnceAndSharesStatelessPrograms(t *testing.T) {
	// The verifier's factories call Compile once per state and per game
	// node: after the first call a stateless program costs nothing, and a
	// random one costs its instance.
	for _, src := range []string{listing1, rescueMinLoad} {
		ast := mustParse(t, src)
		first := Compile(ast)
		if n := testing.AllocsPerRun(100, func() { Compile(ast) }); n != 0 {
			t.Errorf("%s: Compile allocates %v objects after the first call, want 0", ast.Name, n)
		}
		if Compile(ast) != first {
			t.Errorf("%s: a stateless program was handed out as two instances", ast.Name)
		}
	}
	for _, src := range []string{randomBoth, `policy r { filter = stealee.load >= 2 rescue = random(1) }`} {
		ast := mustParse(t, src)
		Compile(ast)
		if n := testing.AllocsPerRun(100, func() { Compile(ast) }); n > 1 {
			t.Errorf("%s: Compile allocates %v objects per random instance, want at most 1", src, n)
		}
		if Compile(ast) == Compile(ast) {
			t.Errorf("%s: two random instances share one xorshift state", src)
		}
	}
}

func TestRandomInstancesKeepTheirSequences(t *testing.T) {
	// Every instance starts from the source's seed and advances only its
	// own state: the sequences are the ones per-call closures produced.
	// xorshift64 never leaves state 0, so random(0) starts from the
	// golden-ratio constant 0x9E3779B97F4A7C15 instead.
	ast := mustParse(t, randomBoth)
	m := sched.MachineFromLoads(0, 2, 2, 2, 2, 2)
	thief, cands := m.Core(0), m.Cores[1:]
	a, b := Compile(ast), Compile(ast)
	zero := Compile(mustParse(t, `policy z { filter = stealee.load >= 2 choose = random(0) }`))
	var chooseA, chooseB, rescueA, chooseZero []int
	for i := 0; i < 12; i++ {
		chooseA = append(chooseA, a.Choose(thief, cands).ID)
		chooseZero = append(chooseZero, zero.Choose(thief, cands).ID)
		rescueA = append(rescueA, a.(sched.Rescuer).RescueTarget(thief, cands).ID)
		if i%2 == 0 {
			chooseB = append(chooseB, b.Choose(thief, cands).ID)
		}
	}
	if want := []int{3, 3, 4, 3, 1, 1, 1, 4, 2, 3, 4, 3}; !reflect.DeepEqual(chooseA, want) {
		t.Errorf("random(7) chose %v, want %v", chooseA, want)
	}
	if want := []int{3, 3, 4, 3, 1, 1}; !reflect.DeepEqual(chooseB, want) {
		t.Errorf("a second random(7) instance chose %v, want %v: the instances share state", chooseB, want)
	}
	if want := []int{4, 4, 4, 5, 1, 4, 4, 1, 2, 2, 1, 3}; !reflect.DeepEqual(rescueA, want) {
		t.Errorf("rescue random(3) chose %v, want %v", rescueA, want)
	}
	if want := []int{5, 5, 1, 1, 4, 1, 3, 1, 3, 3, 2, 4}; !reflect.DeepEqual(chooseZero, want) {
		t.Errorf("random(0) chose %v, want %v: the golden-ratio stream", chooseZero, want)
	}
}

func TestCompiledFactoryIsRaceFree(t *testing.T) {
	// Shard goroutines call one factory concurrently, the first Compile
	// included, and evaluate what it returns: run under -race.
	for _, src := range []string{rescueMinLoad, randomBoth} {
		ast := mustParse(t, src)
		factory := func() sched.Policy { return Compile(ast) }
		m := sched.MachineFromLoads(0, 1, 3, 2)
		var wg sync.WaitGroup
		for g := 0; g < 8; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := 0; i < 200; i++ {
					p := factory()
					for _, thief := range m.Cores {
						for _, stealee := range m.Cores {
							if thief != stealee && p.CanSteal(thief, stealee) {
								p.StealCount(thief, stealee)
							}
						}
						p.Choose(thief, m.Cores)
						p.(sched.Rescuer).RescueTarget(thief, m.Cores)
					}
				}
			}()
		}
		wg.Wait()
	}
}

func TestCompiledProgramAllocatesNothing(t *testing.T) {
	// The verifier calls Load, CanSteal, StealCount and Choose per core
	// pair per state: the compiled closures, the `x.load` references
	// among them, are built once per program, and a call allocates
	// nothing — whatever attributes, operators and chooser it runs.
	if raceEnabled {
		t.Skip("the race detector allocates")
	}
	m := sched.MachineFromLoads(0, 1, 2, 3)
	thief, stealee := m.Core(0), m.Core(3)
	for _, src := range []string{
		listing1,
		rescueMinLoad,
		randomBoth,
		`policy x { load = self.weight.sum filter = stealee.load - self.load >= 2048 && stealee.ready.size >= 1 || !(self.group != stealee.node) steal = (stealee.ready.size - self.id) / 2 % -stealee.current.size choose = min_load rescue = max_load }`,
	} {
		p := Compile(mustParse(t, src))
		if n := testing.AllocsPerRun(100, func() {
			p.Load(stealee)
			p.CanSteal(thief, stealee)
			p.StealCount(thief, stealee)
			p.Choose(thief, m.Cores[1:])
		}); n != 0 {
			t.Errorf("%s: Load + CanSteal + StealCount + Choose allocate %v objects, want 0", p.Name(), n)
		}
	}
}

func TestFrontEndBuildsNoProgram(t *testing.T) {
	// Parse, ComponentForms and Analyze are the warm submit path: they
	// never publish the program (Analyze compiles the clauses into a
	// local), and the probe universe is built once per process, not per
	// call (the counts are go1.24's, without -race).
	for _, tc := range []struct {
		src    string
		allocs float64
	}{
		{listing1, 102},
		{randomBoth, 60},
		{`policy x { load = self.weight.sum filter = stealee.load - self.load >= 2048 && stealee.ready.size >= 1 steal = stealee.ready.size / 2 choose = min_load rescue = max_load }`, 117},
	} {
		var ast *Policy
		n := testing.AllocsPerRun(50, func() {
			ast, _ = Parse(tc.src)
			ComponentForms(ast)
			Analyze(ast, AnalyzeOptions{MaxFaults: 1})
		})
		if ast.prog.Load() != nil {
			t.Errorf("%s: the front end built the executable program", ast.Name)
		}
		if n != tc.allocs && !raceEnabled {
			t.Errorf("%s: Parse + ComponentForms + Analyze allocate %v objects, want %v", ast.Name, n, tc.allocs)
		}
	}
}
