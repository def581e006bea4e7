package convergence

import (
	"math"
	"slices"
	"testing"
	"testing/quick"

	"repro/internal/policy"
)

func TestGraphBuilders(t *testing.T) {
	for name, g := range map[string]Graph{"ring(5)": Ring(5), "hypercube(3)": Hypercube(3)} {
		if len(g.Adj) != g.N {
			t.Errorf("%s: N=%d with %d adjacency rows", name, g.N, len(g.Adj))
		}
		for i, nbrs := range g.Adj {
			for _, j := range nbrs {
				if j == i || !slices.Contains(g.Adj[j], i) {
					t.Errorf("%s: edge %d->%d is a self-loop or not symmetric", name, i, j)
				}
			}
		}
	}
	if got := Ring(5).MaxDegree(); got != 2 {
		t.Errorf("ring degree = %d", got)
	}
	if got := Hypercube(3).MaxDegree(); got != 3 {
		t.Errorf("hypercube degree = %d", got)
	}
}

func TestGraphBuilderPanics(t *testing.T) {
	for name, f := range map[string]func(){
		"ring":      func() { Ring(2) },
		"hypercube": func() { Hypercube(0) },
	} {
		t.Run(name, func(t *testing.T) {
			defer func() {
				if recover() == nil {
					t.Error("no panic")
				}
			}()
			f()
		})
	}
}

// sum is the conservation check of the schemes below.
func sum[T int64 | float64](load []T) T {
	var s T
	for _, v := range load {
		s += v
	}
	return s
}

func TestDiffusionConvergesOnEveryTopology(t *testing.T) {
	for name, g := range map[string]Graph{"ring(8)": Ring(8), "hypercube(3)": Hypercube(3)} {
		load := SpikeLoadFloat(g.N, 64)
		rounds := RoundsToFloat(func(l []float64) { DiffusionRoundFloat(g, l) }, load, 0.5, 10_000)
		if rounds > 10_000 {
			t.Errorf("%s: diffusion did not converge; final %v", name, load)
		}
		if got := sum(load); math.Abs(got-64) > 1e-9 {
			t.Errorf("%s: load not conserved: 64 -> %g", name, got)
		}
	}
}

func TestDiffusionSpeedOrdering(t *testing.T) {
	// The Xu & Lau shape result: the hypercube mixes faster than the
	// ring for the same spike.
	rounds := func(g Graph) int {
		return RoundsToFloat(func(l []float64) { DiffusionRoundFloat(g, l) }, SpikeLoadFloat(g.N, 128), 8, 100_000)
	}
	ring := rounds(Ring(8))
	cube := rounds(Hypercube(3))
	t.Logf("diffusion rounds to imbalance<=8 on n=8: ring=%d hypercube=%d", ring, cube)
	if cube >= ring {
		t.Errorf("ring (%d) should be strictly slower than hypercube (%d)", ring, cube)
	}
}

func TestDimensionExchangeBalancesInOneSweep(t *testing.T) {
	// The classical result: one full sweep reaches balance up to ±1.
	load := SpikeLoad(8, 80)
	moved := DimensionExchangeRound(3, load)
	if moved == 0 {
		t.Fatal("sweep moved nothing")
	}
	if Imbalance(load) > 1 {
		t.Errorf("imbalance after one sweep = %d, want <= 1 (%v)", Imbalance(load), load)
	}
	if sum(load) != 80 {
		t.Errorf("total = %d", sum(load))
	}
}

func TestDimensionExchangeExactWhenDivisible(t *testing.T) {
	load := SpikeLoad(4, 64) // 64/4 = 16 each
	DimensionExchangeRound(2, load)
	for i, v := range load {
		if v != 16 {
			t.Fatalf("load[%d] = %d, want 16 (%v)", i, v, load)
		}
	}
}

func TestStealingRoundsMatchesModel(t *testing.T) {
	p := policy.NewDelta2()
	// Spike on one core: work conservation is immediate concern; full
	// ±1 balance takes longer.
	wc := WorkConservationRounds(p, SpikeLoad(8, 32), 1000)
	full := StealingRounds(p, SpikeLoad(8, 32), 1, 1000)
	t.Logf("delta2 on spike(8, 32): WC in %d rounds, ±1 balance in %d", wc, full)
	if wc > full {
		t.Errorf("WC (%d) cannot take longer than full balance (%d)", wc, full)
	}
	if wc == 0 || full > 1000 {
		t.Errorf("unexpected rounds: wc=%d full=%d", wc, full)
	}
}

func TestStealingBalancedStartNeedsZeroRounds(t *testing.T) {
	p := policy.NewDelta2()
	if got := WorkConservationRounds(p, []int64{1, 1, 1, 1}, 10); got != 0 {
		t.Errorf("rounds = %d, want 0", got)
	}
}

func TestRoundsToStuckSentinel(t *testing.T) {
	// A step that never moves anything must return the sentinel.
	load := []int64{5, 0}
	got := RoundsTo(func([]int64) int64 { return 0 }, load, 1, 50)
	if got != 51 {
		t.Errorf("RoundsTo = %d, want sentinel 51", got)
	}
}

func TestImbalanceAndTotal(t *testing.T) {
	load := []int64{3, 7, 1}
	if Imbalance(load) != 6 {
		t.Errorf("Imbalance = %d", Imbalance(load))
	}
	if Imbalance([]int{3, 7, 1}) != 6 {
		t.Errorf("Imbalance over thread counts = %d", Imbalance([]int{3, 7, 1}))
	}
	if ImbalanceFloat([]float64{3, 7, 1}) != 6 {
		t.Errorf("ImbalanceFloat = %g", ImbalanceFloat([]float64{3, 7, 1}))
	}
	if sum(load) != 11 {
		t.Errorf("total = %d", sum(load))
	}
}

// Property: diffusion conserves total load and never increases imbalance,
// on arbitrary small vectors over a ring.
func TestDiffusionMonotoneProperty(t *testing.T) {
	g := Ring(6)
	f := func(raw [6]uint8) bool {
		load := make([]float64, 6)
		for i, r := range raw {
			load[i] = float64(r % 32)
		}
		total := sum(load)
		before := ImbalanceFloat(load)
		DiffusionRoundFloat(g, load)
		return math.Abs(sum(load)-total) < 1e-9 && ImbalanceFloat(load) <= before+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

// Property: dimension exchange always reaches imbalance <= dim after one
// sweep (each pairwise averaging leaves at most 1 unit of residue per
// dimension), conserving totals.
func TestDimensionExchangeProperty(t *testing.T) {
	f := func(raw [8]uint8) bool {
		load := make([]int64, 8)
		for i, r := range raw {
			load[i] = int64(r % 64)
		}
		total := sum(load)
		DimensionExchangeRound(3, load)
		return sum(load) == total && Imbalance(load) <= 3
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}
