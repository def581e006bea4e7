package loadgen

import (
	"math"
	"testing"

	"repro/internal/sim"
)

func sampleMean(d ServiceDist, seed uint64, n int) float64 {
	rng := sim.NewRNG(seed)
	var sum float64
	for i := 0; i < n; i++ {
		sum += float64(d.Sample(rng))
	}
	return sum / float64(n)
}

// Property (satellite): empirical service means match the analytic
// truncated-Pareto expectation, including the α = 1 logarithmic branch.
func TestBoundedParetoMeanMatchesAnalytic(t *testing.T) {
	cases := []struct {
		alpha float64
		l, h  int64
	}{
		{1.5, 1_000, 1_000_000},
		{1.1, 500, 2_000_000},
		{1.0, 1_000, 100_000},
		{2.5, 100, 50_000},
	}
	for _, c := range cases {
		d := NewBoundedPareto(c.alpha, c.l, c.h)
		want := d.Mean()
		got := sampleMean(d, 77, 500_000)
		if rel := (got - want) / want; rel < -0.03 || rel > 0.03 {
			t.Errorf("%s: empirical mean %v vs analytic %v (rel %.3f)", d.Name(), got, want, rel)
		}
	}
}

// NewBoundedPareto computes (L/H)^α once; every draw and the mean keep
// the bits of the expressions that recomputed it, written out here: 10^5
// draws from one seed per shape, and Mean compared by its float bits.
func TestBoundedParetoKeepsItsBits(t *testing.T) {
	for _, c := range []struct {
		alpha float64
		l, h  int64
	}{{1.5, 1_000, 1_000_000}, {1.1, 500, 2_000_000}, {1.0, 1_000, 100_000}, {2.5, 100, 50_000}} {
		d := NewBoundedPareto(c.alpha, c.l, c.h)
		l, h := float64(c.l), float64(c.h)
		got, want := sim.NewRNG(5), sim.NewRNG(5)
		for i := range 100_000 {
			u := want.Float64()
			x := l * math.Pow(1-u*(1-math.Pow(l/h, c.alpha)), -1/c.alpha)
			w := min(max(int64(x), c.l), c.h)
			if g := d.Sample(got); g != w {
				t.Fatalf("%s: draw %d = %d, the inline expression gives %d", d.Name(), i, g, w)
			}
		}
		mean := l / (1 - l/h) * math.Log(h/l)
		if c.alpha != 1 {
			mean = c.alpha * math.Pow(l, c.alpha) / ((1 - math.Pow(l/h, c.alpha)) * (c.alpha - 1)) *
				(math.Pow(l, 1-c.alpha) - math.Pow(h, 1-c.alpha))
		}
		if g := d.Mean(); math.Float64bits(g) != math.Float64bits(mean) {
			t.Errorf("%s: Mean = %v, the closed form gives %v", d.Name(), g, mean)
		}
	}
}

func TestBoundedParetoSamplesStayInRange(t *testing.T) {
	d := NewBoundedPareto(1.5, 1_000, 1_000_000)
	rng := sim.NewRNG(3)
	sawTail := false
	for i := 0; i < 200_000; i++ {
		v := d.Sample(rng)
		if v < 1_000 || v > 1_000_000 {
			t.Fatalf("sample %d outside [1000, 1000000]", v)
		}
		if v > 100_000 {
			sawTail = true
		}
	}
	if !sawTail {
		t.Error("200k samples never exceeded 100k ticks — tail looks truncated")
	}
}

func TestExponentialMeanMatchesAnalytic(t *testing.T) {
	d := NewExponential(3_000)
	got := sampleMean(d, 13, 200_000)
	if rel := (got - 3_000) / 3_000; rel < -0.02 || rel > 0.02 {
		t.Errorf("exp: empirical mean %v (rel %.3f)", got, rel)
	}
}

func TestDistConstructorsPanicOnBadInput(t *testing.T) {
	for name, f := range map[string]func(){
		"exp-zero":          func() { NewExponential(0) },
		"pareto-zero-alpha": func() { NewBoundedPareto(0, 1, 10) },
		"pareto-l-zero":     func() { NewBoundedPareto(1.5, 0, 10) },
		"pareto-h-below-l":  func() { NewBoundedPareto(1.5, 10, 10) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s did not panic", name)
				}
			}()
			f()
		}()
	}
}
