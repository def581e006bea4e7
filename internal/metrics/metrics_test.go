package metrics

import (
	"math/rand"
	"sort"
	"strings"
	"testing"
	"testing/quick"
)

func TestTimeWeighted(t *testing.T) {
	var w TimeWeighted
	w.Observe(0, 2)  // value 2 during [0,10)
	w.Observe(10, 5) // value 5 during [10,20)
	if got := w.IntegralAt(20); got != 2*10+5*10 {
		t.Errorf("IntegralAt(20) = %v, want 70", got)
	}
	if got := w.IntegralAt(25); got != 2*10+5*15 {
		t.Errorf("IntegralAt(25) = %v, want 95 (the last value holds through t)", got)
	}
}

func TestTimeWeightedEmpty(t *testing.T) {
	var w TimeWeighted
	if w.IntegralAt(100) != 0 {
		t.Error("empty integral should be 0")
	}
}

func TestTimeWeightedBackwardsPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("backwards time did not panic")
		}
	}()
	var w TimeWeighted
	w.Observe(10, 1)
	w.Observe(5, 1)
}

func TestHistogramBasics(t *testing.T) {
	h := NewHistogram(16)
	for i := int64(1); i <= 100; i++ {
		h.Record(i)
	}
	if h.Count() != 100 {
		t.Errorf("Count = %d", h.Count())
	}
	if h.Min() != 1 || h.Max() != 100 {
		t.Errorf("Min/Max = %d/%d", h.Min(), h.Max())
	}
	if m := h.Mean(); m != 50.5 {
		t.Errorf("Mean = %v, want 50.5", m)
	}
	p50 := h.Quantile(0.5)
	if p50 < 45 || p50 > 56 {
		t.Errorf("p50 = %d, want ≈50 (log-linear error bound)", p50)
	}
	p99 := h.Quantile(0.99)
	if p99 < 92 || p99 > 108 {
		t.Errorf("p99 = %d, want ≈99", p99)
	}
}

func TestHistogramEmpty(t *testing.T) {
	h := NewHistogram(16)
	if h.Quantile(0.5) != 0 || h.Mean() != 0 || h.Min() != 0 || h.Max() != -1 {
		t.Error("empty histogram misbehaves")
	}
	if h.String() != "hist(empty)" {
		t.Errorf("String = %q", h.String())
	}
}

func TestHistogramNegativeClamped(t *testing.T) {
	h := NewHistogram(16)
	h.Record(-5)
	if h.Min() != 0 {
		t.Errorf("Min = %d, want 0 (clamped)", h.Min())
	}
}

func TestHistogramQuantileBounds(t *testing.T) {
	h := NewHistogram(16)
	h.Record(42)
	if h.Quantile(-1) != h.Quantile(0) {
		t.Error("q<0 not clamped")
	}
	if h.Quantile(2) != h.Quantile(1) {
		t.Error("q>1 not clamped")
	}
}

func TestHistogramPanicsOnTinySubBuckets(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("NewHistogram(1) did not panic")
		}
	}()
	NewHistogram(1)
}

// Property: quantile estimates stay within the log-linear relative error
// bound (1/subBuckets per tier ⇒ ≤ 2/subBuckets overall) against exact
// order statistics.
func TestHistogramQuantileAccuracyProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 20; trial++ {
		h := NewHistogram(32)
		var vals []int64
		n := 200 + rng.Intn(800)
		for i := 0; i < n; i++ {
			v := int64(rng.Intn(1_000_000))
			vals = append(vals, v)
			h.Record(v)
		}
		sort.Slice(vals, func(i, j int) bool { return vals[i] < vals[j] })
		for _, q := range []float64{0.5, 0.9, 0.99} {
			rank := int(q*float64(n)) - 1
			if rank < 0 {
				rank = 0
			}
			exact := vals[rank]
			est := h.Quantile(q)
			if exact == 0 {
				continue
			}
			rel := float64(est-exact) / float64(exact)
			if rel < -0.10 || rel > 0.15 {
				t.Errorf("trial %d q=%.2f: exact=%d est=%d rel=%.3f", trial, q, exact, est, rel)
			}
		}
	}
}

// Property: against an exact sorted-slice oracle, Quantile is bracketed
// by the log-linear design bound: with the ceil-rank upper-edge
// convention, exact ≤ estimate ≤ exact + exact/subBuckets (bucket width
// never exceeds lower-edge/subBuckets). This is the bound the tail-
// latency reports rely on for p50/p99/p999.
func TestHistogramQuantileOracleBound(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	for trial := 0; trial < 30; trial++ {
		sub := []int{16, 32, 64}[trial%3]
		h := NewHistogram(sub)
		n := 1 + rng.Intn(5000)
		vals := make([]int64, n)
		for i := range vals {
			// Mix scales so every tier is exercised, including the exact
			// sub-subBuckets range.
			switch i % 3 {
			case 0:
				vals[i] = int64(rng.Intn(sub))
			case 1:
				vals[i] = int64(rng.Intn(100_000))
			default:
				vals[i] = int64(rng.Intn(1 << 40))
			}
			h.Record(vals[i])
		}
		sort.Slice(vals, func(i, j int) bool { return vals[i] < vals[j] })
		for _, q := range []float64{0, 0.5, 0.9, 0.99, 0.999, 1} {
			rank := int(mathCeil(q * float64(n)))
			if rank < 1 {
				rank = 1
			}
			exact := vals[rank-1]
			est := h.Quantile(q)
			if est < exact {
				t.Fatalf("trial %d sub=%d q=%g: estimate %d below exact %d", trial, sub, q, est, exact)
			}
			if bound := exact + exact/int64(sub); est > bound {
				t.Fatalf("trial %d sub=%d q=%g: estimate %d above bound %d (exact %d)", trial, sub, q, est, bound, exact)
			}
		}
	}
}

func mathCeil(x float64) float64 {
	i := float64(int64(x))
	if i < x {
		return i + 1
	}
	return i
}

// Property: Merge(h1, h2) is indistinguishable — counts, sum, extremes
// and every quantile — from one histogram that recorded the concatenation
// of both sample streams.
func TestHistogramMergeEqualsConcatenation(t *testing.T) {
	rng := rand.New(rand.NewSource(97))
	for trial := 0; trial < 20; trial++ {
		h1, h2, all := NewHistogram(32), NewHistogram(32), NewHistogram(32)
		for i := 0; i < 400+rng.Intn(600); i++ {
			v := int64(rng.Intn(1 << 30))
			h1.Record(v)
			all.Record(v)
		}
		for i := 0; i < rng.Intn(500); i++ { // h2 may be much smaller, even empty
			v := int64(rng.Intn(1000))
			h2.Record(v)
			all.Record(v)
		}
		h1.Merge(h2)
		if h1.Count() != all.Count() || h1.Mean() != all.Mean() ||
			h1.Min() != all.Min() || h1.Max() != all.Max() {
			t.Fatalf("trial %d: merged summary %s != concatenated %s", trial, h1, all)
		}
		for q := 0.0; q <= 1.0; q += 0.01 {
			if h1.Quantile(q) != all.Quantile(q) {
				t.Fatalf("trial %d: merged Quantile(%.2f) = %d, concatenated %d",
					trial, q, h1.Quantile(q), all.Quantile(q))
			}
		}
	}
}

func TestHistogramMergeEmptyAndNil(t *testing.T) {
	h := NewHistogram(16)
	h.Record(7)
	h.Merge(nil)
	h.Merge(NewHistogram(16)) // empty: no-op, must not disturb min/max
	if h.Count() != 1 || h.Min() != 7 || h.Max() != 7 {
		t.Errorf("merge of nil/empty disturbed state: %s", h)
	}
	empty := NewHistogram(16)
	empty.Merge(h)
	if empty.Count() != 1 || empty.Min() != 7 || empty.Max() != 7 {
		t.Errorf("merge into empty lost state: %s", empty)
	}
}

func TestHistogramMergeResolutionMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("Merge across resolutions did not panic")
		}
	}()
	a, b := NewHistogram(16), NewHistogram(32)
	b.Record(1)
	a.Merge(b)
}

// Property: bucketUpper is monotone and bucketIndex(bucketUpper(i)) == i.
func TestHistogramBucketRoundTrip(t *testing.T) {
	h := NewHistogram(16)
	f := func(raw uint32) bool {
		v := int64(raw)
		idx := h.bucketIndex(v)
		upper := h.bucketUpper(idx)
		return upper >= v && h.bucketIndex(upper) == idx
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestViolationTracker(t *testing.T) {
	v := NewViolationTracker(0)
	// [0,10): 2 idle cores, overloaded exists -> 20 wasted core-ticks.
	v.Observe(0, 2, true)
	// [10,20): idle but nothing overloaded -> legal idleness.
	v.Observe(10, 2, false)
	// [20,30): violation again (1 idle).
	v.Observe(20, 1, true)
	v.Observe(30, 0, false)
	if got := v.WastedCoreSeconds(30); got != 2*10+1*10 {
		t.Errorf("WastedCoreSeconds = %v, want 30", got)
	}
	if got := v.IdleCoreSeconds(30); got != 2*10+2*10+1*10 {
		t.Errorf("IdleCoreSeconds = %v, want 50", got)
	}
	if v.Episodes() != 2 {
		t.Errorf("Episodes = %d, want 2", v.Episodes())
	}
}

func TestViolationTrackerLongestEpisode(t *testing.T) {
	v := NewViolationTracker(0)
	v.Observe(0, 1, true)   // episode 1: [0,10) -> 10
	v.Observe(10, 0, false) // closed
	v.Observe(40, 2, true)  // episode 2: opens at 40
	if got := v.LongestEpisodeAt(45); got != 10 {
		t.Errorf("LongestEpisodeAt(45) = %d, want 10 (open episode shorter)", got)
	}
	if got := v.LongestEpisodeAt(90); got != 50 {
		t.Errorf("LongestEpisodeAt(90) = %d, want 50 (open episode counts through t)", got)
	}
	v.Observe(100, 0, false) // episode 2 closed at 60 ticks
	if got := v.LongestEpisodeAt(500); got != 60 {
		t.Errorf("LongestEpisodeAt(500) = %d, want 60", got)
	}
	if v.Episodes() != 2 {
		t.Errorf("Episodes = %d, want 2", v.Episodes())
	}
}

func TestViolationTrackerNoTime(t *testing.T) {
	v := NewViolationTracker(5)
	if v.WastedCoreSeconds(5) != 0 || v.IdleCoreSeconds(5) != 0 || v.LongestEpisodeAt(5) != 0 {
		t.Errorf("no time elapsed, yet wasted=%v idle=%v longest=%d",
			v.WastedCoreSeconds(5), v.IdleCoreSeconds(5), v.LongestEpisodeAt(5))
	}
}

func TestTable(t *testing.T) {
	tb := NewTable("policy", "N", "wasted%")
	tb.AddRow("delta2", "3", "0.0")
	tb.AddRow("cfs-buggy", "∞", "25.1")
	out := tb.String()
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 4 {
		t.Fatalf("table lines = %d:\n%s", len(lines), out)
	}
	if !strings.HasPrefix(lines[0], "policy") {
		t.Errorf("header = %q", lines[0])
	}
	if !strings.Contains(lines[1], "---") {
		t.Errorf("separator = %q", lines[1])
	}
	// Overflowing cells are dropped.
	tb2 := NewTable("a")
	tb2.AddRow("1", "2")
	if strings.Contains(tb2.String(), "2") {
		t.Error("overflow cell not dropped")
	}
}
