package metrics

import (
	"encoding/binary"
	"math"
	"math/bits"
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

// refHistogram is the full-width reference FuzzHistogram holds
// Histogram to: 64 tiers of counts from the start, every bucket edge
// worked out here, out-of-range indices clamped into the last bucket.
type refHistogram struct {
	sub      int64
	counts   []int64
	total    int64
	sum      float64
	min, max int64
}

func newRefHistogram(sub int) *refHistogram {
	return &refHistogram{sub: int64(sub), counts: make([]int64, 64*sub), min: math.MaxInt64, max: -1}
}

// tierOf returns v's tier (0 below sub) and the log2 of its bucket width.
func (r *refHistogram) tierOf(v int64) (tier, shift int) {
	if v < r.sub {
		return 0, 0
	}
	shift = bits.Len64(uint64(v)) - bits.Len64(uint64(r.sub))
	return shift + 1, shift
}

func (r *refHistogram) record(v int64) {
	v = max(v, 0)
	tier, shift := r.tierOf(v)
	idx := int(v)
	if tier > 0 {
		idx = tier*int(r.sub) + int(v>>shift&(r.sub-1))
	}
	r.counts[min(idx, len(r.counts)-1)]++
	r.total++
	r.sum += float64(v)
	r.min, r.max = min(r.min, v), max(r.max, v)
}

func (r *refHistogram) merge(o *refHistogram) {
	if o.total == 0 {
		return
	}
	for i, c := range o.counts {
		r.counts[i] += c
	}
	r.total += o.total
	r.sum += o.sum
	r.min, r.max = min(r.min, o.min), max(r.max, o.max)
}

func (r *refHistogram) quantile(q float64) int64 {
	if r.total == 0 {
		return 0
	}
	rank := max(int64(math.Ceil(min(max(q, 0), 1)*float64(r.total))), 1)
	for idx, c := range r.counts {
		if rank -= c; rank <= 0 {
			if int64(idx) < r.sub {
				return int64(idx)
			}
			tier, sub := int64(idx)/r.sub-1, int64(idx)%r.sub
			return r.sub<<tier + (sub+1)<<tier - 1
		}
	}
	return r.max
}

// FuzzHistogram records values of every magnitude — negative, 0, either
// side of 2^28, past 2^40, MaxInt64 — into two histograms and merges
// them either way, so histograms of different lengths meet. Each one
// answers Count, Min, Max and Mean after every step, and Quantile after
// every merge and at the end, exactly as its full-width reference does.
func FuzzHistogram(f *testing.F) {
	f.Add(uint8(32), []byte{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17, 18, 19, 20, 21, 22, 23, 24})
	f.Add(uint8(16), []byte{9, 200, 1, 0, 0, 0, 0, 0, 0, 2, 5, 255, 255, 255, 255, 255, 255, 255, 127, 3, 0})
	f.Add(uint8(3), []byte{16, 4, 13, 60, 21, 9, 30, 0, 29, 1, 6, 5, 11, 77})
	f.Fuzz(func(t *testing.T, sub uint8, ops []byte) {
		subBuckets := int(sub%100) + 2
		hs := [2]*Histogram{NewHistogram(subBuckets), NewHistogram(subBuckets)}
		refs := [2]*refHistogram{newRefHistogram(subBuckets), newRefHistogram(subBuckets)}
		check := func(withQuantiles bool) {
			for i, h := range hs {
				r := refs[i]
				if h.Count() != r.total || h.Max() != r.max || math.Float64bits(h.Mean()) != math.Float64bits(meanOf(r)) ||
					(r.total > 0 && h.Min() != r.min) {
					t.Fatalf("histogram %d: %s, reference n=%d min=%d max=%d sum=%v", i, h, r.total, r.min, r.max, r.sum)
				}
				for q := 0.0; withQuantiles && q <= 1; q += 1.0 / 64 {
					if got, want := h.Quantile(q), r.quantile(q); got != want {
						t.Fatalf("histogram %d: Quantile(%v) = %d, reference %d", i, q, got, want)
					}
				}
			}
		}
		for len(ops) > 0 {
			op := ops[0]
			var raw [8]byte
			ops = ops[1+copy(raw[:], ops[1:]):]
			x := int64(binary.LittleEndian.Uint64(raw[:]))
			dst := int(op & 1)
			switch op >> 1 % 8 {
			case 0:
				hs[dst].Merge(hs[1-dst])
				refs[dst].merge(refs[1-dst])
				check(true)
			case 1:
				hs[dst], refs[dst] = NewHistogram(subBuckets), newRefHistogram(subBuckets)
			default:
				v := [...]int64{
					x,                            // any int64, negative half the time
					x % 5_000,                    // small, some negative
					1<<28 + x%64,                 // around the initial width
					1<<40 + x&(1<<20-1),          // past 2^40
					math.MaxInt64 - x&0xff,       // the top tier
					int64(uint64(x) >> (x & 63)), // every magnitude
				}[op>>4%6]
				hs[dst].Record(v)
				refs[dst].record(v)
				check(false)
			}
		}
		check(true)
	})
}

func meanOf(r *refHistogram) float64 {
	if r.total == 0 {
		return 0
	}
	return r.sum / float64(r.total)
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
