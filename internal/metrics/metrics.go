// Package metrics provides the measurement primitives used by the
// simulator and benchmark harness: time-weighted gauges, log-linear
// latency histograms, and the work-conservation violation tracker that
// quantifies "wasted cores" (idle time accumulated while other cores
// were overloaded — the §1 motivation metric).
package metrics

import (
	"fmt"
	"math"
	"math/bits"
	"strings"
)

// TimeWeighted accumulates the time integral of a step function — e.g.
// "number of idle cores" weighted by how long each value held.
type TimeWeighted struct {
	lastT    int64
	lastV    float64
	integral float64
	started  bool
}

// Observe records that the tracked value became v at time t (monotonic).
func (w *TimeWeighted) Observe(t int64, v float64) {
	if w.started {
		if t < w.lastT {
			panic(fmt.Sprintf("metrics: TimeWeighted time went backwards: %d -> %d", w.lastT, t))
		}
		w.integral += float64(t-w.lastT) * w.lastV
	}
	w.lastT, w.lastV, w.started = t, v, true
}

// IntegralAt closes the integral at time t and returns ∫v dt.
func (w *TimeWeighted) IntegralAt(t int64) float64 {
	if !w.started {
		return 0
	}
	return w.integral + float64(t-w.lastT)*w.lastV
}

// Histogram is a log-linear histogram (HdrHistogram-style buckets): each
// power-of-two range is split into subBuckets linear buckets, giving a
// bounded relative error with O(1) record cost. The counts start with
// startTiers tiers, so a histogram grows only past 2^28 (at 32
// sub-buckets), and then to maxTiers at once; bucket bounds, and so
// every quantile, do not depend on whether it grew.
type Histogram struct {
	subBuckets int
	subBits    int // floor(log2(subBuckets))
	counts     []int64
	total      int64
	sum        float64
	min, max   int64
}

const (
	startTiers = 24
	maxTiers   = 64
)

// NewHistogram returns a histogram with the given sub-bucket resolution
// (16 gives ≈6% relative error; 32 gives ≈3%).
func NewHistogram(subBuckets int) *Histogram {
	if subBuckets < 2 {
		panic(fmt.Sprintf("metrics: NewHistogram(%d)", subBuckets))
	}
	return &Histogram{
		subBuckets: subBuckets,
		subBits:    bits.Len(uint(subBuckets)) - 1,
		counts:     make([]int64, startTiers*subBuckets),
		min:        math.MaxInt64,
		max:        -1,
	}
}

// bucketIndex maps a non-negative value to its bucket.
func (h *Histogram) bucketIndex(v int64) int {
	if v < 0 {
		v = 0
	}
	if v < int64(h.subBuckets) {
		return int(v)
	}
	shift := bits.Len64(uint64(v)) - 1 - h.subBits
	sub := int(v >> uint(shift) & int64(h.subBuckets-1))
	return (shift+1)*h.subBuckets + sub
}

// Record adds one observation.
func (h *Histogram) Record(v int64) {
	if v < 0 {
		v = 0
	}
	idx := h.bucketIndex(v)
	if idx >= len(h.counts) {
		h.grow()
		idx = min(idx, len(h.counts)-1)
	}
	h.counts[idx]++
	h.total++
	h.sum += float64(v)
	if v < h.min {
		h.min = v
	}
	if v > h.max {
		h.max = v
	}
}

// Merge folds every observation of o into h. The two histograms must
// share a sub-bucket resolution (bucket boundaries are a function of
// subBuckets alone, so equal-resolution histograms are bucket-compatible
// by construction). Merging is exact at the bucket level: Merge(h1, h2)
// holds the same counts — and therefore the same quantile estimates — as
// one histogram that recorded the concatenation of both sample streams.
// This is what lets per-shard or per-load-point latency histograms be
// combined into a sweep-wide distribution without re-recording.
func (h *Histogram) Merge(o *Histogram) {
	if o == nil || o.total == 0 {
		return
	}
	if o.subBuckets != h.subBuckets {
		panic(fmt.Sprintf("metrics: Merge of %d-sub-bucket histogram into %d", o.subBuckets, h.subBuckets))
	}
	if len(o.counts) > len(h.counts) {
		h.grow()
	}
	for i, c := range o.counts {
		h.counts[i] += c
	}
	h.total += o.total
	h.sum += o.sum
	if o.min < h.min {
		h.min = o.min
	}
	if o.max > h.max {
		h.max = o.max
	}
}

// grow lengthens the counts to all maxTiers tiers; past those, Record
// clamps into the last bucket.
func (h *Histogram) grow() {
	h.counts = append(h.counts, make([]int64, maxTiers*h.subBuckets-len(h.counts))...)
}

// Count returns the number of observations.
func (h *Histogram) Count() int64 { return h.total }

// Mean returns the mean observation, or 0 if empty.
func (h *Histogram) Mean() float64 {
	if h.total == 0 {
		return 0
	}
	return h.sum / float64(h.total)
}

// Min and Max return the extreme observations (0 and -1 when empty).
func (h *Histogram) Min() int64 {
	if h.total == 0 {
		return 0
	}
	return h.min
}

// Max returns the largest observation, or -1 when empty.
func (h *Histogram) Max() int64 { return h.max }

// Quantile returns an upper bound of the q-quantile (0 ≤ q ≤ 1) using the
// bucket upper edges, the convention of HdrHistogram.
func (h *Histogram) Quantile(q float64) int64 {
	if h.total == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	rank := int64(math.Ceil(q * float64(h.total)))
	if rank < 1 {
		rank = 1
	}
	var seen int64
	for idx, c := range h.counts {
		seen += c
		if seen >= rank {
			return h.bucketUpper(idx)
		}
	}
	return h.max
}

// bucketUpper returns the largest value mapping into bucket idx.
func (h *Histogram) bucketUpper(idx int) int64 {
	if idx < h.subBuckets {
		return int64(idx)
	}
	tier := idx/h.subBuckets - 1
	sub := idx % h.subBuckets
	base := int64(h.subBuckets) << uint(tier)
	width := int64(1) << uint(tier)
	return base + int64(sub+1)*width - 1
}

// String summarizes the histogram.
func (h *Histogram) String() string {
	if h.total == 0 {
		return "hist(empty)"
	}
	return fmt.Sprintf("hist(n=%d mean=%.1f p50=%d p99=%d max=%d)",
		h.total, h.Mean(), h.Quantile(0.50), h.Quantile(0.99), h.Max())
}

// Table is a minimal fixed-width table formatter for paper-style output
// shared by the benchmark harness and the CLI tools.
type Table struct {
	header []string
	rows   [][]string
}

// NewTable creates a table with the given column headers.
func NewTable(header ...string) *Table { return &Table{header: header} }

// AddRow appends a row; cells beyond the header width are dropped.
func (t *Table) AddRow(cells ...string) {
	if len(cells) > len(t.header) {
		cells = cells[:len(t.header)]
	}
	t.rows = append(t.rows, cells)
}

// String renders the table with aligned columns.
func (t *Table) String() string {
	widths := make([]int, len(t.header))
	for i, h := range t.header {
		widths[i] = len(h)
	}
	for _, row := range t.rows {
		for i, c := range row {
			if len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	var b strings.Builder
	writeRow := func(cells []string) {
		for i := range t.header {
			cell := ""
			if i < len(cells) {
				cell = cells[i]
			}
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], cell)
		}
		b.WriteByte('\n')
	}
	writeRow(t.header)
	sep := make([]string, len(t.header))
	for i, w := range widths {
		sep[i] = strings.Repeat("-", w)
	}
	writeRow(sep)
	for _, row := range t.rows {
		writeRow(row)
	}
	return b.String()
}
