package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
)

// benchmarkFile is the part of BENCHMARK.json the A/A run needs.
type benchmarkFile struct {
	EndToEnd []struct {
		Name   string  `json:"name"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
}

// quartiles are the first quartile, median and third quartile of xs by
// linear interpolation at (n+1)p — Python's statistics.quantiles(n=4).
func quartiles(xs []float64) (q1, q2, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	at := func(p float64) float64 {
		pos := p*float64(len(s)+1) - 1
		lo := int(math.Floor(pos))
		if lo < 0 {
			return s[0]
		}
		if lo >= len(s)-1 {
			return s[len(s)-1]
		}
		return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
	}
	return at(0.25), at(0.5), at(0.75)
}

// aaRuns is the runs per A/A set.
const aaRuns = 5

// runAA measures the same code as -aa sets of aaRuns runs each, the
// sets interleaved run by run so drift on the machine hits all of them
// alike, and prints per workload × metric every set's median and
// quartiles, the worst gap between two sets' medians as a share of the
// better one, and PASS or FAIL against the bound in BENCHMARK.json. Its
// output is how the bounds were calibrated.
func runAA(o options, stdout, stderr io.Writer) int {
	data, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		fmt.Fprintf(stderr, "bench: -aa reads the bounds from BENCHMARK.json in the working directory: %v\n", err)
		return 1
	}
	var file benchmarkFile
	if err := json.Unmarshal(data, &file); err != nil {
		fmt.Fprintf(stderr, "bench: BENCHMARK.json: %v\n", err)
		return 1
	}
	names := workloadNames
	if o.workload != "" {
		names = []string{o.workload}
	}
	// samples[workload][metric][set] holds that set's runs.
	samples := map[string]map[string][][]float64{}
	for run := 0; run < aaRuns; run++ {
		for set := 0; set < o.aaSets; set++ {
			for _, name := range names {
				doc, err := child(o, name, 0, stderr)
				if err != nil || !doc.Correct {
					fmt.Fprintf(stderr, "bench: -aa: %s run %d of set %d failed (%v)\n", name, run, set, err)
					return 1
				}
				if samples[name] == nil {
					samples[name] = map[string][][]float64{}
				}
				for metric, v := range doc.Metrics {
					if samples[name][metric] == nil {
						samples[name][metric] = make([][]float64, o.aaSets)
					}
					samples[name][metric][set] = append(samples[name][metric][set], v.Value)
				}
				fmt.Fprintf(stderr, "bench: -aa: run %d/%d set %d/%d %s done\n", run+1, aaRuns, set+1, o.aaSets, name)
			}
		}
	}
	failed := 0
	fmt.Fprintf(stdout, "A/A: %d sets × %d runs, seed %d (median [q1 q3] per set; gap = worst difference between two sets' medians)\n", o.aaSets, aaRuns, o.seed)
	for _, name := range names {
		for _, m := range file.EndToEnd {
			fmt.Fprintf(stdout, "%-14s %-16s", name, m.Name)
			lo, hi := math.Inf(1), math.Inf(-1)
			for _, set := range samples[name][m.Name] {
				q1, q2, q3 := quartiles(set)
				fmt.Fprintf(stdout, " %11.4f [%11.4f %11.4f]", q2, q1, q3)
				lo, hi = math.Min(lo, q2), math.Max(hi, q2)
			}
			// Relative to the better median, as the bound is: how much
			// worse than it the worst set reads.
			gap := (hi - lo) / lo
			if m.Better == "higher" {
				gap = (hi - lo) / hi
			}
			verdict := "PASS"
			if gap > m.Bound {
				verdict = "FAIL"
				failed++
			}
			fmt.Fprintf(stdout, "  gap %6.2f%%  bound %5.1f%%  %s\n", 100*gap, 100*m.Bound, verdict)
		}
	}
	if failed > 0 {
		fmt.Fprintf(stdout, "A/A: %d workload × metric pairs outside their bound\n", failed)
		return 1
	}
	fmt.Fprintln(stdout, "A/A: every workload × metric within its bound")
	return 0
}
