package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
	"time"
)

// benchmarkJSON is the contract file at the repository root.
type benchmarkJSON struct {
	Workloads []struct{ Name string } `json:"workloads"`
	EndToEnd  []jsonMetric            `json:"end_to_end"`
	PerLayer  []jsonMetric            `json:"per_layer"`
}

type jsonMetric struct {
	Name, Unit, Better string
}

func readBenchmarkJSON(t *testing.T) benchmarkJSON {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkJSON
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	return b
}

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	// rowRE matches one metric line of the table: name, value, unit, samples.
	rowRE = regexp.MustCompile(`^  (\S+)\s+(-?[0-9.]+)\s+(\S+)\s+samples=(\d+)$`)
)

// smoke runs one workload at a few ops and returns the table's metric
// rows (name → unit) and the contract line.
func smoke(t *testing.T, workload string, trace string) (map[string]string, contractLine, int) {
	t.Helper()
	var stdout, stderr bytes.Buffer
	args := []string{"-workload", workload, "-ops-scale", "0.01", "-trace", trace, "-out", t.TempDir()}
	code := run(args, &stdout, &stderr)
	rows := map[string]string{}
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	for _, line := range lines {
		if m := rowRE.FindStringSubmatch(line); m != nil {
			if _, dup := rows[m[1]]; dup {
				t.Errorf("%s: metric %s printed twice", workload, m[1])
			}
			rows[m[1]] = m[3]
		}
	}
	var last contractLine
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &last); err != nil {
		t.Fatalf("%s: last line is not the result object: %v\nstdout: %s\nstderr: %s", workload, err, stdout.String(), stderr.String())
	}
	return rows, last, code
}

// TestSmoke runs all five workloads, untraced and traced, at a few ops
// each and checks that every metric BENCHMARK.json declares is printed
// exactly once with its unit, and nothing else is.
func TestSmoke(t *testing.T) {
	start := time.Now()
	b := readBenchmarkJSON(t)
	if len(b.Workloads) != len(workloadNames) {
		t.Fatalf("BENCHMARK.json has %d workloads, the command %d", len(b.Workloads), len(workloadNames))
	}
	for i, w := range b.Workloads {
		if w.Name != workloadNames[i] {
			t.Errorf("BENCHMARK.json workload %d is %q, the command's is %q", i, w.Name, workloadNames[i])
		}
	}
	for _, set := range []struct {
		trace    string
		declared []jsonMetric
		defs     []metricDef
	}{{"0", b.EndToEnd, endToEnd}, {"1", b.PerLayer, perLayer}} {
		if len(set.declared) != len(set.defs) {
			t.Fatalf("trace=%s: BENCHMARK.json declares %d metrics, metrics.go %d", set.trace, len(set.declared), len(set.defs))
		}
		for i, d := range set.declared {
			if !nameRE.MatchString(d.Name) || !unitRE.MatchString(d.Unit) {
				t.Errorf("metric %q unit %q is outside the contract's alphabet", d.Name, d.Unit)
			}
			if def := set.defs[i]; d.Name != def.name || d.Unit != def.unit || d.Better != def.better {
				t.Errorf("BENCHMARK.json has %+v where metrics.go has %+v", d, def)
			}
		}
		for _, workload := range workloadNames {
			rows, last, code := smoke(t, workload, set.trace)
			if code != 0 || !last.Correct || last.Failed != 0 || last.Attempted < 1 {
				t.Errorf("%s trace=%s: exit %d, result %+v", workload, set.trace, code, last)
			}
			if len(rows) != len(set.declared) || len(last.Metrics) != len(set.declared) {
				t.Errorf("%s trace=%s: %d table rows and %d result metrics for %d declared", workload, set.trace, len(rows), len(last.Metrics), len(set.declared))
			}
			for _, d := range set.declared {
				if rows[d.Name] != d.Unit {
					t.Errorf("%s trace=%s: table has %s in %q, want %q", workload, set.trace, d.Name, rows[d.Name], d.Unit)
				}
				if got, ok := last.Metrics[d.Name]; !ok || got.Unit != d.Unit {
					t.Errorf("%s trace=%s: result object has %s as %+v, want unit %q", workload, set.trace, d.Name, got, d.Unit)
				}
			}
			if set.trace == "0" {
				for name, v := range last.Metrics {
					if v.Value <= 0 {
						t.Errorf("%s: end-to-end metric %s is %v, must be positive", workload, name, v.Value)
					}
				}
			}
		}
	}
	// Budget: 10 s. Logged, not asserted — tier-1 runs packages in
	// parallel and a wall-clock assertion there is a flake, not a check.
	t.Logf("smoke test took %s", time.Since(start))
}

// TestWrongOracleFailsOps doctors one verdict of the table: every op
// that submits that policy must count as failed and the command must
// exit non-zero.
func TestWrongOracleFailsOps(t *testing.T) {
	var doc map[string]any
	if err := json.Unmarshal(embeddedOracle, &doc); err != nil {
		t.Fatal(err)
	}
	doc["verdicts"].(map[string]any)["delta2@faults1"].(map[string]any)["lemma1"] = "REFUTED"
	data, err := json.Marshal(doc)
	if err != nil {
		t.Fatal(err)
	}
	defer func(reviewed []byte) { embeddedOracle = reviewed }(embeddedOracle)
	embeddedOracle = data
	_, last, code := smoke(t, "verifyd-cold", "0")
	if code == 0 || last.Correct || last.Failed != last.Attempted {
		t.Errorf("doctored oracle: exit %d, result correct=%v failed=%d of %d; want non-zero exit and every op failed",
			code, last.Correct, last.Failed, last.Attempted)
	}
}

func TestSelfTimes(t *testing.T) {
	spans := []span{
		{Name: "parent", Start: 0, End: 100, Parent: -1},
		{Name: "a", Start: 10, End: 30, Parent: 0},
		{Name: "b", Start: 20, End: 50, Parent: 0},    // overlaps a: [10,50) is covered once
		{Name: "c", Start: 90, End: 120, Parent: 0},   // runs past the parent: clipped at 100
		{Name: "leaf", Start: 12, End: 18, Parent: 1}, // a's child, not the parent's
	}
	want := map[string]time.Duration{"parent": 50, "a": 14, "b": 30, "c": 30, "leaf": 6}
	got := selfTimes(spans)
	for name, d := range want {
		if got[name] != d {
			t.Errorf("self time of %s is %d, want %d", name, got[name], d)
		}
	}
}

// TestQuartiles pins the A/A quartiles to Python's
// statistics.quantiles(values, n=4), which the driver uses.
func TestQuartiles(t *testing.T) {
	q1, q2, q3 := quartiles([]float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5})
	if q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Errorf("quartiles of 1..10 are %v %v %v, want 2.75 5.5 8.25", q1, q2, q3)
	}
}

// TestGauge: without a probe the gauge reads 1 and scales nothing; with
// one, a lap is the nominal time over the mean of the two samples around
// it, and close removes the sync phase's file.
func TestGauge(t *testing.T) {
	none, err := newGauge(followsNothing, t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	none.mark()
	if sp := none.lap(); sp != 1 {
		t.Errorf("gauge without a probe reads %v, want 1", sp)
	}
	none.close()

	dir := t.TempDir()
	g, err := newGauge(followsMemoryAndDisk, dir)
	if err != nil {
		t.Fatal(err)
	}
	if g.p.nominal != memoryNominal+syncNominal {
		t.Errorf("nominal with a sync phase is %v, want %v", g.p.nominal, memoryNominal+syncNominal)
	}
	g.mark()
	before := g.last
	sp := g.lap()
	if want := 2 * float64(g.p.nominal) / float64(before+g.last); sp != want || sp <= 0 {
		t.Errorf("lap reads %v, want nominal over the mean of its two samples, %v", sp, want)
	}
	g.close()
	if left, _ := os.ReadDir(dir); len(left) != 0 {
		t.Errorf("the probe left %d files behind", len(left))
	}
}

func TestMemoModelPredictsEditReruns(t *testing.T) {
	// The edit cycle's re-runs per submission, straight from
	// verify.ObligationDeps: filter is consulted by all ten checkers,
	// steal by all but lemma1, choose by six, rescue by the two fault
	// obligations; a comment-only edit and the revert re-run nothing.
	w := &editWorkload{}
	orc, err := loadOracle()
	if err != nil {
		t.Fatal(err)
	}
	e, err := newEnv(t.TempDir(), 1, orc, 0.01)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.setup(e); err != nil {
		t.Fatal(err)
	}
	defer w.close()
	want := []int64{10, 9, 6, 2, 0, 0}
	for i, n := range w.expect {
		if n != want[i] {
			t.Errorf("edit %d (%s): model predicts %d re-runs, want %d", i, w.subs[i].row, n, want[i])
		}
	}
}
