package loadgen

import (
	"context"
	"crypto/sha256"
	"flag"
	"fmt"
	"os"
	"runtime"
	"strings"
	"testing"

	"repro/internal/policy"
)

// updateGolden regenerates testdata/golden-sweep-v2.txt from the sweep as
// it stands. Only a change that bumps ReportVersion may use it.
var updateGolden = flag.Bool("update-golden", false, "rewrite internal/loadgen/testdata/golden-sweep-*.txt (only together with a ReportVersion bump)")

const goldenFile = "testdata/golden-sweep-v2.txt"

type goldenSweep struct {
	name string
	cfg  SweepConfig
}

// goldenSweeps is the pinned corpus: between them the configs run every
// registered policy, idle balancing on and off, both arrival processes
// against both service laws, grouped and flat machines, sequential-only
// jobs and the benchmark's own op.
func goldenSweeps() []goldenSweep {
	base := func(seed uint64, policies ...string) SweepConfig {
		return SweepConfig{Policies: policies, Loads: []float64{0.7, 0.9}, Horizon: 480_000, Seed: seed}
	}
	with := func(cfg SweepConfig, edit func(*SweepConfig)) SweepConfig {
		edit(&cfg)
		return cfg
	}
	return []goldenSweep{
		{"bench-op", base(1<<20|1, "delta2", "weighted", "cfs-group-buggy", "null")},
		{"map-pareto-idle", with(base(2, "hierarchical", "delta2-rescue", "numa-aware", "random-choice"), func(c *SweepConfig) {
			c.Arrival, c.IdleBalance = "map", true
		})},
		{"poisson-exp", with(base(3, "delta2-gen", "delta1-aggressive", "greedy-buggy", "null"), func(c *SweepConfig) {
			c.Dist = "exp"
		})},
		{"map-exp-idle-4groups", with(base(4, "cfs-group-buggy", "hierarchical", "null"), func(c *SweepConfig) {
			c.Arrival, c.Dist, c.IdleBalance, c.Groups = "map", "exp", true, 4
		})},
		{"all-policies-idle", with(base(5, policy.Names()...), func(c *SweepConfig) {
			c.IdleBalance = true
		})},
		{"all-policies", base(6, policy.Names()...)},
		{"sequential-flat-4cores", with(base(7, "weighted", "delta2", "cfs-group-buggy"), func(c *SweepConfig) {
			c.Loads = []float64{0.6, 0.95}
			c.Cores, c.Groups, c.ArrivalCores = 4, 1, 2
			c.Malleable = MalleableSpec{MaxWidth: 1}
		})},
	}
}

func goldenSweepLine(t *testing.T, g goldenSweep) string {
	t.Helper()
	rep, err := RunSweep(context.Background(), g.cfg)
	if err != nil {
		t.Fatal(err)
	}
	data, err := ReportJSON(rep)
	if err != nil {
		t.Fatal(err)
	}
	return fmt.Sprintf("%x  %s", sha256.Sum256(data), g.name)
}

// TestGoldenSweeps pins the bytes of ReportJSON under the current
// ReportVersion: committed curves (BENCH_service.json) and the
// benchmark's determinism check compare reports across commits, so a
// change that moves one sample, one steal or one histogram bucket without
// bumping it would pass for the same experiment.
func TestGoldenSweeps(t *testing.T) {
	if want := fmt.Sprintf("-v%d.txt", ReportVersion); !strings.HasSuffix(goldenFile, want) {
		t.Fatalf("golden file %s does not belong to ReportVersion %d: regenerate it under the new name", goldenFile, ReportVersion)
	}
	cases := goldenSweeps()
	if *updateGolden {
		var b strings.Builder
		for _, g := range cases {
			b.WriteString(goldenSweepLine(t, g))
			b.WriteByte('\n')
		}
		if err := os.WriteFile(goldenFile, []byte(b.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want := goldenLines(t, len(cases))
	for i, g := range cases {
		if got := goldenSweepLine(t, g); got != want[i] {
			t.Errorf("sweep report bytes changed: bump ReportVersion and regenerate (-update-golden)\n got %s\nwant %s", got, want[i])
		}
	}
}

// goldenLines reads the committed golden file, one line per case.
func goldenLines(t *testing.T, cases int) []string {
	t.Helper()
	data, err := os.ReadFile(goldenFile)
	if err != nil {
		t.Fatal(err)
	}
	want := strings.Split(strings.TrimSuffix(string(data), "\n"), "\n")
	if len(want) != cases {
		t.Fatalf("%s has %d lines for %d cases", goldenFile, len(want), cases)
	}
	return want
}

// TestSweepBytesIndependentOfGOMAXPROCS: RunSweep spreads its points
// over up to GOMAXPROCS workers, which claim them in whatever order the
// scheduler lets them and run each on a simulator recycled from another
// point. None of that may reach the report: one worker, two and eight
// give the committed bytes.
func TestSweepBytesIndependentOfGOMAXPROCS(t *testing.T) {
	cases := goldenSweeps()
	want := goldenLines(t, len(cases))
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, procs := range []int{1, 2, 8} {
		runtime.GOMAXPROCS(procs)
		for i, g := range cases {
			if got := goldenSweepLine(t, g); got != want[i] {
				t.Errorf("GOMAXPROCS=%d: sweep report bytes differ from the golden file\n got %s\nwant %s", procs, got, want[i])
			}
		}
	}
}
