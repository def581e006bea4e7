package verify

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strings"
	"sync/atomic"
	"testing"

	"repro/internal/dsl"
	"repro/internal/policy"
	"repro/internal/sched"
	"repro/internal/statespace"
)

// updateGolden regenerates testdata/golden-v8.txt from the checker as it
// stands. Only a change that bumps Version may use it.
var updateGolden = flag.Bool("update-golden", false, "rewrite internal/verify/testdata/golden-*.txt (only together with a verify.Version bump)")

const goldenFile = "testdata/golden-v8.txt"

type goldenCase struct {
	name string
	f    Factory
	u    statespace.Universe
}

// goldenCases is the pinned corpus: eight registered policies over four
// universes that between them reach every obligation's interesting side
// (faults, a fourth core, weights, groups), plus the committed Listing 1
// source under two-event fault scripts.
func goldenCases(t testing.TB) []goldenCase {
	t.Helper()
	universes := []statespace.Universe{
		{Cores: 3, MaxPerCore: 3, MaxTotal: 5, IncludeUnscheduled: true, MaxFaults: 1},
		{Cores: 4, MaxPerCore: 2, MaxTotal: 3, IncludeUnscheduled: true},
		{Cores: 3, MaxPerCore: 2, MaxTotal: 4, IncludeUnscheduled: true, Weights: []int64{1, 3}},
		{Cores: 4, MaxPerCore: 2, MaxTotal: 4, IncludeUnscheduled: true, Groups: []int{0, 0, 1, 1}},
	}
	var cases []goldenCase
	for _, name := range []string{
		"delta2", "delta2-rescue", "greedy-buggy", "weighted",
		"cfs-group-buggy", "hierarchical", "random-choice", "delta1-aggressive",
	} {
		spec, ok := policy.Lookup(name)
		if !ok {
			t.Fatalf("policy %q is not registered", name)
		}
		for _, u := range universes {
			cases = append(cases, goldenCase{name, func() sched.Policy { return spec.New(nil) }, u})
		}
	}
	src, err := os.ReadFile("../dsl/testdata/delta2.pol")
	if err != nil {
		t.Fatal(err)
	}
	ast, err := dsl.Parse(string(src))
	if err != nil {
		t.Fatal(err)
	}
	u := DefaultUniverse()
	u.MaxFaults = 2
	return append(cases, goldenCase{ast.Name, func() sched.Policy { return dsl.Compile(ast) }, u})
}

func goldenLine(t *testing.T, c goldenCase, cfg Config) string {
	t.Helper()
	cfg.Universe = c.u
	rep, err := PolicyContext(context.Background(), c.name, c.f, cfg)
	if err != nil {
		t.Fatal(err)
	}
	data, err := ReportJSON(rep)
	if err != nil {
		t.Fatal(err)
	}
	// Compacting ReportJSON's indentation loses no byte of content: the
	// pinned line is the whole report, so a Version bump's diff of the
	// golden file shows exactly which fields moved.
	var line bytes.Buffer
	if err := json.Compact(&line, data); err != nil {
		t.Fatal(err)
	}
	return line.String()
}

// TestGoldenReports pins the bytes of ReportJSON under the current
// Version, one compacted report per line: the schedverifyd memo replays
// reports keyed by Version, so a change that moves a verdict, a counter,
// a bound or a witness without bumping it would serve stale bytes.
func TestGoldenReports(t *testing.T) {
	if !strings.HasSuffix(goldenFile, "-v"+Version[strings.LastIndex(Version, "/")+1:]+".txt") {
		t.Fatalf("golden file %s does not belong to Version %s: regenerate it under the new name", goldenFile, Version)
	}
	cases := goldenCases(t)
	if *updateGolden {
		var b strings.Builder
		for _, c := range cases {
			b.WriteString(goldenLine(t, c, Config{Sequential: true}))
			b.WriteByte('\n')
		}
		if err := os.WriteFile(goldenFile, []byte(b.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	checkGolden(t, cases, Config{Parallelism: 3})
}

// checkGolden recomputes every case's golden line, Sequential and under
// cfg, against the pinned file.
func checkGolden(t *testing.T, cases []goldenCase, cfg Config) {
	t.Helper()
	data, err := os.ReadFile(goldenFile)
	if err != nil {
		t.Fatal(err)
	}
	want := strings.Split(strings.TrimSuffix(string(data), "\n"), "\n")
	if len(want) != len(cases) {
		t.Fatalf("%s has %d lines for %d cases", goldenFile, len(want), len(cases))
	}
	for i, c := range cases {
		for _, mode := range []struct {
			name string
			cfg  Config
		}{
			{"sequential", Config{Sequential: true}},
			{fmt.Sprintf("parallelism %d", cfg.Parallelism), cfg},
		} {
			if got := goldenLine(t, c, mode.cfg); got != want[i] {
				t.Errorf("%s: report bytes changed: bump verify.Version and regenerate (-update-golden)\n got %s\nwant %s",
					mode.name, got, want[i])
			}
		}
	}
}

// The scratch pool carries nothing a report can see from one report to
// the next. A cancelled 5-core report, a report whose policy panics
// mid-game and a refuted 4-core report leave their scratches in the
// pool first — grown wide, mid-search, a witness rendered by the merge —
// and then every golden case still reports its pinned bytes.
func TestPooledScratchIsInvisible(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var calls atomic.Int64
	cancelling := func() sched.Policy {
		if calls.Add(1) == 5000 {
			cancel()
		}
		return policy.NewDelta2()
	}
	five := statespace.Universe{Cores: 5, MaxPerCore: 2, MaxTotal: 6, IncludeUnscheduled: true}
	if _, err := PolicyContext(ctx, "delta2", cancelling, Config{Universe: five, Parallelism: 2}); err == nil {
		t.Fatal("the 5-core report was not cut short")
	}
	calls.Store(0)
	panicking := func() sched.Policy {
		if calls.Add(1) == 40 {
			panic("mid-game")
		}
		return policy.NewDelta2()
	}
	games := Config{Obligations: []ObligationID{ObWorkConservConc, ObChoiceIndependence}, Parallelism: 2}
	if rep, _ := PolicyContext(context.Background(), "delta2", panicking, games); len(rep.Aborted()) == 0 {
		t.Fatalf("no game panicked:\n%s", rep)
	}
	four := statespace.Universe{Cores: 4, MaxPerCore: 2, MaxTotal: 5, IncludeUnscheduled: true}
	if rep, _ := PolicyContext(context.Background(), "greedy-buggy", greedyFactory, Config{Universe: four, Parallelism: 2}); rep.Passed() {
		t.Fatal("greedy-buggy proved on 4 cores")
	}
	checkGolden(t, goldenCases(t), Config{Parallelism: 2})
}
