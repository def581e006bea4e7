package main

import (
	"context"
	"os"
	"testing"

	"repro/internal/loadgen"
)

func TestParseLoads(t *testing.T) {
	cases := []struct {
		in   string
		want []float64
	}{
		{"0.9", []float64{0.9}},
		{"0.6,0.75,0.9", []float64{0.6, 0.75, 0.9}},
		{"0.60:0.95:0.05", []float64{0.6, 0.65, 0.7, 0.75, 0.8, 0.85, 0.9, 0.95}},
		{"0.9:0.9:0.05", []float64{0.9}},
	}
	for _, c := range cases {
		got, err := parseLoads(c.in)
		if err != nil {
			t.Errorf("parseLoads(%q): %v", c.in, err)
			continue
		}
		if len(got) != len(c.want) {
			t.Errorf("parseLoads(%q) = %v, want %v", c.in, got, c.want)
			continue
		}
		for i := range got {
			if got[i] != c.want[i] {
				t.Errorf("parseLoads(%q)[%d] = %v, want %v", c.in, i, got[i], c.want[i])
			}
		}
	}
	for _, bad := range []string{"", "x", "0.9:0.6:0.05", "0.6:0.9:0", "1:2:3:4"} {
		if _, err := parseLoads(bad); err == nil {
			t.Errorf("parseLoads(%q) accepted bad input", bad)
		}
	}
}

// A range whose walk would never end, or would outgrow any load grid,
// is refused before the walk starts; the widest 4-decimal grid passes.
func TestParseLoadsBoundsRanges(t *testing.T) {
	for _, c := range []struct {
		in     string
		points int // 0: rejected
	}{
		{"NaN:0.9:0.05", 0},
		{"0.6:NaN:0.05", 0},
		{"0.6:0.9:NaN", 0},
		{"0.6:Inf:0.05", 0},
		{"-Inf:0.9:0.05", 0},
		{"0.6:0.9:Inf", 0},
		{"0.6:0.9:1e999", 0},
		{"0.6:0.9:1e-300", 0},
		{"0:0.99:0.0001", 0},
		{"0.0001:0.99:0.0001", 9900},
		{"NaN", 0},
		{"0.6,Inf", 0},
	} {
		got, err := parseLoads(c.in)
		switch {
		case c.points == 0 && err == nil:
			t.Errorf("parseLoads(%q) accepted %d points", c.in, len(got))
		case c.points > 0 && (err != nil || len(got) != c.points):
			t.Errorf("parseLoads(%q) = %d points, %v; want %d points", c.in, len(got), err, c.points)
		}
	}
}

// The default flag set must sweep at least three registered policies —
// the acceptance bar for comparing policies per report.
func TestDefaultPoliciesAreRegistered(t *testing.T) {
	names := splitNonEmpty("delta2,weighted,cfs-group-buggy,null")
	if len(names) < 3 {
		t.Fatalf("default sweep has %d policies, want ≥ 3", len(names))
	}
	cfg := loadgen.SweepConfig{Policies: names, Loads: []float64{0.9}, Cores: 4, Horizon: 20_000}
	if _, err := loadgen.RunSweep(context.Background(), cfg); err != nil {
		t.Fatalf("default policy list fails to sweep: %v", err)
	}
}

// A cancelled context must surface as a non-zero exit, with whatever
// partial report exists still rendered.
func TestRunServiceCancelledExitsNonZero(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	code := runService(ctx, serviceFlags{
		loads: "0.9", policies: "delta2", seed: 1, cores: 4,
		horizon: 50_000_000, arrival: "poisson", dist: "pareto",
		out: t.TempDir() + "/partial.json",
	})
	if code == 0 {
		t.Error("cancelled sweep exited zero")
	}
}

// Bad flags exit 2 without running anything.
func TestRunServiceBadFlags(t *testing.T) {
	for name, f := range map[string]serviceFlags{
		"bad load":   {loads: "nope", policies: "delta2", cores: 4, horizon: 1000, arrival: "poisson", dist: "pareto"},
		"bad policy": {loads: "0.9", policies: "no-such", cores: 4, horizon: 1000, arrival: "poisson", dist: "pareto"},
		"bad dist":   {loads: "0.9", policies: "delta2", cores: 4, horizon: 1000, arrival: "poisson", dist: "normal"},
	} {
		if code := runService(context.Background(), f); code != 2 {
			t.Errorf("%s: exit %d, want 2", name, code)
		}
	}
}

// The service mode writes a report that the validating decoder accepts.
func TestRunServiceWritesValidReport(t *testing.T) {
	path := t.TempDir() + "/report.json"
	code := runService(context.Background(), serviceFlags{
		loads: "0.6,0.9", policies: "delta2,null", seed: 7, cores: 4,
		horizon: 100_000, arrival: "poisson", dist: "pareto", out: path,
	})
	if code != 0 {
		t.Fatalf("runService exit %d", code)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := loadgen.ReportFromJSON(data)
	if err != nil {
		t.Fatalf("report failed validation: %v", err)
	}
	if len(rep.Policies) != 2 || len(rep.Loads) != 2 {
		t.Errorf("report shape: %d policies, %d loads", len(rep.Policies), len(rep.Loads))
	}
}
