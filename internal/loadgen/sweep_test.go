package loadgen

import (
	"bytes"
	"context"
	"os"
	"reflect"
	"strings"
	"testing"

	"repro/internal/policy"
	"repro/internal/sim"
)

// smallSweep is a sweep sized for test runtime: 4 cores, short horizon,
// two load points.
func smallSweep() SweepConfig {
	return SweepConfig{
		Policies:     []string{"delta2", "null"},
		Loads:        []float64{0.6, 0.9},
		Cores:        4,
		Groups:       2,
		Horizon:      150_000,
		Seed:         11,
		ArrivalCores: 1,
	}
}

// Acceptance criterion: fixed seed ⇒ byte-identical report JSON.
func TestRunSweepByteIdenticalForFixedSeed(t *testing.T) {
	run := func() []byte {
		rep, err := RunSweep(context.Background(), smallSweep())
		if err != nil {
			t.Fatalf("RunSweep: %v", err)
		}
		data, err := ReportJSON(rep)
		if err != nil {
			t.Fatalf("ReportJSON: %v", err)
		}
		return data
	}
	a, b := run(), run()
	if !bytes.Equal(a, b) {
		t.Errorf("same config, different report bytes:\n%s\n---\n%s", a, b)
	}
}

func TestRunSweepSeedChangesReport(t *testing.T) {
	cfg := smallSweep()
	repA, err := RunSweep(context.Background(), cfg)
	if err != nil {
		t.Fatalf("RunSweep: %v", err)
	}
	cfg.Seed = 12
	repB, err := RunSweep(context.Background(), cfg)
	if err != nil {
		t.Fatalf("RunSweep: %v", err)
	}
	a, _ := ReportJSON(repA)
	b, _ := ReportJSON(repB)
	if bytes.Equal(a, b) {
		t.Error("different seeds produced identical reports")
	}
}

func TestReportRoundTripAndShape(t *testing.T) {
	cfg := smallSweep()
	rep, err := RunSweep(context.Background(), cfg)
	if err != nil {
		t.Fatalf("RunSweep: %v", err)
	}
	data, err := ReportJSON(rep)
	if err != nil {
		t.Fatalf("ReportJSON: %v", err)
	}
	got, err := ReportFromJSON(data)
	if err != nil {
		t.Fatalf("ReportFromJSON rejected our own report: %v", err)
	}
	if len(got.Policies) != len(cfg.Policies) {
		t.Fatalf("round-trip lost policies: %d of %d", len(got.Policies), len(cfg.Policies))
	}
	for _, c := range got.Policies {
		for _, pt := range c.Points {
			if pt.JobsArrived == 0 {
				t.Errorf("%s at load %v: no jobs arrived", c.Policy, pt.Load)
			}
			if pt.Latency.Count == 0 {
				t.Errorf("%s at load %v: no latency samples", c.Policy, pt.Load)
			}
			if pt.Latency.P50 > pt.Latency.P99 || pt.Latency.P99 > pt.Latency.P999 {
				t.Errorf("%s at load %v: quantiles not monotone: %+v", c.Policy, pt.Load, pt.Latency)
			}
			if pt.OfferedUtil < pt.Load*0.5 || pt.OfferedUtil > pt.Load*1.5 {
				t.Errorf("%s: offered utilization %v far from target %v", c.Policy, pt.OfferedUtil, pt.Load)
			}
		}
		if c.Overall.Count != c.Points[0].Latency.Count+c.Points[1].Latency.Count {
			t.Errorf("%s: overall count %d != sum of point counts", c.Policy, c.Overall.Count)
		}
	}
}

// The report is the workload's verdict: a policy that never balances
// must show inflated tails and wasted cores versus delta2 when arrivals
// land on a single core.
func TestSweepSeparatesBalancingFromNull(t *testing.T) {
	rep, err := RunSweep(context.Background(), smallSweep())
	if err != nil {
		t.Fatalf("RunSweep: %v", err)
	}
	byName := map[string]PolicyCurve{}
	for _, c := range rep.Policies {
		byName[c.Policy] = c
	}
	d2 := byName["delta2"].Points[1] // load 0.9
	null := byName["null"].Points[1]
	if null.Latency.P99 <= d2.Latency.P99 {
		t.Errorf("null p99 %d not above delta2 p99 %d at load 0.9", null.Latency.P99, d2.Latency.P99)
	}
	// delta2 itself wastes cores between balance rounds at this skew, so
	// the separation is an additive gap, not a ratio.
	if null.WastedPct < d2.WastedPct+10 {
		t.Errorf("null wasted %.2f%% not well above delta2 wasted %.2f%%", null.WastedPct, d2.WastedPct)
	}
	if d2.Steals == 0 {
		t.Error("delta2 reported zero steals under single-core arrival skew")
	}
}

func TestReportFromJSONRejectsMalformed(t *testing.T) {
	rep, err := RunSweep(context.Background(), smallSweep())
	if err != nil {
		t.Fatalf("RunSweep: %v", err)
	}
	mutate := map[string]func(r *Report){
		"bad version":    func(r *Report) { r.Version = ReportVersion + 1 },
		"bad workload":   func(r *Report) { r.Workload = "batch" },
		"unknown policy": func(r *Report) { r.Policies[0].Policy = "no-such-policy" },
		"missing point":  func(r *Report) { r.Policies[0].Points = r.Policies[0].Points[:1] },
		"load mismatch":  func(r *Report) { r.Policies[0].Points[0].Load = 0.42 },
		"empty policies": func(r *Report) { r.Policies = nil },
	}
	for name, f := range mutate {
		orig, _ := ReportJSON(rep)
		broken, err := ReportFromJSON(orig)
		if err != nil {
			t.Fatalf("baseline report invalid: %v", err)
		}
		f(broken)
		data, _ := ReportJSON(broken)
		if _, err := ReportFromJSON(data); err == nil {
			t.Errorf("%s: ReportFromJSON accepted a malformed report", name)
		}
	}
	if _, err := ReportFromJSON([]byte("{not json")); err == nil {
		t.Error("ReportFromJSON accepted non-JSON input")
	}
}

// FuzzSweepReportRoundTrip holds the report decoder to two properties:
// ReportFromJSON never panics, and any report it accepts re-encodes
// through ReportJSON to bytes that it accepts again as an equal report.
func FuzzSweepReportRoundTrip(f *testing.F) {
	rep, err := RunSweep(context.Background(), smallSweep())
	if err != nil {
		f.Fatal(err)
	}
	data, err := ReportJSON(rep)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(data)
	f.Add([]byte(`{"version":1,"workload":"service","loads":[0.5],"policies":[{"policy":"null","points":[{"load":0.5}]}]}`))
	f.Add([]byte(`{"version":1,"workload":"service","loads":[1e-7,-0],"policies":[{"policy":"delta2","points":[{"load":1e-7,"latency":{"mean":0.1}},{"load":-0}]}]}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		r, err := ReportFromJSON(data)
		if err != nil {
			return
		}
		again, err := ReportJSON(r)
		if err != nil {
			t.Fatalf("an accepted report does not re-encode: %v", err)
		}
		back, err := ReportFromJSON(again)
		if err != nil {
			t.Fatalf("the re-encoded report is rejected: %v\n%s", err, again)
		}
		if !reflect.DeepEqual(r, back) {
			t.Fatalf("the round trip changed the report:\n%+v\n%+v", r, back)
		}
	})
}

func TestRunSweepValidation(t *testing.T) {
	cases := map[string]func(c *SweepConfig){
		"no policies":      func(c *SweepConfig) { c.Policies = nil },
		"unknown policy":   func(c *SweepConfig) { c.Policies = []string{"bogus"} },
		"no loads":         func(c *SweepConfig) { c.Loads = nil },
		"load too high":    func(c *SweepConfig) { c.Loads = []float64{0.6, 1.2} },
		"loads descending": func(c *SweepConfig) { c.Loads = []float64{0.9, 0.6} },
		"bad arrival":      func(c *SweepConfig) { c.Arrival = "uniform" },
		"bad dist":         func(c *SweepConfig) { c.Dist = "normal" },
		"too many arrival cores": func(c *SweepConfig) {
			c.ArrivalCores = 99
		},
	}
	for name, f := range cases {
		cfg := smallSweep()
		f(&cfg)
		if _, err := RunSweep(context.Background(), cfg); err == nil {
			t.Errorf("%s: RunSweep accepted an invalid config", name)
		} else if strings.Contains(err.Error(), "context") {
			t.Errorf("%s: got a context error, want a validation error: %v", name, err)
		}
	}
}

// Satellite: cancellation propagates into the running sweep — a
// cancelled context stops the event loop mid-point and the partial
// report built so far comes back with the error.
func TestRunSweepCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	cfg := smallSweep()
	cfg.Horizon = 50_000_000 // would take far too long if cancellation leaked
	rep, err := RunSweep(ctx, cfg)
	if err == nil {
		t.Fatal("cancelled sweep returned nil error")
	}
	if rep == nil {
		t.Fatal("cancelled sweep returned nil partial report")
	}
	if len(rep.Policies) != 0 {
		t.Errorf("first point was cancelled, yet %d complete curves came back", len(rep.Policies))
	}
}

// TestCommittedServiceCurveDecodes: the repository's committed
// BENCH_service.json still passes the validating decoder (schema
// version, workload kind, registered policies, point grid) and no point
// of it is empty.
func TestCommittedServiceCurveDecodes(t *testing.T) {
	data, err := os.ReadFile("../../BENCH_service.json")
	if err != nil {
		t.Fatal(err)
	}
	rep, err := ReportFromJSON(data)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range rep.Policies {
		for _, pt := range c.Points {
			if pt.JobsArrived == 0 || pt.Latency.Count == 0 {
				t.Errorf("policy %s at load %v has no data", c.Policy, pt.Load)
			}
		}
	}
}

// KNOWN DEFECT, pinned — this test must FAIL once it is fixed (ROADMAP,
// open correctness question beside item 2's): sim.Stats.Latency/WaitTime
// are the simulator's live histograms, not copies, so the "loaded"
// snapshot runPoint takes at the horizon keeps recording through the
// drain, and Point.WaitP99 — read after it — covers loaded window plus
// drain while its sibling fields (steals, wasted cores) stop at the
// horizon. Fixing it moves report bytes: bump ReportVersion, regenerate
// the golden sweeps, and turn the last comparison below around.
func TestWaitP99StillIncludesTheDrain(t *testing.T) {
	cfg := smallSweep().withDefaults()
	const name, load = "null", 0.9 // a backlog that drains for a long time
	seed := pointSeed(cfg.Seed, 1, 1)
	pt, _, err := cfg.runPoint(context.Background(), name, load, seed)
	if err != nil {
		t.Fatal(err)
	}

	// The same point by hand, reading the wait histogram at the cut too.
	p, err := policy.New(name)
	if err != nil {
		t.Fatal(err)
	}
	dist := cfg.serviceDist()
	svc := &Service{
		Arrivals:     cfg.arrivalProcess(cfg.Malleable.ExpectedCPU(dist.Mean()) / (load * float64(cfg.Cores))),
		Work:         dist,
		Malleable:    cfg.Malleable,
		Horizon:      cfg.Horizon,
		ArrivalCores: []int{0},
	}
	s := sim.New(sim.Config{Cores: cfg.Cores, Policy: p, Groups: cfg.groups(), Seed: seed})
	svc.Setup(s)
	loaded := s.Run(cfg.Horizon)
	atCut := loaded.WaitTime.Quantile(0.99)
	s.Run(cfg.Horizon + cfg.Horizon/2)
	afterDrain := loaded.WaitTime.Quantile(0.99)

	if atCut == afterDrain {
		t.Fatalf("wait p99 is %d at the cut and after the drain: the fixture no longer tells the two apart", atCut)
	}
	if pt.WaitP99 != afterDrain {
		t.Errorf("Point.WaitP99 = %d, the hand-run point has %d after the drain (%d at the cut): "+
			"if the snapshot aliasing was fixed, this is the ReportVersion bump the comment above describes",
			pt.WaitP99, afterDrain, atCut)
	}
}
