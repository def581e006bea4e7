// Command bench is the repository's benchmark: five named closed-loop
// workloads (a cold, a warm and an edited schedverifyd, a loadgen
// service sweep, the work-stealing executor), each checked against an
// oracle, reporting six end-to-end metrics per workload and — on a
// separate -trace 1 run — per-layer metrics timed from outside the
// layers' public functions. README.md has the design and the rules.
//
//	go run ./bench                          all five, one fresh process each
//	go run ./bench -workload verifyd-cold   one workload in this process
//	go run ./bench -workload verifyd-cold -trace 1
//	go run ./bench -aa 3                    same-code A/A sets against the bounds
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strings"
)

// workloadNames is the run order of the all-workloads mode.
var workloadNames = []string{"verifyd-cold", "verifyd-warm", "verifyd-edit", "service-sweep", "executor-skew"}

func newWorkload(name string) workload {
	switch name {
	case "verifyd-cold":
		return &coldWorkload{}
	case "verifyd-warm":
		return &warmWorkload{}
	case "verifyd-edit":
		return &editWorkload{}
	case "service-sweep":
		return &sweepWorkload{}
	case "executor-skew":
		return &executorWorkload{}
	}
	return nil
}

// The runtime is pinned so a number means the same thing on every run:
// the op counts are sized for two CPUs, and one workload's GC pacing must
// not depend on the environment the command was started from.
const (
	pinnedProcs = 2
	pinnedGOGC  = 100
)

// stamp is where and how a number was measured; it rides in every -json
// document so no result is ever anonymous again.
type stamp struct {
	Commit     string  `json:"commit"`
	GoVersion  string  `json:"go_version"`
	NProc      int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	GOGC       int     `json:"gogc"`
	Seed       uint64  `json:"seed"`
	Seconds    float64 `json:"seconds"`
	OpsScale   float64 `json:"ops_scale"`
	PollMs     float64 `json:"client_poll_ms"`
}

// commit asks git for HEAD without letting it look above the working
// directory (the driver's checkout is not a repository).
func commit() string {
	cwd, err := os.Getwd()
	if err != nil {
		return "unknown"
	}
	cmd := exec.Command("git", "rev-parse", "--short=12", "HEAD")
	cmd.Env = append(os.Environ(), "GIT_CEILING_DIRECTORIES="+filepath.Dir(cwd))
	out, err := cmd.Output()
	if err != nil {
		return "unknown"
	}
	rev := strings.TrimSpace(string(out))
	status := exec.Command("git", "status", "--porcelain", "--untracked-files=no")
	status.Env = cmd.Env
	if dirty, err := status.Output(); err == nil && len(dirty) > 0 {
		rev += "-dirty"
	}
	return rev
}

// document is the -json output of one workload run.
type document struct {
	Workload  string   `json:"workload"`
	Trace     bool     `json:"trace"`
	Stamp     stamp    `json:"stamp"`
	Ops       int      `json:"ops"`
	Correct   bool     `json:"correct"`
	Attempted int      `json:"attempted"`
	Failed    int      `json:"failed"`
	Metrics   values   `json:"metrics"`
	Notes     []string `json:"notes,omitempty"`
}

// contractLine is the last line of standard output.
type contractLine struct {
	Correct   bool                      `json:"correct"`
	Attempted int                       `json:"attempted"`
	Failed    int                       `json:"failed"`
	Metrics   map[string]contractMetric `json:"metrics"`
}

type contractMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type options struct {
	workload string
	seed     uint64
	seconds  float64
	trace    int
	opsScale float64
	jsonOut  bool
	aaSets   int
	out      string
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run is main minus the process exit, for tests.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var o options
	fs.StringVar(&o.workload, "workload", "", "run one workload in this process: "+strings.Join(workloadNames, ", ")+" (default: all, one fresh process each)")
	fs.Uint64Var(&o.seed, "seed", 1, "workload inputs derive from this; the same seed gives the same inputs")
	fs.Float64Var(&o.seconds, "seconds", nominalSeconds, "scales the fixed op counts, which are sized for 16 s at the seed commit on 2 vCPUs")
	fs.IntVar(&o.trace, "trace", 0, "1 makes the layer-replay run that yields the per-layer metrics and out/trace-<workload>.json")
	fs.Float64Var(&o.opsScale, "ops-scale", 1, "multiplies every op and probe count (the smoke test uses a small one)")
	fs.BoolVar(&o.jsonOut, "json", false, "print one JSON document with the stamp and per-metric sample counts instead of the table")
	fs.IntVar(&o.aaSets, "aa", 0, "A/A mode: this many interleaved same-code sets of 5 runs (3 is the calibrated default), checked against BENCHMARK.json's bounds")
	fs.StringVar(&o.out, "out", "bench/out", "directory for traces and scratch files")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() > 0 {
		fmt.Fprintf(stderr, "bench: unexpected arguments %q\n", fs.Args())
		return 2
	}
	if o.seconds <= 0 || o.opsScale <= 0 || o.trace < 0 || o.trace > 1 {
		fmt.Fprintln(stderr, "bench: -seconds and -ops-scale must be positive, -trace 0 or 1")
		return 2
	}
	switch {
	case o.aaSets > 0:
		return runAA(o, stdout, stderr)
	case o.workload == "":
		return runAll(o, stdout, stderr)
	}
	if newWorkload(o.workload) == nil {
		fmt.Fprintf(stderr, "bench: unknown workload %q (known: %s)\n", o.workload, strings.Join(workloadNames, ", "))
		return 2
	}
	doc, err := runOne(o)
	if err != nil {
		fmt.Fprintf(stderr, "bench: %v\n", err)
		return 1
	}
	if o.jsonOut {
		enc := json.NewEncoder(stdout)
		enc.SetIndent("", "  ")
		enc.Encode(doc)
	} else {
		printTable(stdout, doc)
		printContract(stdout, []*document{doc})
	}
	if !doc.Correct {
		fmt.Fprintf(stderr, "bench: %s: %d of %d ops failed\n", doc.Workload, doc.Failed, doc.Attempted)
		return 1
	}
	return 0
}

// runOne runs one workload in this process, untraced or traced.
func runOne(o options) (*document, error) {
	prevProcs := runtime.GOMAXPROCS(pinnedProcs)
	prevGC := debug.SetGCPercent(pinnedGOGC)
	defer func() {
		runtime.GOMAXPROCS(prevProcs)
		debug.SetGCPercent(prevGC)
	}()

	orc, err := loadOracle()
	if err != nil {
		return nil, err
	}
	e, err := newEnv(o.out, o.seed, orc, o.seconds/nominalSeconds*o.opsScale)
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(e.tmp)

	var res *outcome
	if o.trace == 1 {
		res, err = runTraced(o.workload, e, o.out)
	} else {
		res, err = runUntraced(o.workload, e)
	}
	if err != nil {
		return nil, err
	}
	return &document{
		Workload: o.workload,
		Trace:    o.trace == 1,
		Stamp: stamp{
			Commit:     commit(),
			GoVersion:  runtime.Version(),
			NProc:      runtime.NumCPU(),
			GOMAXPROCS: pinnedProcs,
			GOGC:       pinnedGOGC,
			Seed:       o.seed,
			Seconds:    o.seconds,
			OpsScale:   o.opsScale,
			PollMs:     ms(pinnedPoll),
		},
		Ops:       res.ops,
		Correct:   res.failed == 0,
		Attempted: res.ops,
		Failed:    res.failed,
		Metrics:   res.metrics,
		Notes:     res.notes,
	}, nil
}

// defsFor is the metric set a run prints: end-to-end when untraced,
// per-layer when traced.
func defsFor(trace bool) []metricDef {
	if trace {
		return perLayer
	}
	return endToEnd
}

// printTable prints every metric by name with its value, unit and sample
// count, one per line.
func printTable(w io.Writer, doc *document) {
	s := doc.Stamp
	fmt.Fprintf(w, "workload %s  trace=%v  seed=%d  ops=%d  attempted=%d  failed=%d\n",
		doc.Workload, doc.Trace, s.Seed, doc.Ops, doc.Attempted, doc.Failed)
	fmt.Fprintf(w, "  commit=%s  %s  nproc=%d  GOMAXPROCS=%d  GOGC=%d  client poll pinned to %gms\n",
		s.Commit, s.GoVersion, s.NProc, s.GOMAXPROCS, s.GOGC, s.PollMs)
	for _, d := range defsFor(doc.Trace) {
		v := doc.Metrics[d.name]
		fmt.Fprintf(w, "  %-44s %16.4f %-8s samples=%d\n", d.name, v.Value, v.Unit, v.Samples)
	}
	for _, n := range doc.Notes {
		fmt.Fprintf(w, "  note: %s\n", n)
	}
}

// printContract prints the one-line result object. With several
// documents (the all-workloads mode) metric names are prefixed with the
// workload.
func printContract(w io.Writer, docs []*document) {
	line := contractLine{Correct: true, Metrics: map[string]contractMetric{}}
	for _, doc := range docs {
		line.Correct = line.Correct && doc.Correct
		line.Attempted += doc.Attempted
		line.Failed += doc.Failed
		for _, d := range defsFor(doc.Trace) {
			name := d.name
			if len(docs) > 1 {
				name = doc.Workload + "/" + name
			}
			v := doc.Metrics[d.name]
			line.Metrics[name] = contractMetric{Value: v.Value, Unit: v.Unit}
		}
	}
	data, _ := json.Marshal(line) // plain structs: cannot fail
	fmt.Fprintf(w, "%s\n", data)
}

// child runs one workload in a fresh process — this binary again — and
// decodes its -json document, so one workload's heap never paces
// another's GC.
func child(o options, workload string, trace int, stderr io.Writer) (*document, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	args := []string{
		"-workload", workload, "-json",
		"-seed", fmt.Sprint(o.seed),
		"-seconds", fmt.Sprint(o.seconds),
		"-ops-scale", fmt.Sprint(o.opsScale),
		"-trace", fmt.Sprint(trace),
		"-out", o.out,
	}
	cmd := exec.Command(exe, args...)
	cmd.Stderr = stderr
	out, runErr := cmd.Output()
	var doc document
	if err := json.Unmarshal(out, &doc); err != nil {
		if runErr != nil {
			return nil, fmt.Errorf("%s: %w", workload, runErr)
		}
		return nil, fmt.Errorf("%s: bad child output: %w", workload, err)
	}
	return &doc, nil // a child that ran but failed ops exits 1 and still reports
}

// runAll runs every workload, each in its own process.
func runAll(o options, stdout, stderr io.Writer) int {
	var docs []*document
	code := 0
	for _, name := range workloadNames {
		doc, err := child(o, name, o.trace, stderr)
		if err != nil {
			fmt.Fprintf(stderr, "bench: %v\n", err)
			return 1
		}
		if !doc.Correct {
			code = 1
		}
		docs = append(docs, doc)
		if !o.jsonOut {
			printTable(stdout, doc)
		}
	}
	if o.jsonOut {
		enc := json.NewEncoder(stdout)
		enc.SetIndent("", "  ")
		enc.Encode(docs)
	} else {
		printContract(stdout, docs)
	}
	return code
}
