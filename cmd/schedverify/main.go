// Command schedverify checks a scheduling policy against the paper's
// proof obligations — the repository's analogue of running the Leon
// verification pipeline. It drives the optsched session API: the
// obligations run in parallel and Ctrl-C cancels the run.
//
// Usage:
//
//	schedverify [-policy name | -dsl file.pol] [-cores N] [-maxper N]
//	            [-maxtotal N] [-groups 0,0,1,1] [-weights 1,3]
//	            [-max-faults N] [-obligation id] [-quick] [-parallel N]
//	            [-json] [-service http://host:port]
//
// -json prints the report in the canonical JSON encoding shared with
// the schedverifyd daemon: equal reports are byte-identical documents.
// -service verifies through a running schedverifyd instead of checking
// in-process, reusing the daemon's memoized results.
//
// The obligations are sharded across a worker pool; -parallel bounds the
// pool (default GOMAXPROCS). The report is identical at every level —
// parallelism only changes how long the run takes.
//
// Examples:
//
//	schedverify -policy delta2
//	schedverify -policy greedy-buggy            # prints the livelock
//	schedverify -dsl mypolicy.pol -cores 3
//	schedverify -policy cfs-group-buggy -cores 4 -groups 0,0,1,1 -weights 1,8
//	schedverify -policy delta2 -max-faults 1    # refutes no-task-lost
//	schedverify -policy delta2-rescue -max-faults 1
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strconv"
	"strings"

	optsched "repro"
	"repro/internal/dsl"
)

func main() {
	var (
		policyName = flag.String("policy", "", "built-in policy to verify (see -list)")
		dslFile    = flag.String("dsl", "", "DSL policy file to verify")
		list       = flag.Bool("list", false, "list built-in policies and exit")
		cores      = flag.Int("cores", 3, "universe: number of cores")
		maxPer     = flag.Int("maxper", 3, "universe: max threads per core")
		maxTotal   = flag.Int("maxtotal", 5, "universe: max total threads (0 = cores*maxper)")
		groups     = flag.String("groups", "", "comma-separated group per core (e.g. 0,0,1,1)")
		weights    = flag.String("weights", "", "comma-separated task weights (e.g. 1,3)")
		maxFaults  = flag.Int("max-faults", 0, "universe: max fail/revive events per fault script (0 = healthy machines only)")
		obligation = flag.String("obligation", "", "check only this obligation (e.g. lemma1)")
		quick      = flag.Bool("quick", false, "smaller universe (cores=3, maxper=2, maxtotal=4)")
		parallel   = flag.Int("parallel", 0, "verification worker pool size (0 = GOMAXPROCS)")
		jsonOut    = flag.Bool("json", false, "print the report as canonical JSON (the schedverifyd wire encoding)")
		serviceURL = flag.String("service", "", "verify through a running schedverifyd daemon at this base URL")
	)
	flag.Parse()

	if *list {
		fmt.Println("built-in policies:")
		for _, s := range optsched.PolicySpecs() {
			topo := ""
			if s.NeedsTopology() {
				topo = " [topology]"
			}
			fmt.Printf("  %-18s %-10s%s %s\n", s.Name, s.Provenance, topo, s.Doc)
		}
		return
	}

	u := optsched.Universe{
		Cores:              *cores,
		MaxPerCore:         *maxPer,
		MaxTotal:           *maxTotal,
		IncludeUnscheduled: true,
		MaxFaults:          *maxFaults,
	}
	if *quick {
		u.Cores, u.MaxPerCore, u.MaxTotal = 3, 2, 4
	}
	if *groups != "" {
		g, err := parseInts(*groups)
		if err != nil {
			fatal(fmt.Errorf("bad -groups: %w", err))
		}
		u.Groups = g
	}
	if *weights != "" {
		w, err := parseInts(*weights)
		if err != nil {
			fatal(fmt.Errorf("bad -weights: %w", err))
		}
		u.Weights = make([]int64, len(w))
		for i, v := range w {
			u.Weights[i] = int64(v)
		}
	}

	opts := []optsched.Option{optsched.WithUniverse(u)}
	if *parallel != 0 && *serviceURL == "" {
		opts = append(opts, optsched.WithParallelism(*parallel))
	}
	if *serviceURL != "" {
		opts = append(opts, optsched.WithVerifyService(*serviceURL))
	}
	if *obligation != "" {
		opts = append(opts, optsched.WithObligations(optsched.ObligationID(*obligation)))
	}
	cluster, err := buildCluster(*policyName, *dslFile, u.MaxFaults, opts...)
	if err != nil {
		fatal(err)
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
	rep, err := cluster.Verify(ctx)
	if err != nil {
		if rep != nil && !*jsonOut {
			fmt.Println(rep) // the partial report of a cancelled run
		}
		fatal(fmt.Errorf("schedverify: %w", err))
	}
	if *jsonOut {
		data, err := optsched.ReportToJSON(rep)
		if err != nil {
			fatal(fmt.Errorf("schedverify: %w", err))
		}
		fmt.Printf("%s\n", data)
	} else {
		fmt.Println(rep)
	}
	if !rep.Passed() {
		os.Exit(1)
	}
}

// buildCluster assembles the verification session from either a
// built-in policy name or a DSL file. DSL policies additionally run
// through the semantic linter (dsl.Analyze): findings go to stderr as
// warnings and never change the exit status — the verifier, not the
// linter, is the authority on whether the policy is correct.
func buildCluster(name, dslFile string, maxFaults int, extra ...optsched.Option) (*optsched.Cluster, error) {
	switch {
	case name != "" && dslFile != "":
		return nil, fmt.Errorf("schedverify: use -policy or -dsl, not both")
	case name != "":
		return optsched.New(append(extra, optsched.WithPolicy(name))...)
	case dslFile != "":
		src, err := os.ReadFile(dslFile)
		if err != nil {
			return nil, err
		}
		if ast, err := dsl.Parse(string(src)); err == nil {
			for _, d := range dsl.Analyze(ast, dsl.AnalyzeOptions{MaxFaults: maxFaults}) {
				fmt.Fprintf(os.Stderr, "schedverify: warning: %s:%s\n", dslFile, d)
			}
		}
		return optsched.New(append(extra, optsched.WithDSL(string(src)))...)
	}
	return nil, fmt.Errorf("schedverify: need -policy <name> or -dsl <file> (try -list)")
}

func parseInts(s string) ([]int, error) {
	parts := strings.Split(s, ",")
	out := make([]int, len(parts))
	for i, p := range parts {
		v, err := strconv.Atoi(strings.TrimSpace(p))
		if err != nil {
			return nil, err
		}
		out[i] = v
	}
	return out, nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, err)
	os.Exit(2)
}
