// Wastedcores reproduces the paper's §1 motivation (Lozi et al., "The
// Linux Scheduler: a Decade of Wasted Cores") through the session API:
// the CFS group-imbalance bug leaves a core idle while others are
// overloaded, costing ~25% database throughput and slowing
// barrier-synchronized scientific code many-fold. Each policy is one
// Cluster over the simulator backend; the workloads are the canonical
// E6 traps.
//
//	go run ./examples/wastedcores
package main

import (
	"context"
	"fmt"

	optsched "repro"
	"repro/internal/workload"
)

func main() {
	ctx := context.Background()

	fmt.Println("=== database trap (4 cores, 2 groups, 1 hog, 5 workers) ===")
	dbBase := int64(0)
	for _, name := range []string{"weighted", "cfs-group-buggy", "null"} {
		trap := workload.NewDBTrap()
		res := runTrap(ctx, name, optsched.Scenario{
			Name: "db-trap", Cores: trap.Cores(), Groups: trap.Groups(),
			Workload: trap, Horizon: 1_500_000,
		})
		req := trap.Server.Requests()
		if name == "weighted" {
			dbBase = req
		}
		loss := 100 * float64(dbBase-req) / float64(dbBase)
		fmt.Printf("%-16s requests=%-6d loss=%5.1f%%  wasted=%5.1f%% of capacity  episodes=%d\n",
			name, req, loss, res.Sim.WastedPct, res.Sim.ViolationEpisodes)
	}
	fmt.Println("paper: 'up to 25% decrease in throughput for realistic database workloads'")

	fmt.Println("\n=== barrier trap (10 cores, 8 threads confined to 2 cores) ===")
	barBase := int64(0)
	for _, name := range []string{"weighted", "cfs-group-buggy", "null"} {
		trap := workload.NewBarrierTrap(1700)
		runTrap(ctx, name, optsched.Scenario{
			Name: "barrier-trap", Cores: trap.Cores(), Groups: trap.Groups(),
			Workload: trap, Horizon: 400_000,
		})
		gens := trap.Barrier.Generations()
		if name == "weighted" {
			barBase = gens
		}
		slowdown := float64(barBase) / float64(gens)
		fmt.Printf("%-16s generations=%-5d slowdown=%.1fx\n", name, gens, slowdown)
	}
	fmt.Println("paper: 'many-fold performance degradation in the case of scientific applications'")
}

// runTrap executes one trap scenario under the named policy on the
// simulator backend.
func runTrap(ctx context.Context, policy string, sc optsched.Scenario) *optsched.Result {
	c, err := optsched.New(
		optsched.WithPolicy(policy),
		optsched.WithBackend(optsched.BackendSim),
		optsched.WithSeed(11),
	)
	if err != nil {
		panic(err)
	}
	res, err := c.Run(ctx, sc)
	if err != nil {
		panic(err)
	}
	return res
}
