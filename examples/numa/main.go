// Numa demonstrates the §5 extensions through the session API:
// hierarchical (two-level) load balancing and NUMA-aware placement in
// the choice step — both verified with the unchanged proof obligations
// via Cluster.Verify, and both measurably changing locality without
// breaking work conservation.
//
//	go run ./examples/numa
package main

import (
	"context"
	"fmt"

	optsched "repro"
)

func main() {
	ctx := context.Background()
	top := optsched.NUMATopology(2, 4) // 2 nodes x 4 cores
	fmt.Printf("machine: %d cores, %d NUMA nodes, groups %v\n\n",
		top.NCores, top.NumNodes(), top.Groups())

	// 1. Verify the hierarchical policy with groups: same obligations,
	// no new proof work. The obligations run in parallel.
	hier, err := optsched.New(
		optsched.WithPolicy("hierarchical"),
		optsched.WithUniverse(optsched.Universe{Cores: 4, MaxPerCore: 2, MaxTotal: 4,
			IncludeUnscheduled: true, Groups: []int{0, 0, 1, 1}}),
	)
	if err != nil {
		panic(err)
	}
	rep, err := hier.Verify(ctx)
	if err != nil {
		panic(err)
	}
	fmt.Println(rep)

	// 2. NUMA-aware choice: compare where steals land. numa-aware is a
	// registered policy now — the registry builds it over the cluster's
	// topology (NeedsTopology in its spec).
	fmt.Println("\nsteal locality on a skewed machine (one overloaded core per node):")
	for _, name := range []string{"delta2", "numa-aware"} {
		c, err := optsched.New(optsched.WithPolicy(name), optsched.WithTopology(top))
		if err != nil {
			panic(err)
		}
		p := c.NewPolicy()
		intra, total := 0, 0
		m := optsched.MachineFromLoads(6, 0, 0, 0, 6, 0, 0, 0)
		optsched.AssignGroups(m, top)
		for round := 0; round < 6; round++ {
			rr := optsched.SequentialRound(p, m)
			for _, att := range rr.Attempts {
				if att.Succeeded() {
					total++
					if m.Core(att.Thief).Node == m.Core(att.Victim).Node {
						intra++
					}
				}
			}
		}
		fmt.Printf("  %-18s %d/%d steals stayed on the victim's node -> %v\n",
			name, intra, total, m.Loads())
	}
	fmt.Println("\nBoth variants share Delta2's filter, so both inherit its proof:")
	fmt.Println("locality heuristics live in step 2 and cost zero proof effort (§5).")
}
