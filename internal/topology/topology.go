// Package topology models machine topologies for scheduling: cores grouped
// into NUMA nodes, with a distance metric between cores.
//
// The paper's step-2 (Choose) heuristics and §5 hierarchical balancing are
// the consumers: a topology never influences the step-1 filter, which is
// how NUMA-awareness stays proof-free.
package topology

import "fmt"

// Topology describes a machine: core count, per-core NUMA node and
// inter-node distances.
type Topology struct {
	// NCores is the total number of cores.
	NCores int
	// NodeOf maps core ID to NUMA node index.
	NodeOf []int
	// NodeDistance[i][j] is the access distance from node i to node j.
	// Diagonal entries are the local distance (conventionally 10, as in
	// ACPI SLIT tables); remote entries are larger.
	NodeDistance [][]int
}

// Distance returns the topological distance between two cores: 0 for the
// same core, the local node distance for two cores of one node, and the
// inter-node distance otherwise.
func (t *Topology) Distance(a, b int) int {
	if a == b {
		return 0
	}
	return t.NodeDistance[t.NodeOf[a]][t.NodeOf[b]]
}

// NUMA returns a topology with `nodes` NUMA nodes of `perNode` cores each.
// Cores are numbered node-major: node 0 holds cores [0, perNode), node 1
// holds [perNode, 2*perNode), and so on. Local distance is 10, remote 20,
// matching a typical two-hop SLIT table.
func NUMA(nodes, perNode int) *Topology {
	if nodes <= 0 || perNode <= 0 {
		panic(fmt.Sprintf("topology: NUMA(%d, %d)", nodes, perNode))
	}
	n := nodes * perNode
	nodeOf := make([]int, n)
	dist := make([][]int, nodes)
	for node := 0; node < nodes; node++ {
		dist[node] = make([]int, nodes)
		for other := 0; other < nodes; other++ {
			if node == other {
				dist[node][other] = 10
			} else {
				dist[node][other] = 20
			}
		}
		for i := 0; i < perNode; i++ {
			nodeOf[node*perNode+i] = node
		}
	}
	return &Topology{NCores: n, NodeOf: nodeOf, NodeDistance: dist}
}
