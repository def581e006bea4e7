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

// NumNodes returns the number of NUMA nodes.
func (t *Topology) NumNodes() int { return len(t.NodeDistance) }

// Node returns the NUMA node of core id.
func (t *Topology) Node(id int) int { return t.NodeOf[id] }

// Distance returns the topological distance between two cores: 0 for the
// same core, the local node distance for two cores of one node, and the
// inter-node distance otherwise.
func (t *Topology) Distance(a, b int) int {
	if a == b {
		return 0
	}
	return t.NodeDistance[t.NodeOf[a]][t.NodeOf[b]]
}

// CoresOfNode returns the IDs of the cores on the given node, ascending.
func (t *Topology) CoresOfNode(node int) []int {
	var ids []int
	for id, n := range t.NodeOf {
		if n == node {
			ids = append(ids, id)
		}
	}
	return ids
}

// Validate checks structural consistency and returns the first problem
// found, or nil.
func (t *Topology) Validate() error {
	if t.NCores <= 0 {
		return fmt.Errorf("topology: NCores = %d", t.NCores)
	}
	if len(t.NodeOf) != t.NCores {
		return fmt.Errorf("topology: NodeOf has %d entries for %d cores", len(t.NodeOf), t.NCores)
	}
	n := t.NumNodes()
	for id, node := range t.NodeOf {
		if node < 0 || node >= n {
			return fmt.Errorf("topology: core %d on invalid node %d", id, node)
		}
	}
	for i, row := range t.NodeDistance {
		if len(row) != n {
			return fmt.Errorf("topology: distance row %d has %d entries for %d nodes", i, len(row), n)
		}
		for j, d := range row {
			if d <= 0 {
				return fmt.Errorf("topology: distance[%d][%d] = %d", i, j, d)
			}
			if i != j && d < row[i] {
				return fmt.Errorf("topology: remote distance[%d][%d]=%d below local %d", i, j, d, row[i])
			}
		}
	}
	return nil
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

// Groups returns the per-node core ID sets, in node order — the "groups of
// cores" of §5's hierarchical balancing.
func (t *Topology) Groups() [][]int {
	groups := make([][]int, t.NumNodes())
	for node := range groups {
		groups[node] = t.CoresOfNode(node)
	}
	return groups
}
