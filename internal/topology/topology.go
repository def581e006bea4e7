// Package topology models machine topologies for scheduling: cores grouped
// into NUMA nodes and hierarchical scheduling domains, with a distance
// metric between cores.
//
// The paper's step-2 (Choose) heuristics and §5 hierarchical balancing are
// the consumers: a topology never influences the step-1 filter, which is
// how NUMA-awareness stays proof-free.
package topology

import "fmt"

// Level identifies a scheduling-domain level, smallest first, mirroring
// the Linux sched-domain hierarchy.
type Level int

const (
	// LevelSMT groups hardware threads of one physical core.
	LevelSMT Level = iota
	// LevelCore groups cores sharing a last-level cache.
	LevelCore
	// LevelNode groups cores of one NUMA node.
	LevelNode
	// LevelMachine is the root domain covering every core.
	LevelMachine
)

// String implements fmt.Stringer.
func (l Level) String() string {
	switch l {
	case LevelSMT:
		return "smt"
	case LevelCore:
		return "core"
	case LevelNode:
		return "node"
	case LevelMachine:
		return "machine"
	default:
		return fmt.Sprintf("Level(%d)", int(l))
	}
}

// Domain is one node of the scheduling-domain tree: a set of cores at some
// level, partitioned into child domains.
type Domain struct {
	// Level is the domain's position in the hierarchy.
	Level Level
	// Cores lists the core IDs covered by this domain, ascending.
	Cores []int
	// Children partitions Cores at the next level down; empty for leaf
	// domains.
	Children []*Domain
}

// Contains reports whether the domain covers core id.
func (d *Domain) Contains(id int) bool {
	for _, c := range d.Cores {
		if c == id {
			return true
		}
	}
	return false
}

// Topology describes a machine: core count, per-core NUMA node, inter-node
// distances and the domain tree.
type Topology struct {
	// NCores is the total number of cores.
	NCores int
	// NodeOf maps core ID to NUMA node index.
	NodeOf []int
	// NodeDistance[i][j] is the access distance from node i to node j.
	// Diagonal entries are the local distance (conventionally 10, as in
	// ACPI SLIT tables); remote entries are larger.
	NodeDistance [][]int
	// Root is the top of the scheduling-domain tree.
	Root *Domain
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
	if t.Root == nil {
		return fmt.Errorf("topology: missing root domain")
	}
	if len(t.Root.Cores) != t.NCores {
		return fmt.Errorf("topology: root domain covers %d of %d cores", len(t.Root.Cores), t.NCores)
	}
	return validateDomain(t.Root)
}

func validateDomain(d *Domain) error {
	if len(d.Children) == 0 {
		return nil
	}
	covered := make(map[int]bool)
	for _, child := range d.Children {
		if child.Level >= d.Level {
			return fmt.Errorf("topology: child level %v not below parent %v", child.Level, d.Level)
		}
		for _, c := range child.Cores {
			if covered[c] {
				return fmt.Errorf("topology: core %d in two sibling domains", c)
			}
			covered[c] = true
			if !d.Contains(c) {
				return fmt.Errorf("topology: child core %d outside parent domain", c)
			}
		}
		if err := validateDomain(child); err != nil {
			return err
		}
	}
	if len(covered) != len(d.Cores) {
		return fmt.Errorf("topology: children cover %d of %d cores", len(covered), len(d.Cores))
	}
	return nil
}

// Flat returns a single-node topology with n cores — the machine model of
// the paper's examples.
func Flat(n int) *Topology {
	if n <= 0 {
		panic(fmt.Sprintf("topology: Flat(%d)", n))
	}
	nodeOf := make([]int, n)
	cores := make([]int, n)
	for i := range cores {
		cores[i] = i
	}
	return &Topology{
		NCores:       n,
		NodeOf:       nodeOf,
		NodeDistance: [][]int{{10}},
		Root:         &Domain{Level: LevelMachine, Cores: cores},
	}
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
	root := &Domain{Level: LevelMachine, Cores: make([]int, n)}
	for i := range root.Cores {
		root.Cores[i] = i
	}
	for node := 0; node < nodes; node++ {
		dist[node] = make([]int, nodes)
		for other := 0; other < nodes; other++ {
			if node == other {
				dist[node][other] = 10
			} else {
				dist[node][other] = 20
			}
		}
		child := &Domain{Level: LevelNode}
		for i := 0; i < perNode; i++ {
			id := node*perNode + i
			nodeOf[id] = node
			child.Cores = append(child.Cores, id)
		}
		root.Children = append(root.Children, child)
	}
	return &Topology{NCores: n, NodeOf: nodeOf, NodeDistance: dist, Root: root}
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
