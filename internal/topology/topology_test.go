package topology

import (
	"testing"
	"testing/quick"
)

// TestFlat checks the single-node shape, the machine model of the
// paper's examples.
func TestFlat(t *testing.T) {
	top := NUMA(1, 4)
	if top.NCores != 4 || len(top.NodeDistance) != 1 {
		t.Errorf("NCores=%d nodes=%d", top.NCores, len(top.NodeDistance))
	}
	for i := 0; i < 4; i++ {
		if top.NodeOf[i] != 0 {
			t.Errorf("NodeOf[%d] = %d, want 0", i, top.NodeOf[i])
		}
	}
	if top.Distance(0, 0) != 0 {
		t.Errorf("self distance = %d", top.Distance(0, 0))
	}
	if top.Distance(0, 3) != 10 {
		t.Errorf("Distance(0,3) = %d, want 10", top.Distance(0, 3))
	}
}

func TestNUMA(t *testing.T) {
	top := NUMA(2, 3)
	if top.NCores != 6 || len(top.NodeDistance) != 2 {
		t.Errorf("NCores=%d nodes=%d", top.NCores, len(top.NodeDistance))
	}
	// Node-major numbering.
	for i := 0; i < 3; i++ {
		if top.NodeOf[i] != 0 {
			t.Errorf("core %d on node %d, want 0", i, top.NodeOf[i])
		}
		if top.NodeOf[i+3] != 1 {
			t.Errorf("core %d on node %d, want 1", i+3, top.NodeOf[i+3])
		}
	}
	if d := top.Distance(0, 1); d != 10 {
		t.Errorf("local distance = %d, want 10", d)
	}
	if d := top.Distance(0, 5); d != 20 {
		t.Errorf("remote distance = %d, want 20", d)
	}
}

func TestNUMAPanics(t *testing.T) {
	for _, args := range [][2]int{{0, 4}, {2, 0}, {-1, 2}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("NUMA(%d,%d) did not panic", args[0], args[1])
				}
			}()
			NUMA(args[0], args[1])
		}()
	}
}

// TestDualSocket checks the common two-socket shape.
func TestDualSocket(t *testing.T) {
	top := NUMA(2, 8)
	if top.NCores != 16 || len(top.NodeDistance) != 2 {
		t.Errorf("NCores=%d nodes=%d", top.NCores, len(top.NodeDistance))
	}
}

// Property: NUMA topologies of any small shape put every core on one
// node, node-major, and have symmetric distances.
func TestNUMAProperty(t *testing.T) {
	f := func(nodesRaw, perRaw uint8) bool {
		nodes := int(nodesRaw%4) + 1
		per := int(perRaw%4) + 1
		top := NUMA(nodes, per)
		if top.NCores != nodes*per || len(top.NodeOf) != top.NCores || len(top.NodeDistance) != nodes {
			return false
		}
		for id, node := range top.NodeOf {
			if node != id/per {
				return false
			}
		}
		for i := 0; i < top.NCores; i++ {
			for j := 0; j < top.NCores; j++ {
				if top.Distance(i, j) != top.Distance(j, i) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
