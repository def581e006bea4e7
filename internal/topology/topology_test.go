package topology

import (
	"testing"
	"testing/quick"
)

func TestFlat(t *testing.T) {
	top := Flat(4)
	if err := top.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	if top.NCores != 4 || top.NumNodes() != 1 {
		t.Errorf("NCores=%d NumNodes=%d", top.NCores, top.NumNodes())
	}
	for i := 0; i < 4; i++ {
		if top.Node(i) != 0 {
			t.Errorf("Node(%d) = %d, want 0", i, top.Node(i))
		}
	}
	if top.Distance(0, 0) != 0 {
		t.Errorf("self distance = %d", top.Distance(0, 0))
	}
	if top.Distance(0, 3) != 10 {
		t.Errorf("Distance(0,3) = %d, want 10", top.Distance(0, 3))
	}
}

func TestFlatPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("Flat(0) did not panic")
		}
	}()
	Flat(0)
}

func TestNUMA(t *testing.T) {
	top := NUMA(2, 3)
	if err := top.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	if top.NCores != 6 || top.NumNodes() != 2 {
		t.Errorf("NCores=%d NumNodes=%d", top.NCores, top.NumNodes())
	}
	// Node-major numbering.
	for i := 0; i < 3; i++ {
		if top.Node(i) != 0 {
			t.Errorf("core %d on node %d, want 0", i, top.Node(i))
		}
		if top.Node(i+3) != 1 {
			t.Errorf("core %d on node %d, want 1", i+3, top.Node(i+3))
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
	if err := top.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	if top.NCores != 16 || top.NumNodes() != 2 {
		t.Errorf("NCores=%d NumNodes=%d", top.NCores, top.NumNodes())
	}
}

func TestCoresOfNodeAndGroups(t *testing.T) {
	top := NUMA(3, 2)
	groups := top.Groups()
	if len(groups) != 3 {
		t.Fatalf("Groups count = %d", len(groups))
	}
	want := [][]int{{0, 1}, {2, 3}, {4, 5}}
	for node, g := range groups {
		if len(g) != 2 || g[0] != want[node][0] || g[1] != want[node][1] {
			t.Errorf("Groups[%d] = %v, want %v", node, g, want[node])
		}
	}
	if got := top.CoresOfNode(1); len(got) != 2 || got[0] != 2 {
		t.Errorf("CoresOfNode(1) = %v", got)
	}
}

func TestValidateCatchesBrokenTopologies(t *testing.T) {
	// Wrong NodeOf length.
	bad := Flat(2)
	bad.NodeOf = []int{0}
	if bad.Validate() == nil {
		t.Error("short NodeOf accepted")
	}
	// Invalid node index.
	bad2 := Flat(2)
	bad2.NodeOf[1] = 5
	if bad2.Validate() == nil {
		t.Error("out-of-range node accepted")
	}
	// Remote distance below local.
	bad3 := NUMA(2, 1)
	bad3.NodeDistance[0][1] = 5
	if bad3.Validate() == nil {
		t.Error("remote < local distance accepted")
	}
}

// Property: NUMA topologies of any small shape validate, cover every core
// exactly once across groups, and have symmetric distances.
func TestNUMAProperty(t *testing.T) {
	f := func(nodesRaw, perRaw uint8) bool {
		nodes := int(nodesRaw%4) + 1
		per := int(perRaw%4) + 1
		top := NUMA(nodes, per)
		if top.Validate() != nil {
			return false
		}
		seen := make(map[int]bool)
		for _, g := range top.Groups() {
			for _, c := range g {
				if seen[c] {
					return false
				}
				seen[c] = true
			}
		}
		if len(seen) != top.NCores {
			return false
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
