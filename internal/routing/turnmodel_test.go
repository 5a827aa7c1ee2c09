package routing

import (
	"testing"
	"testing/quick"

	"flexsim/internal/topology"
)

func meshReq(t *topology.Torus, node, dst, vcs int) *Request {
	return &Request{Topo: t, Node: node, Dst: dst, VCs: vcs, CurDim: -1, PrevCh: topology.None}
}

func TestTurnModelRegistered(t *testing.T) {
	for _, name := range []string{"negative-first", "west-first"} {
		alg, err := ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		if _, ok := alg.(TopologyValidator); !ok {
			t.Errorf("%s does not validate its topology", name)
		}
	}
}

func TestTurnModelTopoValidation(t *testing.T) {
	torus := topology.MustNew(8, 2, true)
	mesh2 := topology.MustNewMesh(8, 2)
	mesh3 := topology.MustNewMesh(4, 3)
	if err := (NegativeFirst{}).ValidateTopo(torus); err == nil {
		t.Error("negative-first accepted a torus")
	}
	if err := (NegativeFirst{}).ValidateTopo(mesh3); err != nil {
		t.Errorf("negative-first rejected a 3-D mesh: %v", err)
	}
	if err := (WestFirst{}).ValidateTopo(torus); err == nil {
		t.Error("west-first accepted a torus")
	}
	if err := (WestFirst{}).ValidateTopo(mesh3); err == nil {
		t.Error("west-first accepted a 3-D mesh")
	}
	if err := (WestFirst{}).ValidateTopo(mesh2); err != nil {
		t.Errorf("west-first rejected a 2-D mesh: %v", err)
	}
}

// TestNegativeFirstNeverTurnsPositiveToNegative: the defining turn
// restriction, as a property over random (node, dst) pairs: if any negative
// hop remains, no positive candidate is offered.
func TestNegativeFirstNeverTurnsPositiveToNegative(t *testing.T) {
	mesh := topology.MustNewMesh(8, 3)
	f := func(a, b uint16) bool {
		node := int(a) % mesh.Nodes()
		dst := int(b) % mesh.Nodes()
		if node == dst {
			return true
		}
		cands := NegativeFirst{}.Candidates(meshReq(mesh, node, dst, 1), nil)
		if len(cands) == 0 {
			return false
		}
		negRemaining := false
		for dim := 0; dim < mesh.N(); dim++ {
			if mesh.Offset(node, dst, dim) < 0 {
				negRemaining = true
			}
		}
		for _, c := range cands {
			dir := mesh.ChannelDir(c.Ch)
			if negRemaining && dir == topology.Plus {
				return false
			}
			if !negRemaining && dir == topology.Minus {
				return false
			}
			// Minimality.
			if mesh.Distance(mesh.ChannelDst(c.Ch), dst) != mesh.Distance(node, dst)-1 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

// TestWestFirstProperty: west hops are exclusive and first; otherwise the
// candidate set equals minimal adaptive.
func TestWestFirstProperty(t *testing.T) {
	mesh := topology.MustNewMesh(8, 2)
	f := func(a, b uint16) bool {
		node := int(a) % mesh.Nodes()
		dst := int(b) % mesh.Nodes()
		if node == dst {
			return true
		}
		cands := WestFirst{}.Candidates(meshReq(mesh, node, dst, 2), nil)
		if len(cands) == 0 {
			return false
		}
		if mesh.Offset(node, dst, 0) < 0 {
			for _, c := range cands {
				if mesh.ChannelDim(c.Ch) != 0 || mesh.ChannelDir(c.Ch) != topology.Minus {
					return false
				}
			}
			return true
		}
		// No west component: fully adaptive (same set as TFAR).
		tf := TFAR{}.Candidates(meshReq(mesh, node, dst, 2), nil)
		if len(cands) != len(tf) {
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestTurnModelsAlwaysOfferSomething(t *testing.T) {
	mesh := topology.MustNewMesh(6, 2)
	for node := 0; node < mesh.Nodes(); node++ {
		for dst := 0; dst < mesh.Nodes(); dst++ {
			if node == dst {
				continue
			}
			if len((NegativeFirst{}).Candidates(meshReq(mesh, node, dst, 1), nil)) == 0 {
				t.Fatalf("negative-first empty at %d->%d", node, dst)
			}
			if len((WestFirst{}).Candidates(meshReq(mesh, node, dst, 1), nil)) == 0 {
				t.Fatalf("west-first empty at %d->%d", node, dst)
			}
		}
	}
}

func TestMinimalAlgorithmsOnMesh(t *testing.T) {
	// DOR and TFAR must stay minimal and in-bounds on meshes too.
	mesh := topology.MustNewMesh(8, 2)
	for _, alg := range []Algorithm{DOR{}, TFAR{}} {
		f := func(a, b uint16) bool {
			node := int(a) % mesh.Nodes()
			dst := int(b) % mesh.Nodes()
			if node == dst {
				return true
			}
			for _, c := range alg.Candidates(meshReq(mesh, node, dst, 1), nil) {
				if !mesh.ChannelExists(c.Ch) {
					return false
				}
				if mesh.Distance(mesh.ChannelDst(c.Ch), dst) != mesh.Distance(node, dst)-1 {
					return false
				}
			}
			return true
		}
		if err := quick.Check(f, &quick.Config{MaxCount: 400}); err != nil {
			t.Errorf("%s on mesh: %v", alg.Name(), err)
		}
	}
}

func TestMisroutingOnMeshSkipsEdges(t *testing.T) {
	mesh := topology.MustNewMesh(4, 2)
	corner := mesh.Node([]int{0, 0})
	dst := mesh.Node([]int{2, 0})
	r := meshReq(mesh, corner, dst, 1)
	cands := MisroutingFAR{MaxDeroutes: 4}.Candidates(r, nil)
	for _, c := range cands {
		if !mesh.ChannelExists(c.Ch) {
			t.Fatalf("misrouting offered nonexistent mesh channel %d", c.Ch)
		}
	}
}
