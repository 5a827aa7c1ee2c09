package routing

import (
	"testing"
	"testing/quick"

	"flexsim/internal/topology"
)

// TestMinAdaptiveSupersetOfTFAROnTorus: on a torus, MinAdaptive offers every
// TFAR candidate, all of its own candidates are minimal, and the two sets
// coincide except at exact half-ring ties (where TFAR deterministically
// breaks toward Plus while MinAdaptive keeps both equally-minimal
// directions).
func TestMinAdaptiveSupersetOfTFAROnTorus(t *testing.T) {
	topo := topology.MustNew(8, 2, true)
	f := func(a, b uint16) bool {
		node := int(a) % topo.Nodes()
		dst := int(b) % topo.Nodes()
		if node == dst {
			return true
		}
		ma := MinAdaptive{}.Candidates(&Request{Topo: topo, Node: node, Dst: dst, VCs: 2, CurDim: -1}, nil)
		tf := TFAR{}.Candidates(&Request{Topo: topo, Node: node, Dst: dst, VCs: 2, CurDim: -1}, nil)
		set := map[Candidate]bool{}
		for _, c := range ma {
			set[c] = true
			if topo.Distance(topo.ChannelDst(c.Ch), dst) != topo.Distance(node, dst)-1 {
				return false // nonminimal candidate
			}
		}
		for _, c := range tf {
			if !set[c] {
				return false // TFAR candidate missing
			}
		}
		tie := false
		for dim := 0; dim < topo.N(); dim++ {
			off := topo.Offset(node, dst, dim)
			if off == topo.K()/2 {
				tie = true
			}
		}
		if !tie && len(ma) != len(tf) {
			return false // without ties the sets must coincide
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestMinAdaptiveOnIrregularIsMinimal(t *testing.T) {
	g := topology.MustNewIrregular(20, 8, 3)
	for s := 0; s < g.Nodes(); s++ {
		for d := 0; d < g.Nodes(); d++ {
			if s == d {
				continue
			}
			cands := MinAdaptive{}.Candidates(&Request{Topo: g, Node: s, Dst: d, VCs: 1, CurDim: -1}, nil)
			if len(cands) == 0 {
				t.Fatalf("no candidates %d -> %d", s, d)
			}
			for _, c := range cands {
				if g.Distance(g.ChannelDst(c.Ch), d) != g.Distance(s, d)-1 {
					t.Fatalf("nonminimal candidate %d -> %d", s, d)
				}
			}
		}
	}
}

func TestUpDownValidation(t *testing.T) {
	torus := topology.MustNew(8, 2, true)
	g := topology.MustNewIrregular(16, 4, 1)
	if err := (UpDown{}).ValidateTopo(torus); err == nil {
		t.Error("up*/down* accepted a torus")
	}
	if err := (UpDown{}).ValidateTopo(g); err != nil {
		t.Errorf("up*/down* rejected an irregular network: %v", err)
	}
	// Torus relations must reject irregular networks.
	if err := (DOR{}).ValidateTopo(g); err == nil {
		t.Error("DOR accepted an irregular network")
	}
	// MinAdaptive is topology-agnostic: no validator.
	if _, ok := interface{}(MinAdaptive{}).(TopologyValidator); ok {
		t.Error("MinAdaptive unexpectedly restricts its topology")
	}
}

// TestUpDownLegality: every candidate respects the phase rule (no up after
// down) and decreases the legal route distance; from the fresh phase a
// candidate always exists.
func TestUpDownLegality(t *testing.T) {
	g := topology.MustNewIrregular(24, 10, 17)
	for s := 0; s < g.Nodes(); s++ {
		for d := 0; d < g.Nodes(); d++ {
			if s == d {
				continue
			}
			for _, down := range []bool{false, true} {
				var crossed uint32
				if down {
					crossed = 1
				}
				cands := UpDown{}.Candidates(&Request{Topo: g, Node: s, Dst: d, VCs: 1, Crossed: crossed}, nil)
				cur := g.UpDownDistance(s, d, down)
				if !down && len(cands) == 0 {
					t.Fatalf("no fresh-phase candidates %d -> %d", s, d)
				}
				if cur < 0 && len(cands) != 0 {
					t.Fatalf("candidates offered on unreachable pair")
				}
				for _, c := range cands {
					if down && g.Up(c.Ch) {
						t.Fatalf("up channel offered in down phase")
					}
					next := g.UpDownDistance(g.ChannelDst(c.Ch), d, down || !g.Up(c.Ch))
					if next != cur-1 {
						t.Fatalf("candidate does not decrease legal distance (%d -> %d)", cur, next)
					}
				}
			}
		}
	}
}

func TestIrregularRegistryEntries(t *testing.T) {
	for _, name := range []string{"min-adaptive", "updown"} {
		alg, err := ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		if alg.Name() != name {
			t.Errorf("name mismatch for %s", name)
		}
	}
}
