package routing

import (
	"reflect"
	"testing"
	"testing/quick"

	"flexsim/internal/topology"
)

func req(t *topology.Torus, node, dst, vcs int) *Request {
	return &Request{Topo: t, Node: node, Dst: dst, VCs: vcs, CurDim: -1, PrevCh: topology.None}
}

func TestByNameAndNames(t *testing.T) {
	for _, name := range Names() {
		alg, err := ByName(name)
		if err != nil {
			t.Fatalf("ByName(%q): %v", name, err)
		}
		if alg.Name() != name {
			t.Errorf("ByName(%q).Name() = %q", name, alg.Name())
		}
		if alg.MinVCs() < 1 {
			t.Errorf("%s: MinVCs = %d", name, alg.MinVCs())
		}
	}
	if _, err := ByName("bogus"); err == nil {
		t.Error("ByName(bogus) succeeded")
	}
}

func TestDORDimensionOrder(t *testing.T) {
	topo := topology.MustNew(8, 2, true)
	src := topo.Node([]int{1, 1})
	dst := topo.Node([]int{4, 5})
	cands := DOR{}.Candidates(req(topo, src, dst, 2), nil)
	if len(cands) != 2 {
		t.Fatalf("DOR with 2 VCs returned %d candidates", len(cands))
	}
	// Dimension 0 has a nonzero offset, so all candidates must be on the
	// dim-0 channel; both VCs offered in index order.
	for i, c := range cands {
		if topo.ChannelDim(c.Ch) != 0 {
			t.Errorf("candidate %d on dim %d, want 0", i, topo.ChannelDim(c.Ch))
		}
		if c.VC != i {
			t.Errorf("candidate %d has VC %d", i, c.VC)
		}
	}
	// Once dim 0 is corrected, DOR must route in dim 1.
	mid := topo.Node([]int{4, 1})
	cands = DOR{}.Candidates(req(topo, mid, dst, 1), nil)
	if len(cands) != 1 || topo.ChannelDim(cands[0].Ch) != 1 {
		t.Fatalf("DOR after dim-0 completion: %+v", cands)
	}
}

func TestDOREmptyAtDestination(t *testing.T) {
	topo := topology.MustNew(8, 2, true)
	if cands := (DOR{}).Candidates(req(topo, 5, 5, 1), nil); len(cands) != 0 {
		t.Fatalf("DOR at destination returned %v", cands)
	}
}

func TestDORUnidirectional(t *testing.T) {
	topo := topology.MustNew(8, 1, false)
	// dst "behind" src must still route Plus (the only direction).
	cands := DOR{}.Candidates(req(topo, 5, 2, 1), nil)
	if len(cands) != 1 || topo.ChannelDir(cands[0].Ch) != topology.Plus {
		t.Fatalf("uni DOR candidates: %+v", cands)
	}
}

func TestTFARCoversAllProductiveDims(t *testing.T) {
	topo := topology.MustNew(8, 3, true)
	src := topo.Node([]int{0, 0, 0})
	dst := topo.Node([]int{2, 3, 7})
	vcs := 2
	cands := TFAR{}.Candidates(req(topo, src, dst, vcs), nil)
	if len(cands) != 3*vcs {
		t.Fatalf("TFAR returned %d candidates, want %d", len(cands), 3*vcs)
	}
	dims := map[int]int{}
	for _, c := range cands {
		dims[topo.ChannelDim(c.Ch)]++
	}
	for d := 0; d < 3; d++ {
		if dims[d] != vcs {
			t.Errorf("dim %d offered %d times, want %d", d, dims[d], vcs)
		}
	}
}

func TestTFARStayInDimensionFirst(t *testing.T) {
	topo := topology.MustNew(8, 2, true)
	src := topo.Node([]int{1, 1})
	dst := topo.Node([]int{3, 3})
	r := req(topo, src, dst, 1)
	r.CurDim = 1 // header arrived travelling in dim 1
	cands := TFAR{}.Candidates(r, nil)
	if len(cands) != 2 {
		t.Fatalf("candidates: %+v", cands)
	}
	if topo.ChannelDim(cands[0].Ch) != 1 || topo.ChannelDim(cands[1].Ch) != 0 {
		t.Errorf("stay-in-dimension ordering violated: %+v", cands)
	}
	// PreferTurn inverts the preference.
	cands = TFAR{PreferTurn: true}.Candidates(r, nil)
	if topo.ChannelDim(cands[0].Ch) != 0 || topo.ChannelDim(cands[1].Ch) != 1 {
		t.Errorf("PreferTurn ordering violated: %+v", cands)
	}
}

// TestMinimality: every candidate of every minimal algorithm strictly
// reduces the distance to the destination.
func TestMinimality(t *testing.T) {
	topos := []*topology.Torus{
		topology.MustNew(8, 2, true),
		topology.MustNew(8, 2, false),
		topology.MustNew(4, 3, true),
		topology.MustNew(5, 2, true),
	}
	algs := []Algorithm{DOR{}, TFAR{}, TFAR{PreferTurn: true}, DatelineDOR{}, DuatoFAR{}}
	for _, topo := range topos {
		for _, alg := range algs {
			vcs := alg.MinVCs()
			f := func(a, b uint16, crossed uint8) bool {
				node := int(a) % topo.Nodes()
				dst := int(b) % topo.Nodes()
				if node == dst {
					return true
				}
				r := req(topo, node, dst, vcs)
				r.Crossed = uint32(crossed)
				cands := alg.Candidates(r, nil)
				if len(cands) == 0 {
					return false // must always offer something off-destination
				}
				d := topo.Distance(node, dst)
				for _, c := range cands {
					if topo.ChannelSrc(c.Ch) != node {
						return false
					}
					if c.VC < 0 || c.VC >= vcs {
						return false
					}
					if topo.Distance(topo.ChannelDst(c.Ch), dst) != d-1 {
						return false
					}
				}
				return true
			}
			if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
				t.Errorf("%s on %s: %v", alg.Name(), topo, err)
			}
		}
	}
}

func TestDatelineClassSelection(t *testing.T) {
	topo := topology.MustNew(8, 2, true)
	src := topo.Node([]int{1, 1})
	dst := topo.Node([]int{4, 1})
	// Before crossing the dateline in dim 0: even VCs only.
	cands := DatelineDOR{}.Candidates(req(topo, src, dst, 4), nil)
	if len(cands) != 2 {
		t.Fatalf("dateline class-0 candidates: %+v", cands)
	}
	for _, c := range cands {
		if c.VC%2 != 0 {
			t.Errorf("class-0 candidate uses odd VC %d", c.VC)
		}
	}
	// After crossing dim 0's dateline: odd VCs only.
	r := req(topo, src, dst, 4)
	r.Crossed = 1 << 0
	cands = DatelineDOR{}.Candidates(r, nil)
	if len(cands) != 2 {
		t.Fatalf("dateline class-1 candidates: %+v", cands)
	}
	for _, c := range cands {
		if c.VC%2 != 1 {
			t.Errorf("class-1 candidate uses even VC %d", c.VC)
		}
	}
}

func TestDuatoEscapeAlwaysLast(t *testing.T) {
	topo := topology.MustNew(8, 2, true)
	f := func(a, b uint16, crossed uint8) bool {
		node := int(a) % topo.Nodes()
		dst := int(b) % topo.Nodes()
		if node == dst {
			return true
		}
		r := req(topo, node, dst, 3)
		r.Crossed = uint32(crossed)
		cands := DuatoFAR{}.Candidates(r, nil)
		if len(cands) == 0 {
			return false
		}
		// Exactly one escape candidate (VC 0 or 1), and it is last; it
		// must sit on the DOR channel.
		esc := cands[len(cands)-1]
		if esc.VC != 0 && esc.VC != 1 {
			return false
		}
		dorC := DOR{}.Candidates(req(topo, node, dst, 1), nil)
		if esc.Ch != dorC[0].Ch {
			return false
		}
		for _, c := range cands[:len(cands)-1] {
			if c.VC < 2 { // adaptive candidates use VC >= 2 only
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestDuatoEscapeClassFollowsDateline(t *testing.T) {
	topo := topology.MustNew(8, 2, true)
	src := topo.Node([]int{1, 1})
	dst := topo.Node([]int{4, 1})
	r := req(topo, src, dst, 3)
	cands := DuatoFAR{}.Candidates(r, nil)
	if esc := cands[len(cands)-1]; esc.VC != 0 {
		t.Errorf("escape class before dateline = %d, want 0", esc.VC)
	}
	r.Crossed = 1
	cands = DuatoFAR{}.Candidates(r, nil)
	if esc := cands[len(cands)-1]; esc.VC != 1 {
		t.Errorf("escape class after dateline = %d, want 1", esc.VC)
	}
}

func TestMisroutingBudget(t *testing.T) {
	topo := topology.MustNew(8, 2, true)
	src := topo.Node([]int{1, 1})
	dst := topo.Node([]int{3, 1}) // one productive dim
	alg := MisroutingFAR{MaxDeroutes: 2}

	r := req(topo, src, dst, 1)
	cands := alg.Candidates(r, nil)
	minimal := TFAR{}.Candidates(req(topo, src, dst, 1), nil)
	if len(cands) <= len(minimal) {
		t.Fatalf("misrouting offered no deroutes: %d candidates", len(cands))
	}
	// Minimal candidates must come first.
	if !reflect.DeepEqual(cands[:len(minimal)], minimal) {
		t.Error("minimal candidates are not the highest priority")
	}
	// Budget exhausted: identical to TFAR.
	r.Deroutes = 2
	cands = alg.Candidates(r, nil)
	if !reflect.DeepEqual(cands, minimal) {
		t.Errorf("budget-exhausted candidates = %+v, want %+v", cands, minimal)
	}
}

func TestMisroutingExcludesReverse(t *testing.T) {
	topo := topology.MustNew(8, 2, true)
	src := topo.Node([]int{1, 1})
	dst := topo.Node([]int{3, 1})
	// Header arrived over the dim-1 Plus channel into src.
	prevSrc := topo.Neighbor(src, 1, topology.Minus)
	prev := topo.Channel(prevSrc, 1, topology.Plus)
	r := req(topo, src, dst, 1)
	r.PrevCh = prev
	cands := MisroutingFAR{MaxDeroutes: 4}.Candidates(r, nil)
	reverse := topo.Channel(src, 1, topology.Minus)
	for _, c := range cands {
		if c.Ch == reverse {
			t.Fatal("misrouting offered the immediate-reverse channel")
		}
	}
}

func TestMisroutingZeroBudgetIsTFAR(t *testing.T) {
	topo := topology.MustNew(8, 2, true)
	src := topo.Node([]int{0, 0})
	dst := topo.Node([]int{3, 4})
	a := MisroutingFAR{}.Candidates(req(topo, src, dst, 2), nil)
	b := TFAR{}.Candidates(req(topo, src, dst, 2), nil)
	if !reflect.DeepEqual(a, b) {
		t.Errorf("zero-budget misrouting differs from TFAR: %+v vs %+v", a, b)
	}
}
