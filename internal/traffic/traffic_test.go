package traffic

import (
	"math"
	"slices"
	"testing"

	"flexsim/internal/rng"
	"flexsim/internal/topology"
)

func torus16() *topology.Torus { return topology.MustNew(16, 2, true) }

func TestUniformExcludesSelfAndCovers(t *testing.T) {
	topo := topology.MustNew(4, 2, true)
	u := NewUniform(topo)
	r := rng.New(1)
	counts := make([]int, topo.Nodes())
	const draws = 32000
	for i := 0; i < draws; i++ {
		d := u.Dest(5, r)
		if d == 5 {
			t.Fatal("uniform returned the source")
		}
		if d < 0 || d >= topo.Nodes() {
			t.Fatalf("destination %d out of range", d)
		}
		counts[d]++
	}
	want := float64(draws) / float64(topo.Nodes()-1)
	for node, c := range counts {
		if node == 5 {
			continue
		}
		if math.Abs(float64(c)-want) > 6*math.Sqrt(want) {
			t.Errorf("node %d drawn %d times, expected ~%.0f", node, c, want)
		}
	}
}

func TestBitReversalInvolution(t *testing.T) {
	p, err := NewBitReversal(torus16())
	if err != nil {
		t.Fatal(err)
	}
	for src := 0; src < 256; src++ {
		d := p.Dest(src, nil)
		if d < 0 || d >= 256 {
			t.Fatalf("dest %d out of range", d)
		}
		if p.Dest(d, nil) != src {
			t.Fatalf("bit-reversal not an involution at %d", src)
		}
	}
	// Known value: 0b00000001 -> 0b10000000.
	if got := p.Dest(1, nil); got != 128 {
		t.Errorf("reverse(1) = %d, want 128", got)
	}
}

func TestBitReversalRequiresPowerOfTwo(t *testing.T) {
	if _, err := NewBitReversal(topology.MustNew(3, 2, true)); err == nil {
		t.Error("bit-reversal accepted 9 nodes")
	}
}

func TestTransposeCoordinate(t *testing.T) {
	topo := torus16()
	p, err := NewTranspose(topo)
	if err != nil {
		t.Fatal(err)
	}
	for src := 0; src < topo.Nodes(); src++ {
		d := p.Dest(src, nil)
		if topo.CoordOf(d, 0) != topo.CoordOf(src, 1) || topo.CoordOf(d, 1) != topo.CoordOf(src, 0) {
			t.Fatalf("transpose(%d) = %d does not swap coordinates", src, d)
		}
		if p.Dest(d, nil) != src {
			t.Fatalf("transpose not an involution at %d", src)
		}
	}
}

func TestTransposeOddDimsBitFallback(t *testing.T) {
	topo := topology.MustNew(4, 3, true) // 64 nodes, 6 bits
	p, err := NewTranspose(topo)
	if err != nil {
		t.Fatal(err)
	}
	for src := 0; src < topo.Nodes(); src++ {
		d := p.Dest(src, nil)
		if p.Dest(d, nil) != src {
			t.Fatalf("bit transpose not an involution at %d", src)
		}
	}
	// Odd bit counts cannot halve.
	if _, err := NewTranspose(topology.MustNew(2, 3, true)); err == nil {
		t.Error("transpose accepted 3-bit ids")
	}
}

func TestPerfectShuffleBijection(t *testing.T) {
	p, err := NewPerfectShuffle(torus16())
	if err != nil {
		t.Fatal(err)
	}
	seen := make([]bool, 256)
	for src := 0; src < 256; src++ {
		d := p.Dest(src, nil)
		if d < 0 || d >= 256 || seen[d] {
			t.Fatalf("shuffle not a bijection at %d -> %d", src, d)
		}
		seen[d] = true
	}
	// Rotating 8 bits left 8 times is the identity.
	x := 37
	for i := 0; i < 8; i++ {
		x = p.Dest(x, nil)
	}
	if x != 37 {
		t.Errorf("8 shuffles of 37 = %d, want identity", x)
	}
}

func TestHotSpotFraction(t *testing.T) {
	topo := torus16()
	h := NewHotSpot(topo, []int{7}, 0.25)
	r := rng.New(3)
	hot := 0
	const draws = 40000
	for i := 0; i < draws; i++ {
		if h.Dest(12, r) == 7 {
			hot++
		}
	}
	got := float64(hot) / draws
	if math.Abs(got-0.25) > 0.01 {
		t.Errorf("hot fraction = %.4f, want ~0.25", got)
	}
}

func TestHotSpotDefaultsToNodeZero(t *testing.T) {
	h := NewHotSpot(torus16(), nil, 1.0)
	r := rng.New(4)
	for i := 0; i < 100; i++ {
		if d := h.Dest(9, r); d != 0 {
			t.Fatalf("frac=1 hotspot sent to %d", d)
		}
	}
}

func TestTornadoOffset(t *testing.T) {
	topo := torus16()
	p := NewTornado(topo)
	for src := 0; src < topo.Nodes(); src++ {
		d := p.Dest(src, nil)
		for dim := 0; dim < 2; dim++ {
			diff := (topo.CoordOf(d, dim) - topo.CoordOf(src, dim) + 16) % 16
			if diff != 7 { // ceil(16/2)-1
				t.Fatalf("tornado offset at %d dim %d = %d, want 7", src, dim, diff)
			}
		}
	}
}

func TestNeighborAdjacent(t *testing.T) {
	topo := torus16()
	p := NewNeighbor(topo)
	r := rng.New(8)
	for i := 0; i < 1000; i++ {
		src := r.Intn(topo.Nodes())
		d := p.Dest(src, r)
		if topo.Distance(src, d) != 1 {
			t.Fatalf("neighbor dest %d at distance %d from %d", d, topo.Distance(src, d), src)
		}
	}
}

func TestByName(t *testing.T) {
	topo := torus16()
	for _, name := range Names() {
		p, err := ByName(name, topo, 0)
		if err != nil {
			t.Errorf("ByName(%q): %v", name, err)
			continue
		}
		if p.Name() == "" {
			t.Errorf("%s: empty pattern name", name)
		}
	}
	if _, err := ByName("nope", topo, 0); err == nil {
		t.Error("unknown pattern accepted")
	}
	// Aliases.
	if _, err := ByName("bit-reversal", topo, 0); err != nil {
		t.Error(err)
	}
	if _, err := ByName("hot-spot", topo, 0.3); err != nil {
		t.Error(err)
	}
}

func TestProcessRate(t *testing.T) {
	topo := torus16()
	msgLen := 32
	load := 0.5
	p := NewProcess(topo, NewUniform(topo), load, Fixed(msgLen), rng.New(7))
	wantProb := load * topo.CapacityPerNode() / float64(msgLen)
	if math.Abs(p.MessageProb()-wantProb) > 1e-12 {
		t.Fatalf("MessageProb = %v, want %v", p.MessageProb(), wantProb)
	}
	cycles := 2000
	injected := 0
	for i := 0; i < cycles; i++ {
		p.Generate(func(src, dst, length int) {
			if src == dst {
				t.Fatal("process injected self-addressed message")
			}
			if length != msgLen {
				t.Fatalf("fixed distribution produced length %d", length)
			}
			injected++
		})
	}
	if int64(injected) != p.Generated {
		t.Fatalf("callback count %d != Generated %d", injected, p.Generated)
	}
	want := wantProb * float64(cycles) * float64(topo.Nodes())
	if math.Abs(float64(injected)-want) > 5*math.Sqrt(want) {
		t.Errorf("injected %d messages, expected ~%.0f", injected, want)
	}
}

func TestProcessZeroLoad(t *testing.T) {
	topo := torus16()
	p := NewProcess(topo, NewUniform(topo), 0, Fixed(32), rng.New(7))
	p.Generate(func(src, dst, length int) { t.Fatal("zero load injected") })
	if p.Generated != 0 {
		t.Fatal("Generated nonzero at zero load")
	}
}

// generatePerNode is Generate as it was before it scanned for successes with
// rng.FirstBelow: one Bernoulli call per node. It is the reference the scan
// must match draw for draw.
func generatePerNode(p *Process, inject func(src, dst, length int)) {
	for src := 0; src < p.nodes; src++ {
		if !p.r.Bernoulli(p.prob) {
			continue
		}
		dst := p.pattern.Dest(src, p.r)
		if dst == src {
			continue
		}
		length := p.lengths.Sample(p.r)
		p.Generated++
		p.GeneratedFlits += int64(length)
		inject(src, dst, length)
	}
}

// TestGenerateStreamUnchanged runs Generate and the per-node reference on
// twin sources and requires the same (src, dst, len) sequence, counters and
// final generator state — for patterns and length distributions that draw
// between the Bernoulli trials, and for loads on both sides of the
// probability's clamps, where no trial draws at all.
func TestGenerateStreamUnchanged(t *testing.T) {
	topo := torus16()
	type msg struct{ src, dst, length int }
	patterns := []Pattern{NewUniform(topo), NewHotSpot(topo, []int{3, 200}, 0.3)}
	dists := []LengthDist{Fixed(32), Bimodal{Short: 4, Long: 64, ShortFrac: 0.7}, Fixed(1)}
	regimes := map[string]bool{}
	for _, pat := range patterns {
		for _, dist := range dists {
			for _, load := range []float64{0, 0.1, 0.9, 50} {
				ra, rb := rng.New(23), rng.New(23)
				a := NewProcess(topo, pat, load, dist, ra)
				b := NewProcess(topo, pat, load, dist, rb)
				var got, want []msg
				for cycle := 0; cycle < 300; cycle++ {
					a.Generate(func(src, dst, length int) { got = append(got, msg{src, dst, length}) })
					generatePerNode(b, func(src, dst, length int) { want = append(want, msg{src, dst, length}) })
				}
				name := pat.Name() + "/" + dist.Name()
				if !slices.Equal(got, want) {
					t.Errorf("%s load %g (p=%g): %d messages, reference %d, or a different sequence",
						name, load, a.MessageProb(), len(got), len(want))
				}
				if *ra != *rb {
					t.Errorf("%s load %g (p=%g): generator state diverged from the reference", name, load, a.MessageProb())
				}
				if a.Generated != b.Generated || a.GeneratedFlits != b.GeneratedFlits {
					t.Errorf("%s load %g: counters %d/%d, reference %d/%d",
						name, load, a.Generated, a.GeneratedFlits, b.Generated, b.GeneratedFlits)
				}
				switch p := a.MessageProb(); {
				case p <= 0:
					regimes["p=0"] = true
					if len(got) != 0 || *ra != *rng.New(23) {
						t.Errorf("%s: p=0 generated %d messages or drew from the generator", name, len(got))
					}
				case p < 1:
					regimes["0<p<1"] = true
				default:
					regimes["p>=1"] = true
					if _, uniform := pat.(Uniform); uniform && len(got) != 300*topo.Nodes() {
						t.Errorf("%s: p=%g generated %d messages, want one per node per cycle", name, p, len(got))
					}
				}
			}
		}
	}
	if len(regimes) != 3 {
		t.Errorf("loads covered only %v of p=0, 0<p<1, p>=1", regimes)
	}
}

func TestPatternNamesStable(t *testing.T) {
	names := map[string]string{
		"uniform": "uniform", "tornado": "tornado", "neighbor": "neighbor",
	}
	topo := torus16()
	for alias, want := range names {
		p, err := ByName(alias, topo, 0)
		if err != nil {
			t.Fatal(err)
		}
		if p.Name() != want {
			t.Errorf("%s: Name() = %q", alias, p.Name())
		}
	}
}
