package rng

import (
	"math"
	"testing"
	"testing/quick"
)

func TestDeterminism(t *testing.T) {
	a, b := New(42), New(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("streams diverged at step %d", i)
		}
	}
}

func TestReseedMatchesNew(t *testing.T) {
	a := New(7)
	for i := 0; i < 10; i++ {
		a.Uint64()
	}
	a.Reseed(99)
	b := New(99)
	for i := 0; i < 100; i++ {
		if got, want := a.Uint64(), b.Uint64(); got != want {
			t.Fatalf("step %d: Reseed stream %d != New stream %d", i, got, want)
		}
	}
}

func TestSeedsDecorrelated(t *testing.T) {
	a, b := New(0), New(1)
	same := 0
	for i := 0; i < 1000; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 0 {
		t.Fatalf("adjacent seeds produced %d identical outputs of 1000", same)
	}
}

func TestZeroSeedUsable(t *testing.T) {
	r := New(0)
	if r.Uint64() == 0 && r.Uint64() == 0 && r.Uint64() == 0 {
		t.Fatal("seed 0 produced a degenerate stream")
	}
}

func TestIntnRange(t *testing.T) {
	r := New(3)
	f := func(n uint16) bool {
		bound := int(n%1000) + 1
		v := r.Intn(bound)
		return v >= 0 && v < bound
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

func TestIntnPanicsOnNonPositive(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Intn(0) did not panic")
		}
	}()
	New(1).Intn(0)
}

func TestIntnUniform(t *testing.T) {
	// Chi-square-ish check over 8 buckets.
	r := New(11)
	const n, buckets = 80000, 8
	var counts [buckets]int
	for i := 0; i < n; i++ {
		counts[r.Intn(buckets)]++
	}
	want := float64(n) / buckets
	for b, c := range counts {
		if math.Abs(float64(c)-want) > 5*math.Sqrt(want) {
			t.Errorf("bucket %d: count %d too far from expected %.0f", b, c, want)
		}
	}
}

func TestFloat64Range(t *testing.T) {
	r := New(5)
	sum := 0.0
	for i := 0; i < 100000; i++ {
		v := r.Float64()
		if v < 0 || v >= 1 {
			t.Fatalf("Float64 out of [0,1): %v", v)
		}
		sum += v
	}
	if mean := sum / 100000; math.Abs(mean-0.5) > 0.01 {
		t.Errorf("Float64 mean %.4f too far from 0.5", mean)
	}
}

func TestBernoulli(t *testing.T) {
	r := New(9)
	if r.Bernoulli(0) {
		t.Error("Bernoulli(0) returned true")
	}
	if !r.Bernoulli(1) {
		t.Error("Bernoulli(1) returned false")
	}
	if r.Bernoulli(-0.5) || !r.Bernoulli(1.5) {
		t.Error("clamping failed")
	}
	hits := 0
	const n = 50000
	for i := 0; i < n; i++ {
		if r.Bernoulli(0.25) {
			hits++
		}
	}
	if p := float64(hits) / n; math.Abs(p-0.25) > 0.01 {
		t.Errorf("Bernoulli(0.25) empirical rate %.4f", p)
	}
}

func TestPermIsPermutation(t *testing.T) {
	r := New(13)
	for _, n := range []int{0, 1, 2, 10, 100} {
		p := r.Perm(n)
		if len(p) != n {
			t.Fatalf("Perm(%d) has length %d", n, len(p))
		}
		seen := make([]bool, n)
		for _, v := range p {
			if v < 0 || v >= n || seen[v] {
				t.Fatalf("Perm(%d) = %v is not a permutation", n, p)
			}
			seen[v] = true
		}
	}
}

func TestShuffleIsPermutation(t *testing.T) {
	r := New(17)
	s := []int{0, 1, 2, 3, 4, 5, 6, 7}
	r.Shuffle(len(s), func(i, j int) { s[i], s[j] = s[j], s[i] })
	seen := make([]bool, len(s))
	for _, v := range s {
		if seen[v] {
			t.Fatalf("Shuffle produced duplicate: %v", s)
		}
		seen[v] = true
	}
}

func TestExpFloat64(t *testing.T) {
	r := New(19)
	sum := 0.0
	const n = 100000
	for i := 0; i < n; i++ {
		v := r.ExpFloat64()
		if v < 0 {
			t.Fatalf("ExpFloat64 negative: %v", v)
		}
		sum += v
	}
	if mean := sum / n; math.Abs(mean-1) > 0.02 {
		t.Errorf("ExpFloat64 mean %.4f too far from 1", mean)
	}
}

func TestSplitDecorrelated(t *testing.T) {
	a := New(21)
	b := a.Split()
	same := 0
	for i := 0; i < 1000; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 0 {
		t.Fatalf("Split stream matched parent %d times", same)
	}
}

// firstBernoulli is the loop FirstBelow replaces: up to max Bernoulli(p)
// trials, stopping at the first success.
func firstBernoulli(r *Source, p float64, max int) int {
	for i := 0; i < max; i++ {
		if r.Bernoulli(p) {
			return i
		}
	}
	return max
}

// belowThresh is the FirstBelow threshold under which a draw is a
// Bernoulli(p) success, 0 < p < 1.
func belowThresh(p float64) uint64 { return uint64(math.Ceil(p * (1 << 53))) }

// TestFirstBelowMatchesBernoulli pins FirstBelow's stream identity at the
// edges of the threshold conversion: the smallest and largest representable
// probabilities, a few ordinary ones (0.003125 is the paper's load 0.1 on the
// 16-ary 2-cube), and scans of no, one and many trials. The index and the
// generator state must equal a loop of Bernoulli(p) on a twin source, scan
// after scan.
func TestFirstBelowMatchesBernoulli(t *testing.T) {
	probs := []float64{0x1p-53, 1e-9, 0.003125, 0.25, 0.5, 1 - 0x1p-53}
	for _, p := range probs {
		for _, max := range []int{0, 1, 256} {
			a, b := New(17), New(17)
			for scan := 0; scan < 2000; scan++ {
				got, want := a.FirstBelow(belowThresh(p), max), firstBernoulli(b, p, max)
				if got != want || *a != *b {
					t.Fatalf("p=%g max=%d scan %d: FirstBelow = %d with state %x, Bernoulli loop = %d with state %x",
						p, max, scan, got, *a, want, *b)
				}
			}
		}
	}
	// The extremes really are extremes: 2⁻⁵³ succeeds only on a draw whose
	// top 53 bits are all zero, 1−2⁻⁵³ fails only when they are all one.
	if belowThresh(0x1p-53) != 1 || belowThresh(1-0x1p-53) != 1<<53-1 {
		t.Fatalf("thresholds %d, %d; want 1 and 2^53-1", belowThresh(0x1p-53), belowThresh(1-0x1p-53))
	}
}

// FuzzFirstBelow checks the same identity for arbitrary seeds, probabilities
// (any float64 bit pattern that lands in (0,1)) and scan lengths.
func FuzzFirstBelow(f *testing.F) {
	f.Add(uint64(1), math.Float64bits(0.003125), uint16(256))
	f.Add(uint64(2), math.Float64bits(0x1p-53), uint16(1000))
	f.Add(uint64(3), math.Float64bits(1-0x1p-53), uint16(7))
	f.Add(uint64(4), math.Float64bits(0x1p-1074), uint16(64))
	f.Fuzz(func(t *testing.T, seed, pBits uint64, max uint16) {
		p := math.Float64frombits(pBits)
		if !(p > 0 && p < 1) {
			t.Skip()
		}
		a, b := New(seed), New(seed)
		for scan := 0; scan < 4; scan++ {
			got, want := a.FirstBelow(belowThresh(p), int(max)), firstBernoulli(b, p, int(max))
			if got != want || *a != *b {
				t.Fatalf("seed %d p=%g max=%d scan %d: FirstBelow = %d with state %x, Bernoulli loop = %d with state %x",
					seed, p, max, scan, got, *a, want, *b)
			}
		}
	})
}
