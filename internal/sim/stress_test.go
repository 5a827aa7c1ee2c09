package sim

import (
	"testing"

	"flexsim/internal/rng"
)

// TestRandomConfigStress runs many short simulations over randomized valid
// configurations with invariant checking enabled; any ownership, flit
// conservation or buffer violation panics and fails the test. This is the
// broadest net for cycle-update bugs.
func TestRandomConfigStress(t *testing.T) {
	if testing.Short() {
		t.Skip("stress test")
	}
	r := rng.New(2024)
	routings := []string{"dor", "tfar", "tfar-turnfirst", "dateline-dor", "duato-far", "misroute-far"}
	traffics := []string{"uniform", "transpose", "hotspot", "tornado", "neighbor"}
	for trial := 0; trial < 40; trial++ {
		c := Config{Spec: Spec{
			K:                 []int{2, 3, 4, 8}[r.Intn(4)],
			N:                 1 + r.Intn(3),
			Bidirectional:     r.Intn(3) > 0,
			VCs:               1 + r.Intn(4),
			BufferDepth:       []int{1, 2, 4, 16}[r.Intn(4)],
			MsgLen:            []int{1, 2, 8, 32}[r.Intn(4)],
			Routing:           routings[r.Intn(len(routings))],
			Traffic:           traffics[r.Intn(len(traffics))],
			Load:              0.2 + 1.2*r.Float64(),
			Seed:              r.Uint64(),
			WarmupCycles:      50,
			MeasureCycles:     300,
			DetectEvery:       10 + r.Intn(50),
			VictimPolicy:      []string{"oldest", "most", "fewest", "random"}[r.Intn(4)],
			Recover:           r.Intn(4) > 0,
			KnotCycles:        true,
			CycleCensus:       r.Intn(3) == 0,
			MaxCycles:         5000,
			MaxWork:           200000,
			RecoveryDrainRate: r.Intn(3),
			CheckInvariants:   true,
		}}
		// Mesh and irregular variants where legal.
		switch r.Intn(5) {
		case 0:
			c.Mesh = true
			c.Bidirectional = true
		case 1:
			c.IrregularNodes = 8 + r.Intn(24)
			c.IrregularLinks = r.Intn(20)
			c.Routing = []string{"min-adaptive", "updown"}[r.Intn(2)]
			c.Traffic = []string{"uniform", "hotspot"}[r.Intn(2)]
		}
		// Respect pattern constraints instead of skipping.
		if c.Traffic == "transpose" && c.N%2 == 1 {
			c.Traffic = "uniform" // odd dims may lack an even bit split
		}
		// Respect algorithm constraints instead of skipping.
		switch c.Routing {
		case "dateline-dor":
			if c.VCs < 2 {
				c.VCs = 2
			}
		case "duato-far":
			if c.VCs < 3 {
				c.VCs = 3
			}
		}
		if c.Mesh && !c.Bidirectional {
			c.Bidirectional = true
		}
		res, err := Run(c)
		if err != nil {
			t.Fatalf("trial %d (%+v): %v", trial, c, err)
		}
		if res.Delivered < 0 || res.Deadlocks < 0 {
			t.Fatalf("trial %d: negative counters: %+v", trial, res)
		}
		if !c.Recover && c.Routing != "dateline-dor" && c.Routing != "duato-far" {
			continue // wedged networks deliver little; nothing more to assert
		}
		if res.Generated > 50 && res.Delivered == 0 {
			t.Fatalf("trial %d (%+v): generated %d but delivered none", trial, c, res.Generated)
		}
	}
}

func TestHybridLengthsThroughSim(t *testing.T) {
	c := tiny()
	c.Routing = "tfar"
	c.MsgLen = 32
	c.MsgLenShort = 4
	c.ShortFrac = 0.5
	c.Load = 0.8
	res, err := Run(c)
	if err != nil {
		t.Fatal(err)
	}
	if res.MeanMsgLen != 18 {
		t.Errorf("MeanMsgLen = %v, want 18", res.MeanMsgLen)
	}
	if res.Delivered == 0 {
		t.Fatal("nothing delivered")
	}
	// Average delivered length must sit strictly between the modes.
	avg := float64(res.DeliveredFlits) / float64(res.Delivered)
	if avg <= 4 || avg >= 32 {
		t.Errorf("average delivered length %.1f not between modes", avg)
	}
	// Validation of bad mixes.
	c.MsgLenShort = 0
	if _, err := Run(c); err == nil {
		t.Error("zero short length accepted")
	}
}

func TestMeshThroughSim(t *testing.T) {
	c := tiny()
	c.Mesh = true
	c.Routing = "negative-first"
	c.Load = 1.0
	res, err := Run(c)
	if err != nil {
		t.Fatal(err)
	}
	if res.Deadlocks != 0 {
		t.Errorf("negative-first on mesh deadlocked %d times", res.Deadlocks)
	}
	// Turn models on tori must be rejected at construction.
	c.Mesh = false
	if _, err := Run(c); err == nil {
		t.Error("negative-first accepted on a torus")
	}
	// West-first needs 2 dimensions.
	c.Mesh = true
	c.Routing = "west-first"
	c.N = 3
	c.K = 4
	if _, err := Run(c); err == nil {
		t.Error("west-first accepted on a 3-D mesh")
	}
}

func TestMeshDORDeadlockFreeProperty(t *testing.T) {
	// The classic result: DOR on a mesh needs no VC restrictions at all.
	for seed := uint64(1); seed <= 3; seed++ {
		c := tiny()
		c.Mesh = true
		c.Routing = "dor"
		c.VCs = 1
		c.Load = 1.2
		c.Seed = seed
		res, err := Run(c)
		if err != nil {
			t.Fatal(err)
		}
		if res.Deadlocks != 0 {
			t.Errorf("seed %d: mesh DOR deadlocked %d times", seed, res.Deadlocks)
		}
	}
}

func TestTimeoutThresholdsThroughSim(t *testing.T) {
	c := tiny()
	c.Bidirectional = false
	c.Routing = "dor"
	c.Load = 1.0
	c.TimeoutThresholds = []int64{25, 400}
	r, err := NewRunner(c)
	if err != nil {
		t.Fatal(err)
	}
	res := r.Run()
	if res.Deadlocks == 0 {
		t.Fatal("no deadlocks in uni-torus saturation run")
	}
	rows := r.Detector.Timeout
	if len(rows) != 2 {
		t.Fatalf("timeout rows = %d", len(rows))
	}
	if rows[0].Flagged == 0 {
		t.Error("short threshold flagged nothing at saturation")
	}
	if rows[1].Flagged > rows[0].Flagged {
		t.Error("longer threshold flagged more than shorter")
	}
}
