package detect

import (
	"testing"

	"flexsim/internal/network"
	"flexsim/internal/routing"
	"flexsim/internal/topology"
)

func TestTimeoutCountsMath(t *testing.T) {
	c := TimeoutCounts{Flagged: 10, TrueDeadlocked: 4, MissedDeadlocked: 4}
	if got := c.Precision(); got != 0.4 {
		t.Errorf("Precision = %v", got)
	}
	if got := c.Recall(); got != 0.5 {
		t.Errorf("Recall = %v", got)
	}
	var zero TimeoutCounts
	if zero.Precision() != 1 || zero.Recall() != 1 {
		t.Error("zero counts must report perfect precision/recall")
	}
}

func TestTimeoutAgainstPlantedDeadlock(t *testing.T) {
	// Deterministic ring deadlock: all four messages block at the same
	// cycle, plus one dependent message behind them.
	topo := topology.MustNew(4, 1, false)
	n, err := network.New(network.Params{
		Topo: topo, VCs: 1, BufferDepth: 2, Routing: routing.DOR{},
		RecoveryDrainRate: 1, CheckInvariants: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	// Two-flit messages fit entirely in one channel buffer, so each ring
	// message releases its injection VC once blocked holding only its
	// first channel.
	for s := 0; s < 4; s++ {
		n.Inject(s, (s+2)%4, 2)
	}
	for i := 0; i < 20; i++ {
		n.Step()
	}
	// A fifth message now takes node 0's freed injection VC and blocks
	// wanting channel 0 (owned by the deadlock): a dependent message.
	n.Inject(0, 2, 2)
	for i := 0; i < 15; i++ {
		n.Step()
	}
	d := mustNew(t, n, Config{
		Every: 50, Recover: false,
		TimeoutThresholds: []int64{10, 1000},
	})
	d.DetectNow()
	if len(d.Timeout) != 2 {
		t.Fatalf("timeout rows: %d", len(d.Timeout))
	}
	short := d.Timeout[0]
	if short.TrueDeadlocked != 4 {
		t.Errorf("short threshold true-deadlocked = %d, want 4", short.TrueDeadlocked)
	}
	if short.Dependent != 1 {
		t.Errorf("short threshold dependent = %d, want 1", short.Dependent)
	}
	if short.FalsePositive != 0 {
		t.Errorf("short threshold false positives = %d, want 0", short.FalsePositive)
	}
	if short.MissedDeadlocked != 0 {
		t.Errorf("short threshold missed = %d", short.MissedDeadlocked)
	}
	if short.Precision() <= 0.7 {
		t.Errorf("short precision = %v", short.Precision())
	}
	// The long threshold has not elapsed: everything missed.
	long := d.Timeout[1]
	if long.Flagged != 0 {
		t.Errorf("long threshold flagged %d before elapsing", long.Flagged)
	}
	if long.MissedDeadlocked != 4 {
		t.Errorf("long threshold missed = %d, want 4", long.MissedDeadlocked)
	}
	if long.Recall() != 0 {
		t.Errorf("long recall = %v, want 0", long.Recall())
	}
}

func TestTimeoutDisabledByDefault(t *testing.T) {
	n := ringNet(t)
	d := mustNew(t, n, Config{Every: 50})
	d.DetectNow()
	if len(d.Timeout) != 0 {
		t.Error("timeout stats populated without thresholds")
	}
}

func TestTimeoutAggregatesAcrossPasses(t *testing.T) {
	n := ringNet(t)
	d := mustNew(t, n, Config{Every: 50, TimeoutThresholds: []int64{1}})
	d.DetectNow()
	first := d.Timeout[0].Flagged
	d.DetectNow()
	if d.Timeout[0].Flagged != 2*first {
		t.Errorf("flagged not accumulating: %d then %d", first, d.Timeout[0].Flagged)
	}
	d.ResetStats()
	if len(d.Timeout) != 0 {
		t.Error("ResetStats left timeout rows")
	}
}
