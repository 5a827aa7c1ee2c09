package detect_test

import (
	"testing"

	"flexsim/internal/detect"
	"flexsim/internal/sim"
)

// TestSnapshotReusesItsBuffer: repeated Snapshots of one state keep their
// VC buffer at the size of the snapshot they return, however many came
// before.
func TestSnapshotReusesItsBuffer(t *testing.T) {
	cfg := sim.Quick()
	cfg.Routing, cfg.Load = "dor", 1.0
	r, err := sim.NewRunner(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	for i := 0; i < 600; i++ {
		r.StepCycle()
	}
	d, err := detect.New(r.Net, detect.Config{Every: 50})
	if err != nil {
		t.Fatal(err)
	}
	first := -1
	for call := 1; call <= 50; call++ {
		held := 0
		for _, m := range d.Snapshot() {
			held += len(m.Owned) + len(m.Wants)
		}
		got := d.SnapshotVCs()
		if held == 0 {
			t.Fatal("saturated state snapshots no VC")
		}
		if got > held {
			t.Fatalf("call %d: the buffer holds %d VCs, the snapshot %d", call, got, held)
		}
		if first < 0 {
			first = got
		} else if got != first {
			t.Fatalf("call %d: the buffer holds %d VCs, %d after the first call", call, got, first)
		}
	}
}
