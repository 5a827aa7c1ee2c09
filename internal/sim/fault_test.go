package sim

import (
	"encoding/json"
	"testing"

	"flexsim/internal/fault"
	"flexsim/internal/obs"
)

// faulty returns a fast configuration with a generated link-fault schedule.
func faulty() Config {
	c := tiny()
	c.Routing = "tfar"
	c.VCs = 2
	c.Load = 0.4
	c.FaultLinkMTTF = 300
	c.FaultRepair = 100
	return c
}

func TestFaultyRunCompletes(t *testing.T) {
	res, err := Run(faulty())
	if err != nil {
		t.Fatal(err)
	}
	if res.FaultEvents == 0 {
		t.Fatal("schedule generated no applied events over 1000 cycles at mttf 300")
	}
	if res.Delivered == 0 {
		t.Fatal("nothing delivered under faults")
	}
	if res.Killed == 0 {
		t.Fatal("no messages killed: link-downs should catch occupants")
	}
	if f := res.KilledFraction(); f <= 0 || f >= 1 {
		t.Errorf("KilledFraction = %v outside (0,1)", f)
	}
}

func TestFaultyRunDeterministic(t *testing.T) {
	run := func() []byte {
		res, err := Run(faulty())
		if err != nil {
			t.Fatal(err)
		}
		b, err := json.Marshal(res.Simulated())
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	a, b := run(), run()
	if string(a) != string(b) {
		t.Fatalf("same config+seed produced different results:\n%s\n%s", a, b)
	}
}

func TestFaultSeedChangesOutcome(t *testing.T) {
	a, err := Run(faulty())
	if err != nil {
		t.Fatal(err)
	}
	c := faulty()
	c.FaultSeed = 99
	b, err := Run(c)
	if err != nil {
		t.Fatal(err)
	}
	if a.FaultEvents == b.FaultEvents && a.Killed == b.Killed && a.Delivered == b.Delivered {
		t.Error("changing FaultSeed left the run unchanged")
	}
}

// TestFaultStreamDoesNotPerturbTraffic pins the named-stream guarantee end
// to end: attaching a fault schedule must not change a single traffic or
// workload draw. Open-loop generation is network-independent, so the
// generated-message counters must match exactly with and without faults.
func TestFaultStreamDoesNotPerturbTraffic(t *testing.T) {
	healthy := tiny()
	healthy.Routing = "tfar"
	healthy.VCs = 2
	healthy.Load = 0.4
	h, err := Run(healthy)
	if err != nil {
		t.Fatal(err)
	}
	f, err := Run(faulty())
	if err != nil {
		t.Fatal(err)
	}
	if h.Generated != f.Generated || h.GeneratedFlits != f.GeneratedFlits {
		t.Fatalf("fault schedule perturbed traffic: healthy %d/%d flits, faulty %d/%d",
			h.Generated, h.GeneratedFlits, f.Generated, f.GeneratedFlits)
	}
}

func TestExplicitFaultEvents(t *testing.T) {
	c := tiny()
	c.Routing = "tfar"
	c.VCs = 2
	c.Load = 0.3
	c.FaultEvents = []fault.Event{
		{Cycle: 100, Kind: fault.LinkDown, Ch: 0},
		{Cycle: 400, Kind: fault.LinkUp, Ch: 0},
		{Cycle: 500, Kind: fault.NodeDown, Node: 3},
	}
	res, err := Run(c)
	if err != nil {
		t.Fatal(err)
	}
	if res.FaultEvents != 3 {
		t.Fatalf("applied %d events, want 3", res.FaultEvents)
	}
	if res.FaultsActiveEnd != 1 {
		t.Fatalf("FaultsActiveEnd = %d, want 1 (node 3 never repaired)", res.FaultsActiveEnd)
	}
}

func TestInvalidFaultScheduleRejected(t *testing.T) {
	c := tiny()
	c.FaultEvents = []fault.Event{{Cycle: 10, Kind: fault.LinkDown, Ch: 1 << 20}}
	if _, err := Run(c); err == nil {
		t.Fatal("out-of-range fault event accepted")
	}
}

// captureSink grabs the run's recorder at Finish for inspection.
type captureSink struct{ rec *obs.Recorder }

func (s *captureSink) Run(_ obs.RunMeta, rec *obs.Recorder) { s.rec = rec }

// TestFaultyMetricsColumns: interval metrics report the fault gauges.
func TestFaultyMetricsColumns(t *testing.T) {
	c := faulty()
	sink := &captureSink{}
	c.MetricsEvery = 50
	c.MetricsSink = sink
	if _, err := Run(c); err != nil {
		t.Fatal(err)
	}
	if sink.rec == nil {
		t.Fatal("metrics sink never flushed")
	}
	sawFault, sawKilled := false, false
	for i := 0; i < sink.rec.Len(); i++ {
		g := sink.rec.At(i)
		if g.FaultsActive > 0 {
			sawFault = true
		}
		if g.MsgsKilled > 0 {
			sawKilled = true
		}
	}
	if !sawFault || !sawKilled {
		t.Fatalf("fault gauges never sampled: faultsActive=%v killed=%v", sawFault, sawKilled)
	}
}
