package main

import (
	"flag"
	"testing"

	"flexsim/cmd/internal/flags"
	"flexsim/internal/sim"
)

// TestBindOutputs: the flags only flexsim reads bind where run reads them,
// beside the shared groups on one FlagSet (a duplicate name would panic).
func TestBindOutputs(t *testing.T) {
	fs := flag.NewFlagSet("flexsim", flag.ContinueOnError)
	cfg := sim.Default()
	flags.BindSpec(fs, &cfg)
	flags.BindCommon(fs)
	o := bindOutputs(fs)
	err := fs.Parse([]string{
		"-trace-last", "16", "-trace-json", "t.jsonl", "-incidents-out", "inc.jsonl", "-incidents-dot",
	})
	if err != nil {
		t.Fatal(err)
	}
	if o.traceLast != 16 || o.traceJSON != "t.jsonl" || o.incidentsOut != "inc.jsonl" || !o.incidentsDOT {
		t.Errorf("flexsim flags misbound: %+v", o)
	}
}
