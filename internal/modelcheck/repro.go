package modelcheck

// Replayable repro files. A Repro captures one enumerated state — a
// divergence counterexample or a representative true deadlock — together
// with the configuration needed to rebuild the exact substrate, so the
// state can be reloaded with network.RestoreState and re-judged by the real
// detection pipeline (flexsim -repro renders it).

import (
	"encoding/json"
	"fmt"
	"os"

	"flexsim/internal/cwg"
	"flexsim/internal/network"
)

// Repro is a self-contained, replayable state dump.
type Repro struct {
	// Kind is "soundness", "completeness" or "exemplar" (a minimized true
	// deadlock emitted when a configuration has no divergences).
	Kind string `json:"kind"`
	// Config rebuilds the substrate (topology, routing, VCs, buffers).
	Config Config `json:"config"`
	// Detail is a human-readable account of why the state was emitted.
	Detail string `json:"detail"`
	// Messages is the state itself, in network.RestoreState form.
	Messages []network.InjectedMessage `json:"messages"`
	// Stuck and Live are the ground-truth verdict bitmasks over message IDs
	// (bit i = message ID i), as computed by the explorer's liveness DP.
	Stuck uint8 `json:"stuck"`
	Live  uint8 `json:"live"`
	// KnotDOT is the Graphviz rendering of the first detected knot at the
	// time the repro was captured, if the detector reported one.
	KnotDOT string `json:"knot_dot,omitempty"`
}

// WriteFile marshals the repro as indented JSON.
func (r *Repro) WriteFile(path string) error {
	data, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// LoadRepro reads a repro file written by WriteFile.
func LoadRepro(path string) (*Repro, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var r Repro
	if err := json.Unmarshal(data, &r); err != nil {
		return nil, fmt.Errorf("modelcheck: parse repro %s: %w", path, err)
	}
	return &r, nil
}

// Replay is a repro loaded back into a live substrate.
type Replay struct {
	Net *network.Network
	// Graph is the restored state's VC graph, for drawing (DOT, KnotDOT).
	Graph *cwg.Graph
	// Analysis is the detector's pass over the restored state: the
	// knot-freedom proof, then the message graph, as the model checker
	// judged it.
	Analysis cwg.Analysis
}

// Replay rebuilds the repro's substrate, restores its state and runs one
// detection pass, returning the live objects for rendering.
func (r *Repro) Replay() (*Replay, error) {
	sy, err := r.Config.build()
	if err != nil {
		return nil, err
	}
	if err := sy.net.RestoreState(0, r.Messages); err != nil {
		return nil, fmt.Errorf("modelcheck: repro state rejected by engine: %w", err)
	}
	an := sy.det.DetectNow()
	return &Replay{Net: sy.net, Graph: cwg.Build(sy.det.Snapshot()), Analysis: an}, nil
}
