// Package flexsim is a flit-level interconnection-network simulator with
// true deadlock detection, reproducing "Characterization of Deadlocks in
// Interconnection Networks" (Warnakulasuriya & Pinkston, IPPS 1997).
//
// The library lives under internal/; entry points:
//
//   - internal/sim: one simulation (Config, Run, RunContext)
//   - internal/runner: resilient execution engine (cancellation, panic
//     isolation, content-addressed result caching for resume)
//   - internal/api/specv1: versioned sweep specs and point results
//   - internal/cwg: channel wait-for graphs and knot-based deadlock theory
//   - internal/experiments: every figure of the paper as a plan (a specv1
//     spec) and a tabulator
//   - cmd/flexsim, cmd/charsweep, cmd/cwgviz: command-line tools
//   - examples/: runnable demonstrations
//
// See README.md for a guided tour and DESIGN.md for the system inventory.
package flexsim
