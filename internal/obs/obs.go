// Package obs is the simulator's run-time observability layer. The paper's
// analysis is about *when and how* a network degrades — deadlock frequency,
// knot composition, blocked-message dynamics — yet end-of-run aggregates
// flatten all of it into single numbers. This package turns every run into
// inspectable evidence, in three pillars:
//
//   - Interval metrics: a Recorder samples occupancy/backlog/deadlock
//     gauges every N cycles into an append-only buffer, exported as
//     CSV or JSONL (one row per sample, tagged with the run's label, seed
//     and load), so "% blocked vs. time leading into a deadlock" becomes a
//     plottable series.
//
//   - Deadlock incident post-mortems: an IncidentLog implements
//     detect.Observer and captures one Incident record per detected
//     deadlock — cycle, set sizes, knot cycle density, victim, recovery
//     drain duration, the last K trace events and an optional DOT snapshot
//     of the knot subgraph — written as JSONL.
//
//   - Live introspection: Live holds the latest sample, and Server exposes
//     it as Prometheus text at /metrics (plus /healthz and a JSON
//     sweep-progress view). A SweepProgress is the one tally of a sweep
//     process, a charsweep invocation or a sweep coordinator: /progress,
//     the flexsim_sweep_runs_* families and a coordinator's
//     flexsweep_points_total all read it.
//
// Every hook into the cycle loop is a nil-guarded single branch, so the
// allocation-free detection hot path keeps 0 allocs/op when observability
// is off.
package obs

// Gauges is one interval sample of the simulation's observable state.
// Counter-like fields (Delivered, Recovered, Generated, Deadlocks,
// Invocations, Gated) are cumulative; the rest are instantaneous.
type Gauges struct {
	// Cycle is the sample's simulation cycle.
	Cycle int64
	// Active, Blocked and Queued count messages holding network
	// resources, blocked at the header, and waiting in source queues.
	Active  int
	Blocked int
	Queued  int
	// Flits counts flits resident in edge buffers.
	Flits int64
	// Delivered/Recovered/Generated are monotonic message counters since
	// the start of the run (warmup included).
	Delivered int64
	Recovered int64
	Generated int64
	// Deadlocks, Invocations and Gated mirror the detector's aggregates
	// (reset at the warmup/measurement boundary); Gated/Invocations is
	// the change-gate hit rate.
	Deadlocks   int64
	Invocations int64
	Gated       int64
	// FaultsActive counts currently failed resources (downed links,
	// locked VCs, dead nodes); MsgsKilled is the monotonic count of
	// messages fault injection removed from the network.
	FaultsActive int
	MsgsKilled   int64
}

// gauge declares one field of Gauges for export, and is the only place the
// package names it: the CSV/JSONL schema and rows and the flexsim_*
// exposition are loops over gauges, in this order. (Live and the Recorder
// store the struct itself.) TestGaugeDeclaredOnce fails for a field
// without a declaration.
type gauge struct {
	col  string // CSV column and JSONL key
	name string // Prometheus family
	typ  string // "counter" or "gauge"
	help string
	get  func(*Gauges) int64
}

var gauges = [...]gauge{
	{"cycle", "flexsim_cycle", "gauge", "Current simulation cycle.", func(g *Gauges) int64 { return g.Cycle }},
	{"active", "flexsim_active_messages", "gauge", "Messages holding network resources.", func(g *Gauges) int64 { return int64(g.Active) }},
	{"blocked", "flexsim_blocked_messages", "gauge", "Active messages blocked at the header.", func(g *Gauges) int64 { return int64(g.Blocked) }},
	{"queued", "flexsim_queued_messages", "gauge", "Messages waiting in source queues.", func(g *Gauges) int64 { return int64(g.Queued) }},
	{"flits", "flexsim_flits_in_network", "gauge", "Flits resident in edge buffers.", func(g *Gauges) int64 { return g.Flits }},
	{"delivered", "flexsim_delivered_messages_total", "counter", "Messages delivered since run start.", func(g *Gauges) int64 { return g.Delivered }},
	{"recovered", "flexsim_recovered_messages_total", "counter", "Deadlock victims absorbed since run start.", func(g *Gauges) int64 { return g.Recovered }},
	{"generated", "flexsim_generated_messages_total", "counter", "Messages generated since run start.", func(g *Gauges) int64 { return g.Generated }},
	{"deadlocks", "flexsim_deadlocks_total", "counter", "Deadlocks detected (since measurement start).", func(g *Gauges) int64 { return g.Deadlocks }},
	{"invocations", "flexsim_detector_invocations_total", "counter", "Detector passes (since measurement start).", func(g *Gauges) int64 { return g.Invocations }},
	{"gated", "flexsim_detector_gated_total", "counter", "Detector passes skipped by change-gating.", func(g *Gauges) int64 { return g.Gated }},
	{"faults_active", "flexsim_faults_active", "gauge", "Currently failed resources (links, VCs, nodes).", func(g *Gauges) int64 { return int64(g.FaultsActive) }},
	{"msgs_killed_by_fault", "flexsim_fault_killed_messages_total", "counter", "Messages removed by fault injection.", func(g *Gauges) int64 { return g.MsgsKilled }},
}
