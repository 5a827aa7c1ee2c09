package obs

// Engine telemetry reporting: aggregates network.EngineStats across one or
// many runs (a sweep flushes from worker goroutines, so the aggregator is
// concurrency-safe like the RunSinks) and renders the end-of-run
// `-profile-engine` imbalance report — per-phase stall breakdown, top-k
// hottest shards, cross-shard traffic matrices and a suggested shard count
// — as JSON (for tooling; jq-validated in CI) or text (for stderr).
//
// Only the counts in the report are deterministic; the nanosecond fields
// are wall-clock measurements and must never enter golden comparisons.

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"sync"

	"flexsim/internal/network"
)

// EngineSink receives a finished run's engine telemetry. Implementations
// must be safe for concurrent use (sweeps flush many runs from worker
// goroutines).
type EngineSink interface {
	EngineRun(meta RunMeta, es *network.EngineStats)
}

// EngineProfile aggregates engine telemetry across runs; it implements
// EngineSink. Runs with different shard counts fold into matrices sized for
// the largest count seen.
type EngineProfile struct {
	mu     sync.Mutex
	runs   int
	shards int
	cycles int64
	phase  [][network.EnginePhases]int64
	wall   [network.EnginePhases]int64
	stall  [network.EnginePhases]int64
	idle   [network.EnginePhases]int64
	req    []int64
	grant  []int64
	msgFx  int64
	nodeFx int64
	merge  int64
}

// EngineRun implements EngineSink.
func (p *EngineProfile) EngineRun(meta RunMeta, es *network.EngineStats) {
	if es == nil || es.Cycles == 0 {
		return
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	p.grow(es.Shards)
	p.runs++
	p.cycles += es.Cycles
	for s := range es.PhaseNs {
		for ph, ns := range es.PhaseNs[s] {
			p.phase[s][ph] += ns
		}
	}
	for ph := 0; ph < network.EnginePhases; ph++ {
		p.wall[ph] += es.WallNs[ph]
		p.stall[ph] += es.StallNs[ph]
		p.idle[ph] += es.IdleNs[ph]
	}
	for src := 0; src < es.Shards; src++ {
		for dst := 0; dst < es.Shards; dst++ {
			p.req[src*p.shards+dst] += es.Req(src, dst)
			p.grant[src*p.shards+dst] += es.Grant(src, dst)
		}
	}
	p.msgFx += es.MsgEffects
	p.nodeFx += es.NodeEffects
	p.merge += es.MergeNs
}

// grow resizes the per-shard dimensions to hold at least `shards`,
// re-striding the accumulated matrices.
func (p *EngineProfile) grow(shards int) {
	if shards <= p.shards {
		return
	}
	phase := make([][network.EnginePhases]int64, shards)
	copy(phase, p.phase)
	req := make([]int64, shards*shards)
	grant := make([]int64, shards*shards)
	for src := 0; src < p.shards; src++ {
		for dst := 0; dst < p.shards; dst++ {
			req[src*shards+dst] = p.req[src*p.shards+dst]
			grant[src*shards+dst] = p.grant[src*p.shards+dst]
		}
	}
	p.phase, p.req, p.grant, p.shards = phase, req, grant, shards
}

// EnginePhaseReport is one launch's row of the report.
type EnginePhaseReport struct {
	Phase string `json:"phase"`
	// BusyNs sums kernel time across shards; WallNs is the barrier wall
	// time (slowest shard per launch, accumulated); StallNs is the
	// slowest-minus-median imbalance cost.
	BusyNs  int64 `json:"busy_ns"`
	WallNs  int64 `json:"wall_ns"`
	StallNs int64 `json:"stall_ns"`
	// IdleFraction is worker time parked at this launch's barrier over
	// total worker time under it: IdleNs / (shards × WallNs).
	IdleFraction float64 `json:"idle_fraction"`
}

// EngineShardReport is one shard's row of the hottest-shards table.
type EngineShardReport struct {
	Shard  int     `json:"shard"`
	BusyNs int64   `json:"busy_ns"`
	Share  float64 `json:"share"` // of total busy time
}

// EngineReport is the rendered end-of-run engine profile.
type EngineReport struct {
	Runs   int   `json:"runs"`
	Shards int   `json:"shards"`
	Cycles int64 `json:"cycles"`

	BusyNs       int64   `json:"busy_ns"`
	WallNs       int64   `json:"wall_ns"`
	StallNs      int64   `json:"stall_ns"`
	IdleFraction float64 `json:"idle_fraction"`

	Phases    []EnginePhaseReport `json:"phases"`
	HotShards []EngineShardReport `json:"hot_shards"`

	CrossShardRequests int64     `json:"cross_shard_requests"`
	CrossShardGrants   int64     `json:"cross_shard_grants"`
	RequestMatrix      [][]int64 `json:"request_matrix,omitempty"`
	GrantMatrix        [][]int64 `json:"grant_matrix,omitempty"`

	MsgEffects  int64 `json:"msg_effects"`
	NodeEffects int64 `json:"node_effects"`
	MergeNs     int64 `json:"merge_ns"`

	// SuggestedShards is a heuristic: shrink when workers mostly idle.
	SuggestedShards int      `json:"suggested_shards"`
	Notes           []string `json:"notes,omitempty"`
}

// hotShardsK bounds the hottest-shards table.
const hotShardsK = 8

// Report renders the accumulated profile.
func (p *EngineProfile) Report() *EngineReport {
	p.mu.Lock()
	defer p.mu.Unlock()
	r := &EngineReport{Runs: p.runs, Shards: p.shards, Cycles: p.cycles}
	if p.runs == 0 {
		r.Notes = append(r.Notes,
			"no engine telemetry recorded (all runs cached, or zero cycles executed)")
		return r
	}
	var idle int64
	for ph := 0; ph < network.EnginePhases; ph++ {
		var busy int64
		for s := range p.phase {
			busy += p.phase[s][ph]
		}
		pr := EnginePhaseReport{
			Phase:   network.EnginePhaseNames[ph],
			BusyNs:  busy,
			WallNs:  p.wall[ph],
			StallNs: p.stall[ph],
		}
		if denom := int64(p.shards) * p.wall[ph]; denom > 0 {
			pr.IdleFraction = float64(p.idle[ph]) / float64(denom)
		}
		r.Phases = append(r.Phases, pr)
		r.BusyNs += busy
		r.WallNs += p.wall[ph]
		r.StallNs += p.stall[ph]
		idle += p.idle[ph]
	}
	if denom := int64(p.shards) * r.WallNs; denom > 0 {
		r.IdleFraction = float64(idle) / float64(denom)
	}
	for s := range p.phase {
		var busy int64
		for _, ns := range p.phase[s] {
			busy += ns
		}
		share := 0.0
		if r.BusyNs > 0 {
			share = float64(busy) / float64(r.BusyNs)
		}
		r.HotShards = append(r.HotShards, EngineShardReport{Shard: s, BusyNs: busy, Share: share})
	}
	sort.SliceStable(r.HotShards, func(i, j int) bool {
		return r.HotShards[i].BusyNs > r.HotShards[j].BusyNs
	})
	if len(r.HotShards) > hotShardsK {
		r.HotShards = r.HotShards[:hotShardsK]
	}
	r.RequestMatrix = unflatten(p.req, p.shards)
	r.GrantMatrix = unflatten(p.grant, p.shards)
	for src := 0; src < p.shards; src++ {
		for dst := 0; dst < p.shards; dst++ {
			if src == dst {
				continue
			}
			r.CrossShardRequests += p.req[src*p.shards+dst]
			r.CrossShardGrants += p.grant[src*p.shards+dst]
		}
	}
	r.MsgEffects, r.NodeEffects, r.MergeNs = p.msgFx, p.nodeFx, p.merge
	r.SuggestedShards, r.Notes = suggestShards(p.shards, r.IdleFraction, r.StallNs, r.WallNs)
	return r
}

// unflatten turns a row-major s×s slice into a matrix.
func unflatten(flat []int64, s int) [][]int64 {
	m := make([][]int64, s)
	for i := range m {
		m[i] = append([]int64(nil), flat[i*s:(i+1)*s]...)
	}
	return m
}

// shardingNote is what every measurement so far says about the parallel
// engine; a report that suggests a shard count says it too.
const shardingNote = "sharding has not beaten 1 shard on any measured machine class (BENCH_shards.json)"

// suggestShards reads the imbalance: a single shard has nothing to
// rebalance; workers idle more than a quarter of the time → the partition
// is too fine (or too skewed) for the work, halve it; anything else keeps
// the current count. It never suggests growing.
func suggestShards(shards int, idleFrac float64, stallNs, wallNs int64) (int, []string) {
	if shards == 1 {
		return 1, []string{"single-shard run: no barrier or mailbox costs to profile; FLEXSIM_SHARDS=N selects the parallel engine, but " + shardingNote}
	}
	notes := []string{shardingNote}
	if idleFrac > 0.25 {
		notes = append(notes, fmt.Sprintf(
			"workers idle %.0f%% of barrier time: partition too fine for the offered work", idleFrac*100))
		return shards / 2, notes
	}
	if wallNs > 0 && float64(stallNs)/float64(wallNs) > 0.2 {
		notes = append(notes, fmt.Sprintf(
			"barrier stall is %.0f%% of wall time: shard load is skewed (consider different shard boundaries)",
			float64(stallNs)/float64(wallNs)*100))
	}
	return shards, notes
}

// WriteJSON renders the report as indented JSON.
func (r *EngineReport) WriteJSON(w io.Writer) error {
	b, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	_, err = w.Write(append(b, '\n'))
	return err
}

// WriteText renders the human-readable imbalance report.
func (r *EngineReport) WriteText(w io.Writer) error {
	fmt.Fprintf(w, "engine profile: %d run(s), %d shard(s), %d cycles\n", r.Runs, r.Shards, r.Cycles)
	for _, n := range r.Notes {
		fmt.Fprintf(w, "  note: %s\n", n)
	}
	if r.Runs == 0 {
		return nil
	}
	fmt.Fprintf(w, "  %-14s %12s %12s %12s %7s\n", "phase", "busy", "wall", "stall", "idle")
	for _, ph := range r.Phases {
		fmt.Fprintf(w, "  %-14s %12s %12s %12s %6.1f%%\n",
			ph.Phase, fmtNs(ph.BusyNs), fmtNs(ph.WallNs), fmtNs(ph.StallNs), ph.IdleFraction*100)
	}
	fmt.Fprintf(w, "  %-14s %12s %12s %12s %6.1f%%\n",
		"total", fmtNs(r.BusyNs), fmtNs(r.WallNs), fmtNs(r.StallNs), r.IdleFraction*100)
	fmt.Fprintf(w, "  hottest shards:")
	for _, s := range r.HotShards {
		fmt.Fprintf(w, " #%d %.1f%%", s.Shard, s.Share*100)
	}
	fmt.Fprintln(w)
	fmt.Fprintf(w, "  cross-shard: %d requests, %d grants; effects merged: %d msg + %d node in %s\n",
		r.CrossShardRequests, r.CrossShardGrants, r.MsgEffects, r.NodeEffects, fmtNs(r.MergeNs))
	fmt.Fprintf(w, "  suggested shard count: %d\n", r.SuggestedShards)
	return nil
}

// fmtNs renders nanoseconds in the largest unit that keeps 3+ digits.
func fmtNs(ns int64) string {
	switch {
	case ns >= 1e9:
		return fmt.Sprintf("%.2fs", float64(ns)/1e9)
	case ns >= 1e6:
		return fmt.Sprintf("%.1fms", float64(ns)/1e6)
	case ns >= 1e3:
		return fmt.Sprintf("%.1fµs", float64(ns)/1e3)
	default:
		return fmt.Sprintf("%dns", ns)
	}
}
