package main

import (
	"fmt"
	"sort"
)

// metricDef names one metric the benchmark prints. bench_test.go holds this
// table and BENCHMARK.json to the same names, units and bounds.
type metricDef struct {
	name   string
	unit   string
	better string  // "lower" or "higher"
	bound  float64 // end-to-end only: share of the parent's median it may worsen by
}

// endToEnd is what a user of a sweep sees. Times are host wall time scaled
// to the reference machine speed (calib.go). The bounds come from the spread
// of ten runs at ten seeds on the 2-vCPU reference box (README.md "Bounds"):
// 4-14% for the times however the host behaved, and 1-3% for peak RSS except
// on resweep-warm, where the collector's phase moves it by up to 10%. None
// is under a third of a narrower bound, so all have the contract's widest.
//
// failed_frac (points not settled done/cached ÷ points attempted) is printed
// with every run and must be 0; it is not in this list because the driver
// admits no metric that is always 0 — it travels as the report's
// attempted/failed counts instead.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"wall_s", "s", "lower", 0.25},
	{"sim_cycles_per_s", "cycles/s", "higher", 0.25},
	{"points_per_s", "points/s", "higher", 0.25},
	{"peak_rss_mib", "MiB", "lower", 0.25},
}

// perLayer is what the traced run attributes to single layers. Every traced
// run prints all of them for its own workload's spec (README.md says which
// end-to-end metric each should move, and where).
var perLayer = []metricDef{
	{"network.step_ns_per_cycle", "ns", "lower", 0},
	{"network.step_share", "ratio", "lower", 0},
	{"network.step_ns_per_active_msg", "ns", "lower", 0},
	{"network.phase_frac.drain_inject", "ratio", "lower", 0},
	{"network.phase_frac.alloc_plan", "ratio", "lower", 0},
	{"network.phase_frac.arb_eject", "ratio", "lower", 0},
	{"network.phase_frac.apply_release", "ratio", "lower", 0},
	{"network.profile_overhead_frac", "ratio", "lower", 0},
	{"network.shard2_speedup", "ratio", "higher", 0},
	{"network.stall_frac", "ratio", "lower", 0},
	{"network.xshard_transfers", "count", "lower", 0},
	{"network.blocked_frac", "ratio", "lower", 0},
	{"network.inject_ns_per_msg", "ns", "lower", 0},
	{"traffic.generate_ns_per_cycle", "ns", "lower", 0},
	{"traffic.share", "ratio", "lower", 0},
	{"routing.candidates_ns.dor", "ns", "lower", 0},
	{"routing.candidates_ns.tfar", "ns", "lower", 0},
	{"detect.tick_ns_per_cycle", "ns", "lower", 0},
	{"detect.tick_share", "ratio", "lower", 0},
	{"detect.passes", "count", "lower", 0},
	{"detect.gated_frac", "ratio", "higher", 0},
	{"detect.build_us_mean", "us", "lower", 0},
	{"detect.analyze_us_mean", "us", "lower", 0},
	{"detect.full_pass_us", "us", "lower", 0},
	{"detect.deadlocks", "count", "lower", 0},
	{"cwg.build_us", "us", "lower", 0},
	{"sim.delivered_msgs", "count", "higher", 0},
	{"sim.cycles", "count", "higher", 0},
	{"sim.new_runner_us", "us", "lower", 0},
	{"sim.self_ns_per_cycle", "ns", "lower", 0},
	{"sim.finish_us", "us", "lower", 0},
	{"sim.allocs_per_cycle", "count", "lower", 0},
	{"sim.alloc_bytes_per_cycle", "bytes", "lower", 0},
	{"sim.share", "ratio", "lower", 0},
	{"runner.key_us", "us", "lower", 0},
	{"runner.get_us", "us", "lower", 0},
	{"runner.put_us", "us", "lower", 0},
	{"runner.open_us_per_entry", "us", "lower", 0},
	{"runner.map_overhead_us_per_point", "us", "lower", 0},
	{"runner.store_bytes_per_point", "bytes", "lower", 0},
	{"runner.hit_frac", "ratio", "higher", 0},
	{"runner.share", "ratio", "lower", 0},
	{"specv1.decode_spec_us_per_point", "us", "lower", 0},
	{"specv1.encode_result_us", "us", "lower", 0},
	{"specv1.decode_result_us", "us", "lower", 0},
	{"specv1.write_results_us_per_point", "us", "lower", 0},
	{"specv1.result_bytes", "bytes", "lower", 0},
	{"specv1.share", "ratio", "lower", 0},
	{"core.point_results_us_per_point", "us", "lower", 0},
	{"core.share", "ratio", "lower", 0},
	{"sweepsvc.submit_ms", "ms", "lower", 0},
	{"sweepsvc.first_result_ms", "ms", "lower", 0},
	{"sweepsvc.point_ms_p50", "ms", "lower", 0},
	{"sweepsvc.point_ms_p90", "ms", "lower", 0},
	{"sweepsvc.results_fetch_ms", "ms", "lower", 0},
	{"sweepsvc.overhead_frac", "ratio", "lower", 0},
	{"sweepsvc.resubmit_us_per_point", "us", "lower", 0},
	{"sweepsvc.worker_imbalance", "ratio", "lower", 0},
	{"sweepsvc.retries", "count", "lower", 0},
	{"sweepsvc.journal_bytes_per_point", "bytes", "lower", 0},
	{"sweepsvc.share", "ratio", "lower", 0},
	{"other.share", "ratio", "lower", 0},
	{"trace_overhead_frac", "ratio", "lower", 0},
}

// exactCounts are the per-layer metrics that are simulated or protocol
// counts, not times: a speed-only change must leave them identical.
var exactCounts = map[string]bool{
	"detect.deadlocks": true, "detect.passes": true, "sim.delivered_msgs": true,
	"sim.cycles": true, "network.xshard_transfers": true, "runner.hit_frac": true,
	"sweepsvc.retries": true,
}

// metricSet collects values against a definition table and refuses names
// the table does not have, so the printed set cannot drift from it.
type metricSet struct {
	defs   []metricDef
	values map[string]float64
}

func newMetricSet(defs []metricDef) *metricSet {
	return &metricSet{defs: defs, values: map[string]float64{}}
}

func (ms *metricSet) set(name string, v float64) {
	for _, d := range ms.defs {
		if d.name == name {
			ms.values[name] = v
			return
		}
	}
	panic("bench: metric " + name + " is not in the table")
}

// report prints every metric of the table and returns them in the driver's
// form; a metric nobody set is a bug in the harness.
func (ms *metricSet) report() (map[string]metric, error) {
	out := make(map[string]metric, len(ms.defs))
	for _, d := range ms.defs {
		v, ok := ms.values[d.name]
		if !ok {
			return nil, fmt.Errorf("metric %s was not measured", d.name)
		}
		note := ""
		if exactCounts[d.name] {
			note = "  (exact)"
		}
		fmt.Printf("  %-36s %14.6g %s%s\n", d.name, v, d.unit, note)
		out[d.name] = metric{Value: v, Unit: d.unit}
	}
	return out, nil
}

// quantile returns the p-quantile of xs by linear interpolation between
// order statistics.
func quantile(xs []float64, p float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := p * float64(len(s)-1)
	i := int(pos)
	if i+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[i] + (pos-float64(i))*(s[i+1]-s[i])
}

func quartiles(xs []float64) (q1, med, q3 float64) {
	return quantile(xs, 0.25), quantile(xs, 0.5), quantile(xs, 0.75)
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }
