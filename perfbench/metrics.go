package main

import "strings"

// metricDef names one reported metric and its unit. The two tables below
// are the metric lists of BENCHMARK.json (a test keeps them in step).
type metricDef struct {
	name, unit string
}

// endToEndMetrics are printed by untraced runs, every one on every
// workload (README.md says what each means per workload).
var endToEndMetrics = []metricDef{
	{"setup_s", "s"},
	{"wall_s", "s"},
	{"peak_rss_mb", "MB"},
	{"leak_mw", "mW"},
	{"area_um2", "um2"},
	{"jobs_per_s", "1/s"},
	{"job_p50_s", "s"},
	{"job_p90_s", "s"},
}

// perLayerMetrics are printed by traced runs, as totals per round of the
// workload except the ratios and sta.compile_cache_mb. A layer a workload
// does not run reads 0 there.
var perLayerMetrics = []metricDef{
	{"synth.map_s", "s"},
	{"place.place_s", "s"},
	{"sta.min_period_s", "s"},
	{"core.prepare_s", "s"},
	{"sim.activity_s", "s"},
	{"core.measure_s", "s"},
	{"sta.compiles", "count"},
	{"sta.compile_hit_ratio", "ratio"},
	{"sta.compile_cache_mb", "MB"},
	{"sta.analyze_s", "s"},
	{"assign.stage_s", "s"},
	{"assign.passes", "count"},
	{"assign.commits", "count"},
	{"assign.reverts", "count"},
	{"assign.kept_ratio", "ratio"},
	{"assign.score_s", "s"},
	{"assign.retime_s", "s"},
	{"assign.unwind_s", "s"},
	{"cts.stage_s", "s"},
	{"eco.hold_s", "s"},
	{"eco.hold_buffers", "count"},
	{"vgnd.convert_s", "s"},
	{"vgnd.holders", "count"},
	{"vgnd.switch_structure_s", "s"},
	{"vgnd.clusters", "count"},
	{"vgnd.reopt_s", "s"},
	{"vgnd.reopt_resized", "count"},
	{"core.mte_s", "s"},
	{"core.mte_buffers", "count"},
	{"mcmm.signoff_s", "s"},
	{"mcmm.hold_buffers", "count"},
	{"power.standby_s", "s"},
	{"engine.job_wait_s", "s"},
	{"engine.cache_hits", "count"},
	{"engine.cache_misses", "count"},
	{"engine.cache_hit_ratio", "ratio"},
	{"server.submit_s", "s"},
	{"server.queue_wait_s", "s"},
	{"server.run_s", "s"},
	{"server.overhead_s", "s"},
	{"server.fetch_s", "s"},
	{"verilog.parse_s", "s"},
	{"runtime.alloc_mb", "MB"},
	{"runtime.gc_cpu_s", "s"},
	{"runtime.gc_cycles", "count"},
}

// stageLayer attributes each pipeline stage's wall-clock to the per-layer
// metric it feeds.
var stageLayer = map[string]string{
	"dual-vth assignment":               "assign.stage_s",
	"HVT+MT(embedded) assignment":       "assign.stage_s",
	"HVT+MT(no VGND) assignment":        "assign.stage_s",
	"VGND conversion + holders":         "vgnd.convert_s",
	"switch-structure construction":     "vgnd.switch_structure_s",
	"MTE network":                       "core.mte_s",
	"CTS":                               "cts.stage_s",
	"hold ECO":                          "eco.hold_s",
	"measure":                           "core.measure_s",
	"post-route switch re-optimization": "vgnd.reopt_s",
	"sign-off":                          "mcmm.signoff_s",
}

// The two known faults a run may count as failed operations. Any other
// failure makes the run incorrect.
const (
	faultCrosstalk   = "crosstalk-abort"
	faultSetupSlack  = "negative-setup-slack"
	setupSlackPrefix = "finished with negative setup slack"
)

// classifyFault names the known fault behind a failure message, or "".
//
//   - Improved-SMT aborts in post-route switch re-optimization when a
//     cluster's VGND wire exceeds the crosstalk rule.
//   - A technique finishes with negative setup slack at the typical
//     corner (the benchmark's own timing check reports it).
func classifyFault(msg string) string {
	switch {
	case strings.Contains(msg, "post-route switch re-optimization") &&
		strings.Contains(msg, "fails post-route check") &&
		strings.Contains(msg, "(crosstalk rule)"):
		return faultCrosstalk
	case strings.HasPrefix(msg, setupSlackPrefix):
		return faultSetupSlack
	}
	return ""
}
