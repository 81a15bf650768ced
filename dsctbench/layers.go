package main

import "fmt"

// ratio divides, reading 0 when there is nothing to divide by.
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// metrics derives the per-layer metrics of a traced run. Every workload
// reports the full set; a layer the workload does not touch reads 0, which
// is itself the prediction that the layer does not matter there.
//
// Times are self times of the spans around each public call, averaged per
// traced request over every traced round. Counts come from the layers'
// public return values (lp.Solution, mip.Result, RefineProfile's sweep
// count, Engine.Stats deltas) over the count window only (round 0, or a
// streamer's leading rounds), which is the same in every run at one seed,
// so they repeat exactly. Per-unit costs divide
// the time of all traced rounds by the counts of the same rounds.
func (r *traceReport) metrics() []metric {
	self, spans := r.tracer.selfTimes()
	req := float64(r.traced)
	win := func(name string) float64 { return float64(r.window[name]) }
	winReq := win("requests")
	perReq := func(span string) float64 { return ratio(self[span], req) }
	perWin := func(name string) float64 { return ratio(win(name), winReq) }
	mb := func(name string) float64 { return ratio(r.tracer.sums[name], req) / (1 << 20) }
	perBuild := func(span string) float64 { return ratio(self[span], float64(spans[span])) }
	incSolve := r.tracer.sums["incremental.solve_s"]

	return []metric{
		{Name: "trace.overhead_ratio", Value: ratio(r.tracedSec, r.untracedSec) - 1, Unit: "ratio",
			Note: fmt.Sprintf("traced %.3f s vs untraced %.3f s over identical requests", r.tracedSec, r.untracedSec)},

		{Name: "core.naive_s", Value: perReq("core.naive"), Unit: "s", Note: "NaiveProfile per request"},
		{Name: "core.refine_s", Value: perReq("core.refine"), Unit: "s", Note: "RefineProfile per request"},
		{Name: "core.value_s", Value: perReq("core.value"), Unit: "s", Note: "Value per request"},
		{Name: "core.split_s", Value: perReq("core.split"), Unit: "s", Note: "Split per request"},
		{Name: "core.refine_sweeps", Value: perWin("core.refine_sweeps"), Unit: "count", Note: "per request, count window"},
		{Name: "core.alloc_mb", Value: mb("core.alloc_bytes"), Unit: "MB", Note: "allocated by core calls per request"},

		{Name: "approx.round_s", Value: perReq("approx.round"), Unit: "s", Note: "Round per request"},
		{Name: "schedule.validate_s", Value: perReq("schedule.validate"), Unit: "s", Note: "Validate per request"},

		{Name: "model.build_mip_s", Value: perBuild("model.build_mip"), Unit: "s", Note: fmt.Sprintf("BuildMIP per model, %d built in set-up", spans["model.build_mip"])},
		{Name: "model.build_fr_s", Value: perBuild("model.build_fr"), Unit: "s", Note: fmt.Sprintf("BuildFR per model, %d built in set-up", spans["model.build_fr"])},

		{Name: "lp.solve_s", Value: perReq("lp.solve"), Unit: "s", Note: "lp.Solve per request"},
		{Name: "lp.iterations", Value: perWin("lp.iterations"), Unit: "count", Note: "pivots per request, count window"},
		{Name: "lp.s_per_iteration", Value: ratio(self["lp.solve"], float64(r.all["lp.iterations"])), Unit: "s"},
		{Name: "lp.alloc_mb", Value: mb("lp.alloc_bytes"), Unit: "MB", Note: "allocated by lp.Solve per request"},

		{Name: "mip.solve_s", Value: perReq("mip.solve"), Unit: "s", Note: "mip.Solve per request"},
		{Name: "mip.nodes", Value: perWin("mip.nodes"), Unit: "count", Note: "per request, count window"},
		{Name: "mip.s_per_node", Value: ratio(self["mip.solve"], float64(r.all["mip.nodes"])), Unit: "s"},
		{Name: "mip.strong_branches", Value: perWin("mip.strong_branches"), Unit: "count", Note: "per request, count window"},
		{Name: "mip.cut_rounds", Value: perWin("mip.cut_rounds"), Unit: "count", Note: "per request, count window"},
		{Name: "mip.cuts", Value: perWin("mip.cuts"), Unit: "count", Note: "root pool per request, count window"},
		{Name: "mip.warm_node_ratio", Value: ratio(win("mip.warm_solves"), win("mip.warm_solves")+win("mip.cold_solves")), Unit: "ratio", Note: "warm / all node solves, count window"},
		{Name: "mip.inherit_fallback_ratio", Value: ratio(win("mip.inherit_fallbacks"), win("mip.warm_solves")), Unit: "ratio", Note: "fallbacks / warm solves, count window"},

		{Name: "incremental.post_s", Value: perReq("incremental.post"), Unit: "s", Note: "Engine.Post per event"},
		{Name: "incremental.apply_extract_s", Value: ratio(self["incremental.flush"]-incSolve, req), Unit: "s", Note: "Flush minus Stats.SolveTime per event"},
		{Name: "incremental.mip_s", Value: ratio(incSolve, req), Unit: "s", Note: "Stats.SolveTime per event"},
		{Name: "incremental.nodes_per_flush", Value: perWin("incremental.nodes"), Unit: "count", Note: "count window"},
		{Name: "incremental.warm_hit_ratio", Value: ratio(win("incremental.warm_resolves"), win("incremental.solves")), Unit: "ratio", Note: "count window"},
		{Name: "incremental.inherit_fallbacks", Value: win("incremental.inherit_fallbacks"), Unit: "count", Note: "round 0 total"},
		{Name: "incremental.cuts_carried", Value: perWin("incremental.cuts_carried"), Unit: "count", Note: "cut rows per flush, count window"},
		{Name: "incremental.capped_ratio", Value: perWin("incremental.capped"), Unit: "ratio", Note: "flushes stopped by the node cap, count window"},
		{Name: "incremental.dead_ratio", Value: ratio(win("incremental.cols_dead"), win("incremental.cols_created")), Unit: "ratio", Note: "dead / created columns at the end of each count-window stream"},
		{Name: "incremental.heap_mb", Value: r.tracer.peaks["incremental.heap_mb"], Unit: "MB", Note: "peak heap after a flush; every sample is in the spans file"},
	}
}
