package main

import (
	"sort"
	"strings"

	"repro/internal/stats"
)

// metricDef names one reported metric. The two lists below must match
// BENCHMARK.json at the repository root; the package test checks that.
type metricDef struct {
	name, unit, better string
}

// value is one metric reading and the number of samples behind it.
type value struct {
	v float64
	n int
}

// endToEnd are the metrics a user of the system sees, printed by every
// workload in an untraced run. A job is the workload's unit of work: one
// kernel execution (stall-execute), one engine simulation (dense-exhibits)
// or one cold-phase campaign job, submit to terminal event
// (serve-campaign).
var endToEnd = []metricDef{
	{"setup_s", "s", "lower"},
	{"wall_s", "s", "lower"},
	{"sim_insts_per_s", "1/s", "higher"},
	{"peak_rss_mb", "MB", "lower"},
	{"job_p50_ms", "ms", "lower"},
	{"job_p90_ms", "ms", "lower"},
}

// perLayer are the metrics of single layers, printed by every workload in a
// traced run. Durations are medians over the spans of one kind, counts are
// totals over the traced run, and the modelled counts are taken from the
// workload's canonical results, so they repeat exactly.
var perLayer = []metricDef{
	{"kernels.build_s", "s", "lower"},
	{"kernels.check_s", "s", "lower"},
	{"sim.run_s", "s", "lower"},
	{"sim.ns_per_sm_cycle", "ns", "lower"},
	{"sim.ns_per_inst", "ns", "lower"},
	{"sim.issue_util", "ratio", "higher"},
	{"sim.cycles", "count", "lower"},
	{"sim.warp_insts", "count", "lower"},
	{"sim.shards", "count", "higher"},
	{"sim.record_s", "s", "lower"},
	{"sim.replay_s", "s", "lower"},
	{"sim.replay_speedup", "x", "higher"},
	{"exectrace.write_ms", "ms", "lower"},
	{"exectrace.read_ms", "ms", "lower"},
	{"exectrace.bytes_per_inst", "B", "lower"},
	{"core.choose_ns.bdi", "ns", "lower"},
	{"core.choose_ns.fpc", "ns", "lower"},
	{"core.choose_ns.static", "ns", "lower"},
	{"core.reg_writes", "count", "lower"},
	{"core.comp_acts", "count", "lower"},
	{"core.decomp_acts", "count", "lower"},
	{"core.dummy_movs", "count", "lower"},
	{"core.comp_ratio", "ratio", "higher"},
	{"regfile.bank_reads", "count", "lower"},
	{"regfile.bank_writes", "count", "lower"},
	{"regfile.powered_bank_cycles", "count", "lower"},
	{"mem.l1_hit_ratio", "ratio", "higher"},
	{"mem.global_txns", "count", "lower"},
	{"mem.shared_ser_cycles", "count", "lower"},
	{"sim.stall_scoreboard", "count", "lower"},
	{"sim.stall_collector", "count", "lower"},
	{"sim.stall_compressor", "count", "lower"},
	{"sim.stall_wakeup", "count", "lower"},
	{"experiments.jobs", "count", "lower"},
	{"experiments.memo_hit_ratio", "ratio", "higher"},
	{"experiments.sim_busy_s", "s", "lower"},
	{"experiments.pool_util", "ratio", "higher"},
	{"jobs.queue_wait_ms", "ms", "lower"},
	{"jobs.run_ms", "ms", "lower"},
	{"jobs.cache_hit_ratio", "ratio", "higher"},
	{"jobs.store_hit_ratio", "ratio", "higher"},
	{"jobs.coalesced", "count", "higher"},
	{"jobs.rejected", "count", "lower"},
	{"server.submit_ms", "ms", "lower"},
	{"server.stream_ms", "ms", "lower"},
	{"server.result_bytes", "B", "lower"},
	{"cluster.home_hits", "count", "higher"},
	{"cluster.failovers", "count", "lower"},
	{"cluster.retries", "count", "lower"},
	{"store.open_ms", "ms", "lower"},
	{"store.writes", "count", "lower"},
	{"store.hits", "count", "higher"},
	{"store.bytes", "B", "lower"},
	{"store.quarantined", "count", "lower"},
	{"runtime.alloc_mb", "MB", "lower"},
	{"runtime.gc_cycles", "count", "lower"},
	{"runtime.gc_pause_ms", "ms", "lower"},
	{"trace.overhead_s", "s", "lower"},
	{"job_cold_p50_ms", "ms", "lower"},
	{"job_cold_p90_ms", "ms", "lower"},
	{"job_warm_p50_ms", "ms", "lower"},
	{"job_warm_p90_ms", "ms", "lower"},
	{"job_restart_p50_ms", "ms", "lower"},
	{"job_restart_p90_ms", "ms", "lower"},
	{"fail_frac", "ratio", "lower"},
}

// quantile interpolates linearly between the closest ranks; 0 when xs is
// empty.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func sum(xs []float64) float64 {
	var s float64
	for _, x := range xs {
		s += x
	}
	return s
}

// endToEndValues reduces a run to its end-to-end metrics. Pass metrics are
// medians over the untraced passes.
func endToEndValues(setups []float64, passes []passStat, t *tally) map[string]value {
	var walls, rates []float64
	for _, p := range passes {
		if !p.traced {
			walls = append(walls, p.wall.Seconds())
			rates = append(rates, float64(p.insts)/p.wall.Seconds())
		}
	}
	return map[string]value{
		"setup_s":         {median(setups), len(setups)},
		"wall_s":          {median(walls), len(walls)},
		"sim_insts_per_s": {median(rates), len(rates)},
		"peak_rss_mb":     {peakRSSMB(), 1},
		"job_p50_ms":      {quantile(t.jobsMS, 0.5), len(t.jobsMS)},
		"job_p90_ms":      {quantile(t.jobsMS, 0.9), len(t.jobsMS)},
	}
}

// modelled sums the counters of the canonical results. They are properties
// of the simulated design, not of the host, so they must repeat exactly.
func modelled(results []namedResult) map[string]float64 {
	var s stats.Stats
	var cycles, slots float64
	for _, r := range results {
		s.Add(&r.res.Stats)
		cycles += float64(r.res.Cycles)
		slots += float64(r.cfg.SchedulersPerSM*r.cfg.NumSMs) * float64(r.res.Cycles)
	}
	phases := func(a [stats.NumPhases]uint64) float64 {
		return float64(a[stats.NonDivergent] + a[stats.Divergent])
	}
	return map[string]float64{
		"sim.cycles":                  cycles,
		"sim.warp_insts":              float64(s.Instructions),
		"sim.issue_util":              ratio(float64(s.Instructions+s.DummyMovs), slots),
		"core.reg_writes":             phases(s.RegWrites),
		"core.comp_acts":              float64(s.CompActs),
		"core.decomp_acts":            float64(s.DecompActs),
		"core.dummy_movs":             float64(s.DummyMovs),
		"core.comp_ratio":             ratio(phases(s.WriteOrigBanks), phases(s.WriteCompBanks)),
		"regfile.bank_reads":          float64(s.RF.BankReads),
		"regfile.bank_writes":         float64(s.RF.BankWrites),
		"regfile.powered_bank_cycles": float64(s.RF.PoweredBankCycles),
		"mem.l1_hit_ratio":            ratio(float64(s.L1Hits), float64(s.L1Hits+s.L1Misses)),
		"mem.global_txns":             float64(s.GlobalTxns),
		"mem.shared_ser_cycles":       float64(s.SharedSerializationCycles),
		"sim.stall_scoreboard":        float64(s.StallScoreboard),
		"sim.stall_collector":         float64(s.StallCollector),
		"sim.stall_compressor":        float64(s.StallCompressor),
		"sim.stall_wakeup":            float64(s.StallWakeup),
	}
}

// layerValues reduces a traced run to its per-layer metrics. The cost per
// SM cycle and per instruction, and the replay speedup, come from the
// probe's direct executions, which run on probeShards SM shards.
func layerValues(rec *recorder, passes []passStat, results []namedResult, probeShards int, t *tally) map[string]value {
	v := map[string]value{}
	spans := func(metric, span string, scale float64) {
		xs := rec.durations(span)
		v[metric] = value{median(xs) * scale, len(xs)}
	}
	counted := func(metric string, x float64) { v[metric] = value{x, 1} }
	c := rec.count

	spans("kernels.build_s", "kernels.build", 1)
	spans("kernels.check_s", "kernels.check", 1)
	spans("sim.run_s", "sim.run", 1)
	probed := len(rec.durations("sim.replay"))
	v["sim.ns_per_sm_cycle"] = value{ratio(c("sim.run_ns"), c("sim.sm_cycles")), probed}
	v["sim.ns_per_inst"] = value{ratio(c("sim.run_ns"), c("sim.run_insts")), probed}
	counted("sim.shards", float64(probeShards))
	spans("sim.record_s", "sim.record", 1)
	spans("sim.replay_s", "sim.replay", 1)
	v["sim.replay_speedup"] = value{ratio(c("sim.run_ns"), c("sim.replay_ns")), probed}
	spans("exectrace.write_ms", "exectrace.write", 1e3)
	spans("exectrace.read_ms", "exectrace.read", 1e3)
	counted("exectrace.bytes_per_inst", ratio(c("exectrace.bytes"), c("exectrace.insts")))
	for _, d := range perLayer {
		if scheme, ok := strings.CutPrefix(d.name, "core.choose_ns."); ok {
			v[d.name] = value{ratio(c("core.choose_ns."+scheme), c("core.choose_calls."+scheme)), int(c("core.choose_calls." + scheme))}
		}
	}
	for name, x := range modelled(results) {
		v[name] = value{x, len(results)}
	}

	jobs := rec.durations("experiments.job")
	hits := c("experiments.cache_hits")
	counted("experiments.jobs", float64(len(jobs)))
	counted("experiments.memo_hit_ratio", ratio(hits, float64(len(jobs))+hits))
	counted("experiments.sim_busy_s", sum(jobs))
	counted("experiments.pool_util", ratio(sum(jobs), c("experiments.capacity_s")))

	spans("jobs.queue_wait_ms", "jobs.queue_wait", 1e3)
	spans("jobs.run_ms", "jobs.run", 1e3)
	counted("jobs.cache_hit_ratio", ratio(c("jobs.cache_hits"), c("jobs.cache_hits")+c("jobs.cache_misses")))
	counted("jobs.store_hit_ratio", ratio(c("jobs.store_hits"), c("jobs.cache_misses")))
	counted("jobs.coalesced", c("jobs.coalesced"))
	counted("jobs.rejected", c("jobs.rejected"))

	spans("server.submit_ms", "server.submit", 1e3)
	spans("server.stream_ms", "server.stream", 1e3)
	v["server.result_bytes"] = value{ratio(c("server.result_bytes"), c("server.results")), int(c("server.results"))}
	counted("cluster.home_hits", c("cluster.home_hits"))
	counted("cluster.failovers", c("cluster.failovers"))
	counted("cluster.retries", c("cluster.retries"))
	spans("store.open_ms", "store.open", 1e3)
	counted("store.writes", c("store.writes"))
	counted("store.hits", c("store.hits"))
	counted("store.bytes", c("store.bytes"))
	counted("store.quarantined", c("store.quarantined"))

	var alloc, gcs, pause, traced, untraced []float64
	for i, p := range passes {
		switch {
		case p.traced:
			alloc, gcs, pause = append(alloc, p.allocMB), append(gcs, p.gcCycles), append(pause, p.gcPauseMS)
			traced = append(traced, p.wall.Seconds())
		case i > 0: // the first pass warms the process up
			untraced = append(untraced, p.wall.Seconds())
		}
	}
	v["runtime.alloc_mb"] = value{median(alloc), len(alloc)}
	v["runtime.gc_cycles"] = value{median(gcs), len(gcs)}
	v["runtime.gc_pause_ms"] = value{median(pause), len(pause)}
	v["trace.overhead_s"] = value{median(traced) - median(untraced), len(traced) + len(untraced)}

	for _, ph := range []string{"cold", "warm", "restart"} {
		xs := rec.durations("job." + ph)
		v["job_"+ph+"_p50_ms"] = value{quantile(xs, 0.5) * 1e3, len(xs)}
		v["job_"+ph+"_p90_ms"] = value{quantile(xs, 0.9) * 1e3, len(xs)}
	}
	v["fail_frac"] = value{ratio(float64(t.failed), float64(t.attempted)), t.attempted}
	return v
}
