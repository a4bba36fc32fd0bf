package experiments

import (
	"fmt"
	"math"

	"repro/internal/energy"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/valueprof"
)

// exhibits lists every regenerable table and figure, in paper order.
var exhibits = []entry{
	{id: "table1", title: "Possible combinations of chunk size",
		notes: "comp(B) = L_base + L_delta*(L_input/L_base - 1) for a 128-byte warp register (paper eq. 1)",
		run:   table1},
	{id: "table2", title: "GPU microarchitectural parameters",
		notes: "clock 1.4 GHz; warp scheduling policy: %s (Greedy-Then-Oldest default)",
		run:   table2},
	{id: "table3", title: "Estimated energy and power values (@45nm)",
		notes: "derived wire energy per 128-bit beat at 50%% activity: %.1f pJ/mm (paper: 9.6)",
		run:   table3},

	// Characterization (§3): value similarity and divergence of register
	// writes on the uncompressed register file.
	{id: "fig2", title: "Characterization of register values",
		notes: "fraction of register writes per bin; paper: ~79% of non-divergent writes are not random",
		cols:  append(writeBins("nd", stats.NonDivergent), writeBins("dv", stats.Divergent)...)},
	{id: "fig3", title: "Ratio of non-diverged warp instructions",
		notes: "paper average: 0.79",
		cols: []column{col("non-divergent", characterize, func(res *sim.Result) float64 {
			return res.Stats.NonDivergentRatio()
		})}},
	{id: "fig5", title: "Breakdown of <base,delta> values to achieve best compression ratio",
		notes: "fraction of register writes; paper: 8-byte bases are rarely selected, motivating the <4,*> fixed choices",
		cols:  bdiChoices()},

	// Evaluation (§6): warped-compression against the baseline.
	{id: "fig8", title: "Compression ratio",
		notes: "original banks / compressed banks per write; paper averages: 2.5 non-divergent, 1.3 divergent",
		cols: []column{
			col("non-divergent", warped, func(res *sim.Result) float64 {
				return res.Stats.CompressionRatio(stats.NonDivergent)
			}),
			col("divergent", warped, func(res *sim.Result) float64 {
				if res.Stats.RegWrites[stats.Divergent] == 0 {
					return math.NaN()
				}
				return res.Stats.CompressionRatio(stats.Divergent)
			}),
		}},
	// Fig 9 is the headline result, stacked the way the paper stacks it.
	{id: "fig9", title: "Register file energy consumption",
		notes: "normalized to baseline total; paper: 25% average total reduction (35% dynamic, 10% leakage)",
		cols: []column{
			energyShare("base-leak", func(bl, _ energy.Breakdown) float64 { return bl.LeakagePJ }),
			energyShare("base-dyn", func(bl, _ energy.Breakdown) float64 { return bl.DynamicPJ }),
			energyShare("wc-leak", func(_, wc energy.Breakdown) float64 { return wc.LeakagePJ }),
			energyShare("wc-dyn", func(_, wc energy.Breakdown) float64 { return wc.DynamicPJ }),
			energyShare("wc-comp", func(_, wc energy.Breakdown) float64 { return wc.CompressPJ }),
			energyShare("wc-decomp", func(_, wc energy.Breakdown) float64 { return wc.DecompressPJ }),
			energyShare("wc-total", func(_, wc energy.Breakdown) float64 { return wc.TotalPJ() }),
		}},
	{id: "fig10", title: "Portion of power-gated cycles for each bank",
		notes: "suite average per bank; banks are 4 clusters of 8 — gating grows toward higher banks within a cluster (compressed data packs into the lowest banks)",
		run:   fig10},
	{id: "fig11", title: "Portion of dummy MOV instructions",
		notes: "injected decompress-MOVs / all instructions; paper: below 2% everywhere",
		cols:  []column{col("mov-fraction", warped, dummyMovRatio)}},
	{id: "fig12", title: "Portion of compressed registers",
		notes: "average fraction of written registers held compressed, sampled at writes; divergent column is n/a for never-diverging benchmarks (paper marks them N/A)",
		cols: []column{
			compressedRegs("non-divergent", stats.NonDivergent),
			compressedRegs("divergent", stats.Divergent),
		}},
	{id: "fig13", title: "Impact on execution time",
		notes: "warped-compression cycles / baseline cycles; paper average: 1.001",
		cols:  []column{vs("normalized-cycles", warped, baseline, cycleRatio)}},
	{id: "fig14", title: "Energy reduction: GTO and LRR warp schedulers",
		notes: "warped-compression energy / same-scheduler baseline energy; paper: 25% (GTO) vs 26% (LRR) savings",
		cols:  []column{schedulerEnergy("gto"), schedulerEnergy("lrr")}},

	// Design space (§6.4): restricted compressor choices, pessimistic and
	// optimistic energy constants, and codec latency.
	{id: "fig15", title: "Compression ratio for various compression parameters",
		notes: "overall (both phases); paper: <4,0>-only (scalarization) is ~30% below warped-compression",
		cols: designPoints(func(name string, cfg setup) column {
			return col(name, cfg, writeRatio)
		})},
	{id: "fig16", title: "Energy consumption for various compression parameters",
		notes: "normalized to no-compression baseline",
		cols: designPoints(func(name string, cfg setup) column {
			return vs(name, cfg, baseline, energyVsBaseline)
		})},
	{id: "fig17", title: "Energy consumption for various compression/decompression unit activation energy",
		notes: "normalized to baseline; paper: still 14% savings at 2.5x",
		cols: energyColumns([]string{"1.0x", "1.5x", "2.0x", "2.5x"}, []float64{1, 1.5, 2, 2.5},
			func(p *energy.Params, k float64) { p.UnitEnergyScale = k })},
	{id: "fig18", title: "Energy consumption for various per-bank access energy",
		notes: "normalized to baseline; paper: 35% savings at 2.5x",
		cols: energyColumns([]string{"1.0x", "1.5x", "2.0x", "2.5x"}, []float64{1, 1.5, 2, 2.5},
			func(p *energy.Params, k float64) { p.BankAccessScale = k })},
	{id: "fig19", title: "Impact of wire activity",
		notes: "normalized to baseline at the same activity; paper: 31% savings at 100% activity",
		cols: energyColumns([]string{"0%", "25%", "50%", "75%", "100%"}, []float64{0, 0.25, 0.5, 0.75, 1},
			func(p *energy.Params, k float64) { p.WireActivity = k })},
	{id: "fig20", title: "Execution time variation with increased compression latency",
		notes: latencyNotes,
		cols:  latencyColumns(func(c *sim.Config, lat int) { c.CompressLatency = lat })},
	{id: "fig21", title: "Execution time variation with increased decompression latency",
		notes: latencyNotes,
		cols:  latencyColumns(func(c *sim.Config, lat int) { c.DecompressLatency = lat })},

	// Ablations beyond the paper's figures: they isolate the design choices
	// the paper makes (its §5.2 divergence policy, §5.3 gating, §5.1 unit
	// sizing) by simulating the alternatives it discusses, and compare
	// against the rival register-power designs it cites.
	//
	// abl1: the paper's store-uncompressed + dummy-MOV divergence policy
	// against the read-merge-recompress alternative it rejects for its
	// buffer cost (§5.2).
	{id: "abl1-divergence", title: "Divergence policy: dummy-MOV (paper) vs read-merge-recompress",
		notes: "energy and cycles normalized to no-compression baseline; recompress keeps registers compressed through divergence at the cost of a read-modify-write per divergent store",
		cols: []column{
			vs("mov-energy", warped, baseline, energyVsBaseline),
			vs("mov-time", warped, baseline, cycleRatio),
			col("mov-frac", warped, dummyMovRatio),
			vs("rec-energy", recompress, baseline, energyVsBaseline),
			vs("rec-time", recompress, baseline, cycleRatio),
		}},
	// abl2: warped-compression with and without bank power gating (§5.3).
	{id: "abl2-gating", title: "Contribution of bank power gating to warped-compression",
		notes: "normalized to no-compression baseline; the energy gap is the leakage the gating mechanism recovers",
		cols: []column{
			vs("gated-energy", warped, baseline, energyVsBaseline),
			vs("ungated-energy", ungated, baseline, energyVsBaseline),
			vs("gated-time", warped, baseline, cycleRatio),
			vs("ungated-time", ungated, baseline, cycleRatio),
		}},
	// abl3: compressor/decompressor pools around the paper's 2/4 choice
	// (§5.1 sizes them for 2 instructions per cycle).
	{id: "abl3-units", title: "Compressor/decompressor pool sizing",
		notes: "execution time normalized to no-compression baseline; the paper's 2 compressors + 4 decompressors match the dual-issue SM",
		cols:  []column{unitPool(1, 2), unitPool(2, 4), unitPool(4, 8)}},
	// abl4: the register file cache, the rival the paper's §7 cites
	// (Gebhart et al., ISCA 2011): a 6-entry per-warp write-back cache that
	// filters main-bank traffic without exploiting value similarity.
	{id: "abl4-rfc", title: "Warped-compression vs register file cache (6 entries/warp)",
		notes: "normalized to no-compression baseline; rfc-hit is the RFC read hit rate. The RFC filters bank accesses very effectively but pays leakage for its 36 KB of added storage (6 x 128 B x 48 warps, charged at the banks' per-KB rate) -- Gebhart's design needs a two-level scheduler to shrink it. Warped-compression reaches similar or better totals with a 0.3%-area compressor and also attacks bank leakage via gating",
		cols: []column{
			vs("wc-energy", warped, baseline, energyVsBaseline),
			vs("rfc-energy", rfc, baseline, energyVsBaseline),
			col("rfc-hit", rfc, func(res *sim.Result) float64 {
				reads, missed := res.Stats.RFCReads, res.Stats.RFCReadMisses
				if reads+missed > 0 {
					return float64(reads) / float64(reads+missed)
				}
				return 0
			}),
			vs("wc-time", warped, baseline, cycleRatio),
			vs("rfc-time", rfc, baseline, cycleRatio),
		}},
	// abl5: the other rival the paper's introduction cites, a drowsy
	// register file (Abdel-Majeed & Annavaram) that drops idle banks into
	// a data-retentive low-leakage state. Drowsy mode attacks only leakage;
	// warped-compression attacks both components, and the two compose.
	{id: "abl5-drowsy", title: "Warped-compression vs drowsy register file (and both combined)",
		notes: "normalized to no-compression baseline; drowsy banks retain data at 10% leakage after 100 idle cycles. drowsy-frac is the fraction of bank-cycles spent drowsy in the drowsy-only run",
		cols: []column{
			vs("wc-energy", warped, baseline, energyVsBaseline),
			vs("drowsy-energy", drowsy, baseline, energyVsBaseline),
			vs("wc+drowsy", with(warped, drowse), baseline, energyVsBaseline),
			col("drowsy-frac", drowsy, func(res *sim.Result) float64 {
				if res.Stats.RF.PoweredBankCycles > 0 {
					return float64(res.Stats.RF.DrowsyBankCycles) / float64(res.Stats.RF.PoweredBankCycles)
				}
				return 0
			}),
		}},

	// Robustness: behaviour under injected register-file faults.
	{id: "flt1-faults", title: "Kernel correctness and energy under injected register faults",
		notes: "2 stuck-at banks/SM, seed 42; ok=1 means output matched the host reference; " +
			"RRCD steers compressed writes into healthy banks",
		run: faultInjection},

	// The cmp1-schemes family compares the registered compression backends
	// (schemes/v1: bdi, fpc, static) head to head on the suite. The cs
	// token in cfg/v1 keeps the per-scheme results from ever aliasing.
	{id: "cmp1-schemes-ratio", title: "Compression ratio across registered schemes",
		notes: "original / compressed write banks (both phases); schemes/v1 registry order",
		cols: perScheme(func(name string) column {
			return col(name, scheme(name), writeRatio)
		})},
	{id: "cmp1-schemes-energy", title: "Register file energy across registered schemes",
		notes: "normalized to no-compression baseline; per-scheme unit energies (estimates for non-bdi)",
		cols:  perScheme(schemeEnergy)},
	{id: "cmp1-schemes-overhead", title: "Execution time across registered schemes",
		notes: "scheme cycles / baseline cycles at per-scheme codec latencies",
		cols:  perScheme(schemeTime)},

	// The gemm1-tiling family reads the GEMM ladder (gemmfig.go) through
	// every registered scheme, each variant normalized to its own baseline
	// so a column's trend isolates the tiling. Register tiling replaces
	// value-similar address registers with live accumulators, so the
	// ratio erodes as the ladder climbs.
	{id: "gemm1-tiling-ratio", title: "GEMM tiling ladder: compression ratio per scheme",
		notes:  "original / compressed write banks (both phases); rows in ladder order",
		ladder: true,
		// No value reads the baseline, but its pass keeps the family's
		// job order.
		cols: perScheme(func(name string) column {
			return vs(name, scheme(name), baseline, func(res, _ *sim.Result) float64 { return writeRatio(res) })
		})},
	{id: "gemm1-tiling-energy", title: "GEMM tiling ladder: register file energy per scheme",
		notes:  "normalized to each variant's no-compression baseline; per-scheme unit energies",
		ladder: true,
		cols:   perScheme(schemeEnergy)},
	{id: "gemm1-tiling-time", title: "GEMM tiling ladder: execution time per scheme",
		notes:  "scheme cycles / same variant's baseline cycles at per-scheme codec latencies",
		ladder: true,
		cols:   perScheme(schemeTime)},
	{id: "gemm1-tiling-shared", title: "GEMM tiling ladder: shared-memory bank behavior and register pressure",
		notes: "32-bank x 4B model (mem.AnalyzeShared); counts are absolute, baseline config",
		run:   gemmShared},
}

// writeBins is Fig 2's four value-similarity bins for one divergence
// phase; the divergent bins are n/a for a benchmark that never diverges.
func writeBins(prefix string, p stats.Phase) []column {
	var cols []column
	for i, bin := range []string{"zero", "128", "32K", "random"} {
		cols = append(cols, col(prefix+"-"+bin, characterize, func(res *sim.Result) float64 {
			if p == stats.Divergent && res.Stats.RegWrites[stats.Divergent] == 0 {
				return math.NaN()
			}
			return res.Stats.WriteBinFractions(p)[i]
		}))
	}
	return cols
}

// bdiChoices is Fig 5: the share of register writes for which the
// full-BDI explorer picks each <base,delta> pair.
func bdiChoices() []column {
	cols := make([]column, stats.NumExplorerChoices)
	for i := range cols {
		cols[i] = col(valueprof.ChoiceName(i), characterize, func(res *sim.Result) float64 {
			var total uint64
			for _, c := range res.Stats.BDIChoices {
				total += c
			}
			if total == 0 {
				return 0
			}
			return float64(res.Stats.BDIChoices[i]) / float64(total)
		})
	}
	return cols
}

// energyShare is one Fig 9 segment: a part of the baseline (bl) or
// warped-compression (wc) energy breakdown over the baseline total.
func energyShare(name string, part func(bl, wc energy.Breakdown) float64) column {
	return vs(name, warped, baseline, func(res, base *sim.Result) float64 {
		params := energy.DefaultParams()
		bl := energy.Compute(params, base.Energy)
		return part(bl, energy.Compute(params, res.Energy)) / bl.TotalPJ()
	})
}

func dummyMovRatio(res *sim.Result) float64 { return res.Stats.DummyMovRatio() }

// compressedRegs is Fig 12's census of one phase, n/a when the phase was
// never sampled.
func compressedRegs(name string, p stats.Phase) column {
	return col(name, warped, func(res *sim.Result) float64 {
		v, ok := res.Stats.CompressedRegFraction(p)
		if !ok {
			return math.NaN()
		}
		return v
	})
}

// schedulerEnergy is Fig 14's column for one warp scheduler: energy over
// the baseline under the same scheduler.
func schedulerEnergy(policy string) column {
	set := func(c *sim.Config) { c.Scheduler = policy }
	return vs(policy, with(warped, set), with(baseline, set), energyVsBaseline)
}

// designPoints builds the Fig 15/16 columns, one per single-choice
// compression setting plus full warped-compression, in paper order.
func designPoints(each func(name string, cfg setup) column) []column {
	return []column{
		each("<4,0>", compression("bdi-40")),
		each("<4,1>", compression("bdi-41")),
		each("<4,2>", compression("bdi-42")),
		each("warped", compression("bdi")),
	}
}

// energyColumns is a design-space energy figure: warped-compression energy
// over baseline energy, both costed with one energy.Params knob set to
// each column's value.
func energyColumns(names []string, ks []float64, set func(p *energy.Params, k float64)) []column {
	cols := make([]column, len(ks))
	for i, k := range ks {
		p := energy.DefaultParams()
		set(&p, k)
		cols[i] = vs(names[i], warped, baseline, energyRatio(p, p))
	}
	return cols
}

const latencyNotes = "cycles / no-compression baseline; paper: worst case +14% at 8-cycle latency"

// latencyColumns is Fig 20/21: execution time over the baseline with one
// codec latency at 2, 4 and 8 cycles.
func latencyColumns(set func(c *sim.Config, lat int)) []column {
	var cols []column
	for _, lat := range []int{2, 4, 8} {
		cfg := with(warped, func(c *sim.Config) { set(c, lat) })
		cols = append(cols, vs(fmt.Sprintf("%dcy", lat), cfg, baseline, cycleRatio))
	}
	return cols
}

// The ablations' alternative register files.
var (
	recompress = with(warped, func(c *sim.Config) { c.DivergencePolicy = "recompress" })
	ungated    = with(warped, func(c *sim.Config) { c.PowerGating = false })
	rfc        = with(baseline, func(c *sim.Config) { c.RFCEntries = 6 })
	drowsy     = with(baseline, drowse)
)

// drowse drops a bank into the drowsy state after 100 idle cycles.
func drowse(c *sim.Config) { c.DrowsyAfter = 100 }

// unitPool is one abl3 column: execution time over the baseline with
// comps compressors and decomps decompressors.
func unitPool(comps, decomps int) column {
	cfg := with(warped, func(c *sim.Config) { c.Compressors, c.Decompressors = comps, decomps })
	return vs(fmt.Sprintf("%dc/%dd", comps, decomps), cfg, baseline, cycleRatio)
}
