package experiments

import (
	"fmt"
	"math"

	"repro/internal/core"
	"repro/internal/energy"
	"repro/internal/kernels"
	"repro/internal/regfile"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/valueprof"
)

// Table1 regenerates paper Table 1: the compressed size and register bank
// cost of every <base,delta> combination, and whether warped-compression
// uses it.
func (r *Runner) Table1() (*Table, error) {
	t := &Table{
		ID:      "table1",
		Title:   "Possible combinations of chunk size",
		Columns: []string{"base(B)", "delta(B)", "comp(B)", "banks", "used"},
		Notes:   "comp(B) = L_base + L_delta*(L_input/L_base - 1) for a 128-byte warp register (paper eq. 1)",
	}
	used := map[core.Params]bool{{Base: 4, Delta: 0}: true, {Base: 4, Delta: 1}: true, {Base: 4, Delta: 2}: true}
	for _, p := range core.AllParams {
		u := 0.0
		if used[p] {
			u = 1
		}
		t.AddRow(p.String(), float64(p.Base), float64(p.Delta), float64(p.CompressedSize()), float64(p.Banks()), u)
	}
	return t, nil
}

// Table2 prints the simulated microarchitecture (paper Table 2).
func (r *Runner) Table2() (*Table, error) {
	c := r.baseConfig()
	t := &Table{
		ID:      "table2",
		Title:   "GPU microarchitectural parameters",
		Columns: []string{"value"},
		Notes:   fmt.Sprintf("clock 1.4 GHz; warp scheduling policy: %s (Greedy-Then-Oldest default)", c.Scheduler),
	}
	t.AddRow("SMs / GPU", float64(c.NumSMs))
	t.AddRow("Warp Schedulers / SM", float64(c.SchedulersPerSM))
	t.AddRow("SIMT lane width", 32)
	t.AddRow("Max # Warps / SM", float64(c.MaxWarpsPerSM))
	t.AddRow("Max # Threads / SM", float64(c.MaxWarpsPerSM*32))
	t.AddRow("Register File Size (KB)", 128)
	t.AddRow("Max Registers / SM", float64(regfile.Capacity*32))
	t.AddRow("# Register Banks", regfile.NumBanks)
	t.AddRow("Bit Width / Bank", 128)
	t.AddRow("# Entries / Bank", regfile.EntriesPerBank)
	t.AddRow("# Compressors", float64(c.Compressors))
	t.AddRow("# Decompressors", float64(c.Decompressors))
	t.AddRow("Compression Latency (cycles)", float64(c.CompressLatency))
	t.AddRow("Decompression Latency (cycles)", float64(c.DecompressLatency))
	t.AddRow("Bank Wakeup Latency (cycles)", float64(c.BankWakeupLatency))
	return t, nil
}

// Table3 prints the energy model constants (paper Table 3).
func (r *Runner) Table3() (*Table, error) {
	p := energy.DefaultParams()
	t := &Table{
		ID:      "table3",
		Title:   "Estimated energy and power values (@45nm)",
		Columns: []string{"value"},
		Notes:   fmt.Sprintf("derived wire energy per 128-bit beat at 50%% activity: %.1f pJ/mm (paper: 9.6)", p.WireBeatPJ()),
	}
	t.AddRow("Operating Voltage (V)", p.VoltageV)
	t.AddRow("Wire Capacitance (fF/mm)", p.WireCapFFPerMM)
	t.AddRow("Access energy/bank (pJ)", p.BankAccessPJ)
	t.AddRow("Leakage power/bank (mW)", p.BankLeakMW)
	t.AddRow("Compression unit energy/activation (pJ)", p.CompActPJ)
	t.AddRow("Compression unit leakage power (mW)", p.CompLeakMW)
	t.AddRow("Decompression unit energy/activation (pJ)", p.DecompActPJ)
	t.AddRow("Decompression unit leakage power (mW)", p.DecompLeakMW)
	return t, nil
}

// Fig2 characterizes register writes into the four value-similarity bins,
// split by divergence phase (paper Fig 2).
func (r *Runner) Fig2() (*Table, error) {
	t := &Table{
		ID:    "fig2",
		Title: "Characterization of register values",
		Columns: []string{
			"nd-zero", "nd-128", "nd-32K", "nd-random",
			"dv-zero", "dv-128", "dv-32K", "dv-random",
		},
		Notes: "fraction of register writes per bin; paper: ~79% of non-divergent writes are not random",
	}
	err := r.forEach(r.cfgCharacterize(), func(b *kernels.Benchmark, res *sim.Result) error {
		nd := res.Stats.WriteBinFractions(stats.NonDivergent)
		dv := res.Stats.WriteBinFractions(stats.Divergent)
		vals := []float64{nd[0], nd[1], nd[2], nd[3], dv[0], dv[1], dv[2], dv[3]}
		if res.Stats.RegWrites[stats.Divergent] == 0 {
			for i := 4; i < 8; i++ {
				vals[i] = math.NaN()
			}
		}
		t.AddRow(b.Name, vals...)
		return nil
	})
	if err != nil {
		return nil, err
	}
	t.AddAverage()
	return t, nil
}

// Fig3 is the fraction of warp instructions executed without divergence.
func (r *Runner) Fig3() (*Table, error) {
	t := &Table{
		ID:      "fig3",
		Title:   "Ratio of non-diverged warp instructions",
		Columns: []string{"non-divergent"},
		Notes:   "paper average: 0.79",
	}
	err := r.forEach(r.cfgCharacterize(), func(b *kernels.Benchmark, res *sim.Result) error {
		t.AddRow(b.Name, res.Stats.NonDivergentRatio())
		return nil
	})
	if err != nil {
		return nil, err
	}
	t.AddAverage()
	return t, nil
}

// Fig5 shows which <base,delta> pair the full-BDI explorer picks per write.
func (r *Runner) Fig5() (*Table, error) {
	cols := make([]string, stats.NumExplorerChoices)
	for i := range cols {
		cols[i] = valueprof.ChoiceName(i)
	}
	t := &Table{
		ID:      "fig5",
		Title:   "Breakdown of <base,delta> values to achieve best compression ratio",
		Columns: cols,
		Notes:   "fraction of register writes; paper: 8-byte bases are rarely selected, motivating the <4,*> fixed choices",
	}
	err := r.forEach(r.cfgCharacterize(), func(b *kernels.Benchmark, res *sim.Result) error {
		var total uint64
		for _, c := range res.Stats.BDIChoices {
			total += c
		}
		vals := make([]float64, len(cols))
		for i, c := range res.Stats.BDIChoices {
			if total > 0 {
				vals[i] = float64(c) / float64(total)
			}
		}
		t.AddRow(b.Name, vals...)
		return nil
	})
	if err != nil {
		return nil, err
	}
	t.AddAverage()
	return t, nil
}

// Fig8 is the achievable compression ratio by divergence phase.
func (r *Runner) Fig8() (*Table, error) {
	t := &Table{
		ID:      "fig8",
		Title:   "Compression ratio",
		Columns: []string{"non-divergent", "divergent"},
		Notes:   "original banks / compressed banks per write; paper averages: 2.5 non-divergent, 1.3 divergent",
	}
	err := r.forEach(r.cfgWarped(), func(b *kernels.Benchmark, res *sim.Result) error {
		dv := res.Stats.CompressionRatio(stats.Divergent)
		if res.Stats.RegWrites[stats.Divergent] == 0 {
			dv = math.NaN()
		}
		t.AddRow(b.Name, res.Stats.CompressionRatio(stats.NonDivergent), dv)
		return nil
	})
	if err != nil {
		return nil, err
	}
	t.AddAverage()
	return t, nil
}

// Fig9 is the headline result: register file energy with and without
// warped-compression, broken down the way the paper stacks it. All values
// are normalized to the baseline total.
func (r *Runner) Fig9() (*Table, error) {
	t := &Table{
		ID:      "fig9",
		Title:   "Register file energy consumption",
		Columns: []string{"base-leak", "base-dyn", "wc-leak", "wc-dyn", "wc-comp", "wc-decomp", "wc-total"},
		Notes:   "normalized to baseline total; paper: 25% average total reduction (35% dynamic, 10% leakage)",
	}
	params := energy.DefaultParams()
	base := map[string]energy.Breakdown{}
	err := r.forEach(r.cfgBaseline(), func(b *kernels.Benchmark, res *sim.Result) error {
		base[b.Name] = energy.Compute(params, res.Energy)
		return nil
	})
	if err != nil {
		return nil, err
	}
	err = r.forEach(r.cfgWarped(), func(b *kernels.Benchmark, res *sim.Result) error {
		wc := energy.Compute(params, res.Energy)
		bl := base[b.Name]
		n := bl.TotalPJ()
		t.AddRow(b.Name,
			bl.LeakagePJ/n, bl.DynamicPJ/n,
			wc.LeakagePJ/n, wc.DynamicPJ/n, wc.CompressPJ/n, wc.DecompressPJ/n,
			wc.TotalPJ()/n)
		return nil
	})
	if err != nil {
		return nil, err
	}
	t.AddAverage()
	return t, nil
}

// Fig10 is the fraction of cycles each register bank spends power-gated,
// averaged over the benchmark suite (rows are banks, as in the paper).
func (r *Runner) Fig10() (*Table, error) {
	t := &Table{
		ID:      "fig10",
		Title:   "Portion of power-gated cycles for each bank",
		Columns: []string{"gated-fraction"},
		Notes:   "suite average per bank; banks are 4 clusters of 8 — gating grows toward higher banks within a cluster (compressed data packs into the lowest banks)",
	}
	var gated [regfile.NumBanks]float64
	n := 0
	err := r.forEach(r.cfgWarped(), func(b *kernels.Benchmark, res *sim.Result) error {
		for i := 0; i < regfile.NumBanks; i++ {
			if res.Stats.RF.Cycles > 0 {
				gated[i] += float64(res.Stats.RF.PerBankGatedCycles[i]) / float64(res.Stats.RF.Cycles)
			}
		}
		n++
		return nil
	})
	if err != nil {
		return nil, err
	}
	for i := 0; i < regfile.NumBanks; i++ {
		t.AddRow(fmt.Sprintf("bank%02d", i), gated[i]/float64(n))
	}
	return t, nil
}

// Fig11 is the dummy MOV instruction overhead.
func (r *Runner) Fig11() (*Table, error) {
	t := &Table{
		ID:      "fig11",
		Title:   "Portion of dummy MOV instructions",
		Columns: []string{"mov-fraction"},
		Notes:   "injected decompress-MOVs / all instructions; paper: below 2% everywhere",
	}
	err := r.forEach(r.cfgWarped(), func(b *kernels.Benchmark, res *sim.Result) error {
		t.AddRow(b.Name, res.Stats.DummyMovRatio())
		return nil
	})
	if err != nil {
		return nil, err
	}
	t.AddAverage()
	return t, nil
}

// Fig12 is the compressed-register census by phase.
func (r *Runner) Fig12() (*Table, error) {
	t := &Table{
		ID:      "fig12",
		Title:   "Portion of compressed registers",
		Columns: []string{"non-divergent", "divergent"},
		Notes:   "average fraction of written registers held compressed, sampled at writes; divergent column is n/a for never-diverging benchmarks (paper marks them N/A)",
	}
	err := r.forEach(r.cfgWarped(), func(b *kernels.Benchmark, res *sim.Result) error {
		nd, ok1 := res.Stats.CompressedRegFraction(stats.NonDivergent)
		dv, ok2 := res.Stats.CompressedRegFraction(stats.Divergent)
		if !ok1 {
			nd = math.NaN()
		}
		if !ok2 {
			dv = math.NaN()
		}
		t.AddRow(b.Name, nd, dv)
		return nil
	})
	if err != nil {
		return nil, err
	}
	t.AddAverage()
	return t, nil
}

// Fig13 is the execution time of warped-compression relative to baseline.
func (r *Runner) Fig13() (*Table, error) {
	t := &Table{
		ID:      "fig13",
		Title:   "Impact on execution time",
		Columns: []string{"normalized-cycles"},
		Notes:   "warped-compression cycles / baseline cycles; paper average: 1.001",
	}
	base := map[string]uint64{}
	err := r.forEach(r.cfgBaseline(), func(b *kernels.Benchmark, res *sim.Result) error {
		base[b.Name] = res.Cycles
		return nil
	})
	if err != nil {
		return nil, err
	}
	err = r.forEach(r.cfgWarped(), func(b *kernels.Benchmark, res *sim.Result) error {
		t.AddRow(b.Name, float64(res.Cycles)/float64(base[b.Name]))
		return nil
	})
	if err != nil {
		return nil, err
	}
	t.AddAverage()
	return t, nil
}

// Fig14 compares the energy reduction under GTO and LRR scheduling.
func (r *Runner) Fig14() (*Table, error) {
	t := &Table{
		ID:      "fig14",
		Title:   "Energy reduction: GTO and LRR warp schedulers",
		Columns: []string{"gto", "lrr"},
		Notes:   "warped-compression energy / same-scheduler baseline energy; paper: 25% (GTO) vs 26% (LRR) savings",
	}
	params := energy.DefaultParams()
	ratio := func(policy string) (map[string]float64, error) {
		base := map[string]float64{}
		if err := r.forEach(r.cfgScheduler(policy, false), func(b *kernels.Benchmark, res *sim.Result) error {
			base[b.Name] = energy.Compute(params, res.Energy).TotalPJ()
			return nil
		}); err != nil {
			return nil, err
		}
		out := map[string]float64{}
		if err := r.forEach(r.cfgScheduler(policy, true), func(b *kernels.Benchmark, res *sim.Result) error {
			out[b.Name] = energy.Compute(params, res.Energy).TotalPJ() / base[b.Name]
			return nil
		}); err != nil {
			return nil, err
		}
		return out, nil
	}
	gto, err := ratio("gto")
	if err != nil {
		return nil, err
	}
	lrr, err := ratio("lrr")
	if err != nil {
		return nil, err
	}
	benches, err := r.benchmarks()
	if err != nil {
		return nil, err
	}
	for _, b := range benches {
		t.AddRow(b.Name, gto[b.Name], lrr[b.Name])
	}
	t.AddAverage()
	return t, nil
}

// designPoints are the Fig 15/16 compression settings, one per column, in
// paper order.
var designPoints = []string{"bdi-40", "bdi-41", "bdi-42", "bdi"}

// Fig15 is the compression ratio achieved when restricting the compressor
// to a single parameter choice.
func (r *Runner) Fig15() (*Table, error) {
	t := &Table{
		ID:      "fig15",
		Title:   "Compression ratio for various compression parameters",
		Columns: []string{"<4,0>", "<4,1>", "<4,2>", "warped"},
		Notes:   "overall (both phases); paper: <4,0>-only (scalarization) is ~30% below warped-compression",
	}
	rows := map[string][]float64{}
	for i, name := range designPoints {
		err := r.forEach(r.cfgCompression(name), func(b *kernels.Benchmark, res *sim.Result) error {
			if rows[b.Name] == nil {
				rows[b.Name] = make([]float64, len(designPoints))
			}
			s := res.Stats
			orig := s.WriteOrigBanks[0] + s.WriteOrigBanks[1]
			comp := s.WriteCompBanks[0] + s.WriteCompBanks[1]
			ratio := 1.0
			if comp > 0 {
				ratio = float64(orig) / float64(comp)
			}
			rows[b.Name][i] = ratio
			return nil
		})
		if err != nil {
			return nil, err
		}
	}
	benches, err := r.benchmarks()
	if err != nil {
		return nil, err
	}
	for _, b := range benches {
		t.AddRow(b.Name, rows[b.Name]...)
	}
	t.AddAverage()
	return t, nil
}

// Fig16 is the register file energy under each single-choice policy.
func (r *Runner) Fig16() (*Table, error) {
	t := &Table{
		ID:      "fig16",
		Title:   "Energy consumption for various compression parameters",
		Columns: []string{"<4,0>", "<4,1>", "<4,2>", "warped"},
		Notes:   "normalized to no-compression baseline",
	}
	params := energy.DefaultParams()
	base := map[string]float64{}
	if err := r.forEach(r.cfgBaseline(), func(b *kernels.Benchmark, res *sim.Result) error {
		base[b.Name] = energy.Compute(params, res.Energy).TotalPJ()
		return nil
	}); err != nil {
		return nil, err
	}
	rows := map[string][]float64{}
	for i, name := range designPoints {
		err := r.forEach(r.cfgCompression(name), func(b *kernels.Benchmark, res *sim.Result) error {
			if rows[b.Name] == nil {
				rows[b.Name] = make([]float64, len(designPoints))
			}
			rows[b.Name][i] = energy.Compute(params, res.Energy).TotalPJ() / base[b.Name]
			return nil
		})
		if err != nil {
			return nil, err
		}
	}
	benches, err := r.benchmarks()
	if err != nil {
		return nil, err
	}
	for _, b := range benches {
		t.AddRow(b.Name, rows[b.Name]...)
	}
	t.AddAverage()
	return t, nil
}

// energySweep renders one design-space energy figure: warped-compression
// energy normalized to baseline while varying one energy.Params knob in both.
func (r *Runner) energySweep(id, title, notes string, cols []string, variants []energy.Params) (*Table, error) {
	t := &Table{ID: id, Title: title, Columns: cols, Notes: notes}
	type pair struct{ base, wc energy.Events }
	ev := map[string]*pair{}
	if err := r.forEach(r.cfgBaseline(), func(b *kernels.Benchmark, res *sim.Result) error {
		ev[b.Name] = &pair{base: res.Energy}
		return nil
	}); err != nil {
		return nil, err
	}
	if err := r.forEach(r.cfgWarped(), func(b *kernels.Benchmark, res *sim.Result) error {
		ev[b.Name].wc = res.Energy
		return nil
	}); err != nil {
		return nil, err
	}
	benches, err := r.benchmarks()
	if err != nil {
		return nil, err
	}
	for _, b := range benches {
		p := ev[b.Name]
		vals := make([]float64, len(variants))
		for i, params := range variants {
			vals[i] = energy.Compute(params, p.wc).TotalPJ() / energy.Compute(params, p.base).TotalPJ()
		}
		t.AddRow(b.Name, vals...)
	}
	t.AddAverage()
	return t, nil
}

// Fig17 scales compressor/decompressor activation energy (pessimistic view).
func (r *Runner) Fig17() (*Table, error) {
	var variants []energy.Params
	cols := []string{"1.0x", "1.5x", "2.0x", "2.5x"}
	for _, k := range []float64{1, 1.5, 2, 2.5} {
		p := energy.DefaultParams()
		p.UnitEnergyScale = k
		variants = append(variants, p)
	}
	return r.energySweep("fig17",
		"Energy consumption for various compression/decompression unit activation energy",
		"normalized to baseline; paper: still 14% savings at 2.5x", cols, variants)
}

// Fig18 scales register bank access energy (optimistic view).
func (r *Runner) Fig18() (*Table, error) {
	var variants []energy.Params
	cols := []string{"1.0x", "1.5x", "2.0x", "2.5x"}
	for _, k := range []float64{1, 1.5, 2, 2.5} {
		p := energy.DefaultParams()
		p.BankAccessScale = k
		variants = append(variants, p)
	}
	return r.energySweep("fig18",
		"Energy consumption for various per-bank access energy",
		"normalized to baseline; paper: 35% savings at 2.5x", cols, variants)
}

// Fig19 sweeps the wire activity factor.
func (r *Runner) Fig19() (*Table, error) {
	var variants []energy.Params
	cols := []string{"0%", "25%", "50%", "75%", "100%"}
	for _, k := range []float64{0, 0.25, 0.5, 0.75, 1} {
		p := energy.DefaultParams()
		p.WireActivity = k
		variants = append(variants, p)
	}
	return r.energySweep("fig19",
		"Impact of wire activity",
		"normalized to baseline at the same activity; paper: 31% savings at 100% activity", cols, variants)
}

// latencySweep renders Fig 20/21: execution time normalized to baseline for
// several compression or decompression latencies.
func (r *Runner) latencySweep(id, title string, cols []string, cfgs []sim.Config) (*Table, error) {
	t := &Table{
		ID: id, Title: title, Columns: cols,
		Notes: "cycles / no-compression baseline; paper: worst case +14% at 8-cycle latency",
	}
	base := map[string]uint64{}
	if err := r.forEach(r.cfgBaseline(), func(b *kernels.Benchmark, res *sim.Result) error {
		base[b.Name] = res.Cycles
		return nil
	}); err != nil {
		return nil, err
	}
	rows := map[string][]float64{}
	for i, c := range cfgs {
		err := r.forEach(c, func(b *kernels.Benchmark, res *sim.Result) error {
			if rows[b.Name] == nil {
				rows[b.Name] = make([]float64, len(cfgs))
			}
			rows[b.Name][i] = float64(res.Cycles) / float64(base[b.Name])
			return nil
		})
		if err != nil {
			return nil, err
		}
	}
	benches, err := r.benchmarks()
	if err != nil {
		return nil, err
	}
	for _, b := range benches {
		t.AddRow(b.Name, rows[b.Name]...)
	}
	t.AddAverage()
	return t, nil
}

// Fig20 sweeps compression latency.
func (r *Runner) Fig20() (*Table, error) {
	return r.latencySweep("fig20", "Execution time variation with increased compression latency",
		[]string{"2cy", "4cy", "8cy"},
		[]sim.Config{r.cfgCompLatency(2), r.cfgCompLatency(4), r.cfgCompLatency(8)})
}

// Fig21 sweeps decompression latency.
func (r *Runner) Fig21() (*Table, error) {
	return r.latencySweep("fig21", "Execution time variation with increased decompression latency",
		[]string{"2cy", "4cy", "8cy"},
		[]sim.Config{r.cfgDecompLatency(2), r.cfgDecompLatency(4), r.cfgDecompLatency(8)})
}
