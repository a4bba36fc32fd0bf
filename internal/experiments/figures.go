package experiments

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/energy"
	"repro/internal/kernels"
	"repro/internal/regfile"
	"repro/internal/sim"
)

// table1 regenerates paper Table 1: the compressed size and register bank
// cost of every <base,delta> combination, and whether warped-compression
// uses it.
func table1(_ *Runner, t *Table) error {
	t.Columns = []string{"base(B)", "delta(B)", "comp(B)", "banks", "used"}
	used := map[core.Params]bool{{Base: 4, Delta: 0}: true, {Base: 4, Delta: 1}: true, {Base: 4, Delta: 2}: true}
	for _, p := range core.AllParams {
		u := 0.0
		if used[p] {
			u = 1
		}
		t.AddRow(p.String(), float64(p.Base), float64(p.Delta), float64(p.CompressedSize()), float64(p.Banks()), u)
	}
	return nil
}

// table2 prints the simulated microarchitecture (paper Table 2); its notes
// name the base's warp scheduler.
func table2(r *Runner, t *Table) error {
	c := r.baseConfig()
	t.Columns = []string{"value"}
	t.Notes = fmt.Sprintf(t.Notes, c.Scheduler)
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
	return nil
}

// table3 prints the energy model constants (paper Table 3); its notes
// give the derived wire energy per beat.
func table3(_ *Runner, t *Table) error {
	p := energy.DefaultParams()
	t.Columns = []string{"value"}
	t.Notes = fmt.Sprintf(t.Notes, p.WireBeatPJ())
	t.AddRow("Operating Voltage (V)", p.VoltageV)
	t.AddRow("Wire Capacitance (fF/mm)", p.WireCapFFPerMM)
	t.AddRow("Access energy/bank (pJ)", p.BankAccessPJ)
	t.AddRow("Leakage power/bank (mW)", p.BankLeakMW)
	t.AddRow("Compression unit energy/activation (pJ)", p.CompActPJ)
	t.AddRow("Compression unit leakage power (mW)", p.CompLeakMW)
	t.AddRow("Decompression unit energy/activation (pJ)", p.DecompActPJ)
	t.AddRow("Decompression unit leakage power (mW)", p.DecompLeakMW)
	return nil
}

// fig10 is the fraction of cycles each register bank spends power-gated,
// averaged over the benchmark suite (rows are banks, as in the paper).
func fig10(r *Runner, t *Table) error {
	t.Columns = []string{"gated-fraction"}
	benches, err := r.benchmarks()
	if err != nil {
		return err
	}
	var gated [regfile.NumBanks]float64
	n := 0
	err = r.forEach(benches, r.config(warped), func(b *kernels.Benchmark, res *sim.Result) error {
		for i := 0; i < regfile.NumBanks; i++ {
			if res.Stats.RF.Cycles > 0 {
				gated[i] += float64(res.Stats.RF.PerBankGatedCycles[i]) / float64(res.Stats.RF.Cycles)
			}
		}
		n++
		return nil
	})
	if err != nil {
		return err
	}
	for i := 0; i < regfile.NumBanks; i++ {
		t.AddRow(fmt.Sprintf("bank%02d", i), gated[i]/float64(n))
	}
	return nil
}
