// Package repro_test is the benchmark harness: one testing.B benchmark per
// table and figure of the paper's evaluation, plus microbenchmarks of the
// compression primitives and the simulator core.
//
// Each BenchmarkFigNN/TableN regenerates its exhibit end-to-end (all
// simulations included) at Small scale on a 4-SM device, and reports the
// exhibit's headline number as a custom metric. The figure-quality runs use
// `go run ./cmd/warpedbench -exp all` at medium scale.
package repro_test

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"testing"

	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/kernels"
	"repro/internal/regfile"
	"repro/internal/sim"
	"repro/warped"
)

// benchRunner builds the Small-scale, 4-SM sequential runner the harness
// uses so that one exhibit regeneration stays around a second.
func benchRunner(b *testing.B) *experiments.Runner {
	b.Helper()
	base := sim.DefaultConfig()
	base.NumSMs = 4
	r, err := experiments.New(context.Background(),
		experiments.WithScale(kernels.Small),
		experiments.WithParallelism(1),
		experiments.WithBaseConfig(base))
	if err != nil {
		b.Fatal(err)
	}
	return r
}

// benchExhibit regenerates one exhibit per iteration and reports `metric`
// extracted from the resulting table.
func benchExhibit(b *testing.B, id string, metricName string, metric func(*experiments.Table) float64) {
	b.Helper()
	b.ReportAllocs()
	var last float64
	for i := 0; i < b.N; i++ {
		tab, err := benchRunner(b).Run(id)
		if err != nil {
			b.Fatal(err)
		}
		if metric != nil {
			last = metric(tab)
		}
	}
	if metric != nil && metricName != "" && !math.IsNaN(last) {
		b.ReportMetric(last, metricName)
	}
}

// avgCol returns the named column's value in the AVG row.
func avgCol(tab *experiments.Table, col string) float64 {
	ci := -1
	for i, c := range tab.Columns {
		if c == col {
			ci = i
			break
		}
	}
	if ci < 0 {
		return math.NaN()
	}
	for _, row := range tab.Rows {
		if row.Label == "AVG" {
			return row.Values[ci]
		}
	}
	return math.NaN()
}

func BenchmarkTable1(b *testing.B) {
	benchExhibit(b, "table1", "", nil)
}

func BenchmarkTable2(b *testing.B) {
	benchExhibit(b, "table2", "", nil)
}

func BenchmarkTable3(b *testing.B) {
	benchExhibit(b, "table3", "", nil)
}

func BenchmarkFig2(b *testing.B) {
	benchExhibit(b, "fig2", "nondiv-random-frac", func(t *experiments.Table) float64 {
		return avgCol(t, "nd-random")
	})
}

func BenchmarkFig3(b *testing.B) {
	benchExhibit(b, "fig3", "nondiv-ratio", func(t *experiments.Table) float64 {
		return avgCol(t, "non-divergent")
	})
}

func BenchmarkFig5(b *testing.B) {
	benchExhibit(b, "fig5", "best-is-4-0-frac", func(t *experiments.Table) float64 {
		return avgCol(t, "<4,0>")
	})
}

func BenchmarkFig8(b *testing.B) {
	benchExhibit(b, "fig8", "comp-ratio-nondiv", func(t *experiments.Table) float64 {
		return avgCol(t, "non-divergent")
	})
}

func BenchmarkFig9(b *testing.B) {
	benchExhibit(b, "fig9", "wc-energy-norm", func(t *experiments.Table) float64 {
		return avgCol(t, "wc-total")
	})
}

func BenchmarkFig10(b *testing.B) {
	benchExhibit(b, "fig10", "", nil)
}

func BenchmarkFig11(b *testing.B) {
	benchExhibit(b, "fig11", "dummy-mov-frac", func(t *experiments.Table) float64 {
		return avgCol(t, "mov-fraction")
	})
}

func BenchmarkFig12(b *testing.B) {
	benchExhibit(b, "fig12", "compressed-frac-nondiv", func(t *experiments.Table) float64 {
		return avgCol(t, "non-divergent")
	})
}

func BenchmarkFig13(b *testing.B) {
	benchExhibit(b, "fig13", "norm-cycles", func(t *experiments.Table) float64 {
		return avgCol(t, "normalized-cycles")
	})
}

func BenchmarkFig14(b *testing.B) {
	benchExhibit(b, "fig14", "lrr-energy-norm", func(t *experiments.Table) float64 {
		return avgCol(t, "lrr")
	})
}

func BenchmarkFig15(b *testing.B) {
	benchExhibit(b, "fig15", "only40-ratio", func(t *experiments.Table) float64 {
		return avgCol(t, "<4,0>")
	})
}

func BenchmarkFig16(b *testing.B) {
	benchExhibit(b, "fig16", "only40-energy-norm", func(t *experiments.Table) float64 {
		return avgCol(t, "<4,0>")
	})
}

func BenchmarkFig17(b *testing.B) {
	benchExhibit(b, "fig17", "energy-at-2.5x-unit", func(t *experiments.Table) float64 {
		return avgCol(t, "2.5x")
	})
}

func BenchmarkFig18(b *testing.B) {
	benchExhibit(b, "fig18", "energy-at-2.5x-bank", func(t *experiments.Table) float64 {
		return avgCol(t, "2.5x")
	})
}

func BenchmarkFig19(b *testing.B) {
	benchExhibit(b, "fig19", "energy-at-100pct-wire", func(t *experiments.Table) float64 {
		return avgCol(t, "100%")
	})
}

func BenchmarkFig20(b *testing.B) {
	benchExhibit(b, "fig20", "cycles-at-8cy-comp", func(t *experiments.Table) float64 {
		return avgCol(t, "8cy")
	})
}

func BenchmarkFig21(b *testing.B) {
	benchExhibit(b, "fig21", "cycles-at-8cy-decomp", func(t *experiments.Table) float64 {
		return avgCol(t, "8cy")
	})
}

// --- Parallel engine scaling ---

// benchSuite regenerates fig9 (every benchmark under both the warped and
// the baseline configuration — 16 simulations) at Medium scale with the
// given worker-pool width. Each iteration builds a fresh runner so nothing
// is served from the memo cache.
func benchSuite(b *testing.B, parallelism int) {
	b.Helper()
	b.ReportAllocs()
	base := sim.DefaultConfig()
	base.NumSMs = 4
	for i := 0; i < b.N; i++ {
		r, err := experiments.New(context.Background(),
			experiments.WithScale(kernels.Medium),
			experiments.WithBenchmarks("backprop", "bfs", "hotspot", "kmeans", "lud", "nw", "pathfinder", "srad"),
			experiments.WithParallelism(parallelism),
			experiments.WithBaseConfig(base))
		if err != nil {
			b.Fatal(err)
		}
		if _, err := r.Run("fig9"); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSuiteSequential is the parallel-speedup reference point.
func BenchmarkSuiteSequential(b *testing.B) { benchSuite(b, 1) }

// BenchmarkSuiteParallel runs the same workload across one worker per CPU.
// Compare against BenchmarkSuiteSequential with benchstat; on a machine
// with 4+ cores the wall-clock ratio should exceed 2x (the 16 jobs are
// independent and the simulator is CPU-bound).
func BenchmarkSuiteParallel(b *testing.B) { benchSuite(b, runtime.GOMAXPROCS(0)) }

// --- Execute-once / replay-N ---

// benchConfigSweep runs one benchmark under 8 distinct configurations —
// the shape of every design-space figure — either executing each config
// from scratch or recording the functional front-end once and replaying
// it into the other seven timing configurations.
func benchConfigSweep(b *testing.B, recordReplay bool) {
	b.Helper()
	base := sim.DefaultConfig()
	base.NumSMs = 4
	var cfgs []sim.Config
	for _, lat := range []int{1, 2, 4, 8} {
		c := base
		c.CompressLatency = lat
		cfgs = append(cfgs, c)
		c = base
		c.DecompressLatency = lat
		cfgs = append(cfgs, c)
	}
	bench, ok := kernels.ByName("pathfinder")
	if !ok {
		b.Fatal("pathfinder benchmark missing")
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		eng := experiments.NewEngine(context.Background(), experiments.EngineConfig{
			Parallelism:  1,
			Scale:        kernels.Small,
			RecordReplay: recordReplay,
		})
		for _, c := range cfgs {
			if _, err := eng.Run(bench, c); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// BenchmarkConfigSweepExecute is the execute-every-config reference point
// for the record/replay speedup (compare with benchstat). On a 2-core Intel
// Xeon the replay sweep measured ~1.2x faster (73–76 ms vs 59–67 ms per
// sweep): replay skips the functional front-end, and the cycle-accurate
// back-end both modes share dominates (DESIGN.md §15).
func BenchmarkConfigSweepExecute(b *testing.B) { benchConfigSweep(b, false) }

// BenchmarkConfigSweepRecordReplay runs the same 8-config sweep through
// the execute-once / replay-N path.
func BenchmarkConfigSweepRecordReplay(b *testing.B) { benchConfigSweep(b, true) }

// --- Microbenchmarks of the primitives underlying every figure ---

// BenchmarkBDICompress measures the software model of the compressor's
// choice logic on an affine (stride-1) register.
func BenchmarkBDICompress(b *testing.B) {
	var w warped.WarpReg
	for i := range w {
		w[i] = uint32(1000 + i)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if warped.ChooseEncoding(&w) != warped.Enc41 {
			b.Fatal("wrong encoding")
		}
	}
}

// BenchmarkBDIRoundTrip measures full byte-level compress + decompress on
// the allocation-free path (CompressInto with a reused buffer).
func BenchmarkBDIRoundTrip(b *testing.B) {
	var w warped.WarpReg
	for i := range w {
		w[i] = uint32(3 * i) // deltas to the single base stay within 1 byte
	}
	data := w.Bytes()
	p := warped.BDIParams{Base: 4, Delta: 1}
	out := make([]byte, len(data))
	comp := make([]byte, 0, p.CompressedSize())
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		var ok bool
		comp, ok = warped.CompressInto(comp[:0], data, p)
		if !ok {
			b.Fatal("not compressible")
		}
		if err := warped.Decompress(comp, p, out); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCompressor measures each registered backend's full hot path —
// Choose + CompressInto + Decompress — on a uniform warp vector every
// scheme compresses. The static scheme runs with a bound per-kernel table,
// exactly as the simulator binds one at launch.
func BenchmarkCompressor(b *testing.B) {
	var w core.WarpReg
	for i := range w {
		w[i] = 7
	}
	for _, scheme := range warped.CompressionSchemes() {
		b.Run(scheme, func(b *testing.B) {
			comp, err := warped.NewCompressor(scheme)
			if err != nil {
				b.Fatal(err)
			}
			// Each backend runs under its own compression setting's policy.
			point, err := core.LookupCompression(scheme)
			if err != nil {
				b.Fatal(err)
			}
			if binder, ok := comp.(core.KernelTableBinder); ok {
				table := make([]core.Encoding, 8)
				for i := range table {
					table[i] = core.Enc40
				}
				binder.BindTable(table)
			}
			buf := make([]byte, 0, core.WarpBytes)
			var out core.WarpReg
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				e := comp.Choose(3, &w, point.Policy)
				if e == core.EncUncompressed {
					b.Fatal("uniform vector left uncompressed")
				}
				var ok bool
				buf, ok = comp.CompressInto(buf[:0], &w, e)
				if !ok {
					b.Fatal("CompressInto rejected the chosen class")
				}
				if err := comp.Decompress(buf, e, &out); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// benchRegfile drives the register file's per-access hot path: write-bank
// selection, bank counting, commit, and read-bank selection, cycling through
// every encoding so compressed and uncompressed placements both run.
func benchRegfile(b *testing.B, cfg regfile.Config) {
	b.Helper()
	f := regfile.New(cfg)
	const regsPerThread = 8
	if err := f.AllocWarp(0, regsPerThread); err != nil {
		b.Fatal(err)
	}
	encs := [...]core.Encoding{core.Enc40, core.EncUncompressed, core.Enc41, core.Enc42}
	var buf [regfile.BanksPerCluster]int
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		id := regfile.RegID(0, i%regsPerThread, regsPerThread)
		enc := encs[i%len(encs)]
		now := uint64(i)
		for _, bk := range f.WriteBanks(id, enc, 0xFFFFFFFF, true, buf[:0]) {
			f.BankReady(bk, now)
			f.CountWrite(bk, now)
		}
		f.CommitWrite(id, enc, true, now)
		for _, bk := range f.ReadBanks(id, 0xFFFFFFFF, buf[:0]) {
			f.CountRead(bk, now)
		}
		f.Tick(now)
	}
}

// BenchmarkRegfileAccess measures ReadBanks/WriteBanks/CommitWrite on a
// clean file with power gating (the warped configuration) and on a faulty
// file with RRCD redirection steering compressed writes to healthy banks.
func BenchmarkRegfileAccess(b *testing.B) {
	b.Run("clean", func(b *testing.B) {
		benchRegfile(b, regfile.Config{GatingEnabled: true, WakeupLatency: 10})
	})
	b.Run("rrcd-redirect", func(b *testing.B) {
		benchRegfile(b, regfile.Config{
			GatingEnabled:      true,
			WakeupLatency:      10,
			FaultyBanks:        []int{2, 11},
			RedirectCompressed: true,
		})
	})
}

// BenchmarkSimulatorThroughput measures raw simulation speed in
// cycles/second on the pathfinder workload.
func BenchmarkSimulatorThroughput(b *testing.B) {
	b.ReportAllocs()
	var cycles uint64
	for i := 0; i < b.N; i++ {
		cfg := warped.DefaultConfig()
		cfg.NumSMs = 4
		gpu, err := warped.NewGPU(cfg)
		if err != nil {
			b.Fatal(err)
		}
		bench, _ := warped.BenchmarkByName("pathfinder")
		inst, err := bench.Build(gpu.Mem(), warped.Small)
		if err != nil {
			b.Fatal(err)
		}
		res, err := gpu.Run(inst.Launch)
		if err != nil {
			b.Fatal(err)
		}
		cycles += res.Cycles
	}
	b.ReportMetric(float64(cycles)/b.Elapsed().Seconds(), "sim-cycles/s")
}

// BenchmarkGPUCycleSharded measures the epoch-barrier cycle loop on the
// full 15-SM device at 1, 4 and 8 SM shards. Results are byte-identical
// across the sub-benchmarks; only wall clock should move. Compare with
// benchstat — on a multi-core machine 8 shards should run the cycle loop
// several times faster than 1. ReportAllocs guards the zero-allocation
// steady state of the sharded step (commit logs and overlays are pooled).
func BenchmarkGPUCycleSharded(b *testing.B) {
	for _, shards := range []int{1, 4, 8} {
		b.Run(fmt.Sprintf("shards=%d", shards), func(b *testing.B) {
			b.ReportAllocs()
			var cycles uint64
			for i := 0; i < b.N; i++ {
				cfg := warped.DefaultConfig()
				cfg.SMParallel = shards
				gpu, err := warped.NewGPU(cfg)
				if err != nil {
					b.Fatal(err)
				}
				bench, _ := warped.BenchmarkByName("pathfinder")
				inst, err := bench.Build(gpu.Mem(), warped.Small)
				if err != nil {
					b.Fatal(err)
				}
				res, err := gpu.Run(inst.Launch)
				if err != nil {
					b.Fatal(err)
				}
				cycles += res.Cycles
			}
			b.ReportMetric(float64(cycles)/b.Elapsed().Seconds(), "sim-cycles/s")
		})
	}
}

// BenchmarkGEMM measures simulation throughput of the compute-dense GEMM
// tiling ladder, one sub-benchmark per variant. Beyond wall clock it
// reports the shared-memory serialization cycles per run — the bank model's
// headline number, which must fall monotonically along the ladder.
func BenchmarkGEMM(b *testing.B) {
	for _, variant := range []string{"gemm_naive", "gemm_block", "gemm_warp", "gemm_reg"} {
		b.Run(variant, func(b *testing.B) {
			b.ReportAllocs()
			var cycles, ser uint64
			for i := 0; i < b.N; i++ {
				cfg := warped.DefaultConfig()
				cfg.NumSMs = 4
				gpu, err := warped.NewGPU(cfg)
				if err != nil {
					b.Fatal(err)
				}
				bench, _ := warped.BenchmarkByName(variant)
				inst, err := bench.Build(gpu.Mem(), warped.Small)
				if err != nil {
					b.Fatal(err)
				}
				res, err := gpu.Run(inst.Launch)
				if err != nil {
					b.Fatal(err)
				}
				cycles += res.Cycles
				ser += res.Stats.SharedSerializationCycles
			}
			b.ReportMetric(float64(cycles)/b.Elapsed().Seconds(), "sim-cycles/s")
			b.ReportMetric(float64(ser)/float64(b.N), "shared-ser-cycles/run")
		})
	}
}
