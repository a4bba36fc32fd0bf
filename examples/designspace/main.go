// Design-space exploration: the paper's §6.6-6.8 sweeps on a single
// workload. Compares the fixed single-choice compressors against
// warped-compression, and shows how compression/decompression latency eats
// into the (tiny) performance margin — the shapes of Figures 15, 16, 20, 21.
//
//	go run ./examples/designspace [benchmark]
package main

import (
	"fmt"
	"log"
	"os"

	"repro/warped"
)

func main() {
	bench := "backprop"
	if len(os.Args) > 1 {
		bench = os.Args[1]
	}
	b, ok := warped.BenchmarkByName(bench)
	if !ok {
		log.Fatalf("unknown benchmark %q", bench)
	}

	run := func(cfg warped.Config) *warped.Result {
		gpu, err := warped.NewGPU(cfg)
		if err != nil {
			log.Fatal(err)
		}
		inst, err := b.Build(gpu.Mem(), warped.Medium)
		if err != nil {
			log.Fatal(err)
		}
		res, err := gpu.Run(inst.Launch)
		if err != nil {
			log.Fatal(err)
		}
		if err := inst.Check(gpu.Mem()); err != nil {
			log.Fatal(err)
		}
		return res
	}

	base := run(warped.BaselineConfig())
	baseE := warped.ComputeEnergy(warped.DefaultEnergyParams(), base.Energy).TotalPJ()

	fmt.Printf("design space on %q (normalized to no-compression baseline)\n\n", bench)
	fmt.Printf("%-12s %12s %12s\n", "compressor", "comp.ratio", "energy")
	settings := []struct{ name, compression string }{
		{"<4,0> only", "bdi-40"},
		{"<4,1> only", "bdi-41"},
		{"<4,2> only", "bdi-42"},
		{"warped", "bdi"},
	}
	for _, m := range settings {
		cfg := warped.DefaultConfig()
		cfg.Compression = m.compression
		res := run(cfg)
		s := &res.Stats
		orig := s.WriteOrigBanks[warped.NonDivergent] + s.WriteOrigBanks[warped.Divergent]
		comp := s.WriteCompBanks[warped.NonDivergent] + s.WriteCompBanks[warped.Divergent]
		ratio := 1.0
		if comp > 0 {
			ratio = float64(orig) / float64(comp)
		}
		e := warped.ComputeEnergy(warped.DefaultEnergyParams(), res.Energy).TotalPJ()
		fmt.Printf("%-12s %12.2f %11.1f%%\n", m.name, ratio, 100*e/baseE)
	}

	fmt.Printf("\n%-22s %12s\n", "latency (comp/decomp)", "exec time")
	for _, lat := range []struct{ c, d int }{{2, 1}, {4, 2}, {8, 4}, {8, 8}} {
		cfg := warped.DefaultConfig()
		cfg.CompressLatency = lat.c
		cfg.DecompressLatency = lat.d
		res := run(cfg)
		fmt.Printf("%10d / %-9d %11.2f%%\n", lat.c, lat.d,
			100*float64(res.Cycles)/float64(base.Cycles))
	}
}
