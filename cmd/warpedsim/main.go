// warpedsim runs a single benchmark (or a kernel from an assembly file) on
// the simulated GPU and prints a run summary: cycles, divergence,
// compression and energy statistics.
//
// Usage:
//
//	warpedsim -bench pathfinder
//	warpedsim -bench bfs -compression off -scheduler lrr -scale large
//	warpedsim -asm kernel.s -grid 30 -block 256
//	warpedsim -bench srad -compare -timeout 5m
//	warpedsim -bench bfs -inject seed=42,stuck=2,redirect
//	warpedsim -mode record -bench bfs -trace bfs.trace
//	warpedsim -mode replay -trace bfs.trace -compression off
//
// -mode selects the run mode: execute (the default full simulation),
// record (execute once and persist the functional execution as a
// warped.trace/v1 file), or replay (re-time a recorded trace under this
// invocation's configuration — byte-identical to executing it).
// -compression names the compression setting; off is the paper's baseline,
// which also turns bank power gating off. -compare also simulates that
// baseline, concurrently, and reports the deltas. Every mode runs on the
// experiment engine, as the other binaries do.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"sync"

	"repro/internal/cli"
	"repro/internal/experiments"
	"repro/internal/sim"
	"repro/warped"
)

func main() {
	f := cli.New("warpedsim", "medium", cli.Timeout|cli.Profile)
	var (
		bench    = flag.String("bench", "", "benchmark name (one of the 20-workload suite)")
		list     = flag.Bool("list", false, "list available benchmarks and exit")
		asmFile  = flag.String("asm", "", "run a kernel from an assembly file instead of a benchmark")
		grid     = flag.Int("grid", 30, "grid size in CTAs (with -asm)")
		block    = flag.Int("block", 256, "CTA size in threads (with -asm)")
		mode     = flag.String("mode", "execute", "run mode: execute, record, replay")
		traceOut = flag.String("trace", "", "trace file: output path with -mode record, input path with -mode replay")
		sched    = flag.String("scheduler", "gto", "warp scheduler: gto or lrr")
		sms      = flag.Int("sms", 15, "number of SMs")
		compLat  = flag.Int("complat", 2, "compression latency in cycles")
		decLat   = flag.Int("decomplat", 1, "decompression latency in cycles")
		compare  = flag.Bool("compare", false, "also run the no-compression baseline, concurrently, and report deltas")
		jsonOut  = flag.Bool("json", false, "emit the run result as versioned JSON ("+warped.ResultSchema+") instead of the text summary")
		inject   = flag.String("inject", "", "inject register-file faults, e.g. seed=42,stuck=2,transient=100,redirect (stuck = stuck-at banks/SM, transient = bit flips per million writes, redirect = RRCD remapping)")
	)
	f.Parse()
	defer f.Close()

	if *list {
		for _, b := range warped.Benchmarks() {
			fmt.Printf("%-11s [%s] %s\n", b.Name, b.Suite, b.Description)
		}
		return
	}

	ctx, cancel := f.Context()
	defer cancel()

	runMode := *mode
	switch runMode {
	case "execute", "record", "replay":
	default:
		f.Fatalf("unknown mode %q (have execute, record, replay)", runMode)
	}

	base := warped.DefaultConfig()
	base.NumSMs = *sms
	base.Scheduler = *sched
	base.CompressLatency = *compLat
	base.DecompressLatency = *decLat
	if *inject != "" {
		fc, err := warped.ParseFaultSpec(*inject)
		if err != nil {
			f.Fatalf("-inject: %v", err)
		}
		base.Faults = fc
	}
	ec, cfg, err := f.Engine(base)
	if err != nil {
		f.Fatalf("%v", err)
	}

	if runMode != "execute" {
		if *traceOut == "" {
			f.Fatalf("-mode %s requires -trace <file>", runMode)
		}
		if *compare {
			f.Fatalf("-compare is not supported with -mode %s", runMode)
		}
	}
	cfgs := []warped.Config{cfg}
	if *compare {
		bc := sim.Baseline(cfg)
		// RRCD redirection needs compression; the baseline keeps the same
		// stuck banks but cannot remap around them.
		bc.Faults.Redirect = false
		cfgs = append(cfgs, bc)
	}
	// The configurations simulate concurrently and split the cores.
	ec.Parallelism = len(cfgs)
	eng := experiments.NewEngine(ctx, ec)

	if runMode == "replay" {
		if *bench != "" || *asmFile != "" {
			f.Fatalf("-mode replay takes its kernel from the trace; drop -bench/-asm")
		}
		replayTrace(f, eng, cfg, *traceOut, *jsonOut)
		return
	}

	b, err := benchmark(*bench, *asmFile, *grid, *block)
	if err != nil {
		f.Fatalf("%v", err)
	}
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")

	if runMode == "record" {
		res, lt, err := eng.Record(b, cfg)
		if err != nil {
			f.Fatalf("%v (trace not written)", jobErr(err))
		}
		var meta warped.TraceMeta
		if *bench != "" {
			meta.Benchmark, meta.Scale = b.Name, ec.Scale.String()
		}
		if err := writeTrace(*traceOut, &warped.Trace{Meta: meta, Launches: []*warped.TraceLaunch{lt}}); err != nil {
			f.Fatalf("%v", err)
		}
		if *jsonOut {
			if err := enc.Encode(res); err != nil {
				f.Fatalf("%v", err)
			}
			return
		}
		printSummary(res)
		fmt.Printf("\ntrace               %s written to %s\n", warped.TraceSchema, *traceOut)
		return
	}

	results, errs := runAll(eng, b, cfgs)
	res := results[0]
	if err := errs[0]; err != nil {
		if cfg.Faults.Enabled() {
			// A corrupted address or loop register usually kills the
			// launch outright — that IS the experiment's result.
			f.Fatalf("kernel crashed under injected faults (%s): %v", cfg.Faults.String(), err)
		}
		f.Fatalf("%v", err)
	}
	if *jsonOut {
		if err := enc.Encode(res); err != nil {
			f.Fatalf("%v", err)
		}
	} else {
		printSummary(res)
	}
	if !*compare {
		return
	}

	bres := results[1]
	if err := errs[1]; err != nil {
		f.Fatalf("baseline: %v", err)
	}
	if *jsonOut {
		if err := enc.Encode(bres); err != nil {
			f.Fatalf("%v", err)
		}
		return
	}
	p := warped.DefaultEnergyParams()
	e := warped.ComputeEnergy(p, res.Energy)
	be := warped.ComputeEnergy(p, bres.Energy)
	fmt.Printf("\nvs baseline (no compression):\n")
	fmt.Printf("  execution time    %+0.2f%%\n", 100*(float64(res.Cycles)/float64(bres.Cycles)-1))
	fmt.Printf("  total RF energy   %-0.1f%% saved\n", 100*(1-e.TotalPJ()/be.TotalPJ()))
	fmt.Printf("  dynamic energy    %-0.1f%% saved\n", 100*(1-e.DynamicPJ/be.DynamicPJ))
	fmt.Printf("  leakage energy    %-0.1f%% saved\n", 100*(1-e.LeakagePJ/be.LeakagePJ))
}

// benchmark resolves -bench, or wraps the -asm kernel as an ad-hoc
// benchmark: it leaves device memory as the launch finds it, and its
// output check always passes. Each Build hands out its own copy of the
// kernel, because a GPU fills the kernel's ReconvPC table when it first
// runs it and -compare runs two GPUs at once.
func benchmark(name, asmFile string, grid, block int) (*warped.Benchmark, error) {
	switch {
	case name != "":
		b, ok := warped.BenchmarkByName(name)
		if !ok {
			return nil, fmt.Errorf("unknown benchmark %q (use -list)", name)
		}
		return b, nil
	case asmFile != "":
		src, err := os.ReadFile(asmFile)
		if err != nil {
			return nil, err
		}
		k, err := warped.Assemble(asmFile, string(src))
		if err != nil {
			return nil, err
		}
		return &warped.Benchmark{Name: asmFile, Build: func(*warped.Memory, warped.Scale) (*warped.BenchmarkInstance, error) {
			kc := *k
			return &warped.BenchmarkInstance{
				Launch: warped.Launch{Kernel: &kc, Grid: warped.Dim3{X: grid}, Block: warped.Dim3{X: block}},
				Check:  func(*warped.Memory) error { return nil },
			}, nil
		}}, nil
	}
	return nil, errors.New("need -bench or -asm (or -list)")
}

// runAll simulates b under every configuration concurrently on eng and
// returns the results in configuration order. Injected faults are
// expected to corrupt kernels, so under them a wrong output is reported,
// in configuration order, and its run still shown.
func runAll(eng *experiments.Engine, b *warped.Benchmark, cfgs []warped.Config) ([]*warped.Result, []error) {
	results := make([]*warped.Result, len(cfgs))
	errs := make([]error, len(cfgs))
	var wg sync.WaitGroup
	for i, c := range cfgs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			res, err := eng.Run(b, c)
			results[i], errs[i] = res, jobErr(err)
		}()
	}
	wg.Wait()
	for i, err := range errs {
		if errors.Is(err, warped.ErrOutputMismatch) && cfgs[i].Faults.Enabled() {
			fmt.Fprintf(os.Stderr, "warpedsim: output INCORRECT under injected faults: %v\n", err)
			errs[i] = nil
		}
	}
	return results, errs
}

// jobErr drops the engine's job identity from err: warpedsim runs one job
// per configuration, so the configuration signature adds nothing.
func jobErr(err error) error {
	var je *warped.JobError
	if errors.As(err, &je) {
		return je.Err
	}
	return err
}

func writeTrace(path string, tr *warped.Trace) error {
	file, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := warped.WriteTrace(file, tr); err != nil {
		file.Close()
		return err
	}
	return file.Close()
}

// replayTrace re-times every launch of a recorded trace under cfg. The
// trace is self-contained, so no benchmark build or output check happens;
// validity was anchored when the trace was recorded.
func replayTrace(f *cli.Flags, eng *experiments.Engine, cfg warped.Config, path string, jsonOut bool) {
	file, err := os.Open(path)
	if err != nil {
		f.Fatalf("%v", err)
	}
	tr, err := warped.ReadTrace(file)
	file.Close()
	if err != nil {
		f.Fatalf("-trace %s: %v", path, err)
	}
	if !jsonOut && tr.Meta.Benchmark != "" {
		fmt.Printf("replaying %s (%s scale, recorded as %s)\n\n", tr.Meta.Benchmark, tr.Meta.Scale, tr.Meta.Schema)
	}
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	for i, lt := range tr.Launches {
		res, err := eng.Replay(tr.Meta.Benchmark, lt, cfg)
		if err != nil {
			f.Fatalf("replay launch %d: %v", i+1, jobErr(err))
		}
		switch {
		case jsonOut:
			if err := enc.Encode(res); err != nil {
				f.Fatalf("%v", err)
			}
		default:
			if len(tr.Launches) > 1 {
				fmt.Printf("-- launch %d/%d --\n", i+1, len(tr.Launches))
			}
			printSummary(res)
		}
	}
}

func printSummary(res *warped.Result) {
	s := &res.Stats
	fmt.Printf("cycles              %d\n", res.Cycles)
	fmt.Printf("warp instructions   %d (%.1f%% divergent)\n", s.Instructions,
		100*(1-s.NonDivergentRatio()))
	fmt.Printf("dummy MOVs          %d (%.3f%% of instructions)\n", s.DummyMovs, 100*s.DummyMovRatio())
	fmt.Printf("register writes     %d non-divergent, %d divergent\n",
		s.RegWrites[warped.NonDivergent], s.RegWrites[warped.Divergent])
	fmt.Printf("compression ratio   %.2f non-divergent", s.CompressionRatio(warped.NonDivergent))
	if s.RegWrites[warped.Divergent] > 0 {
		fmt.Printf(", %.2f divergent", s.CompressionRatio(warped.Divergent))
	}
	fmt.Println()
	fmt.Printf("bank accesses       %d reads, %d writes\n", s.RF.BankReads, s.RF.BankWrites)
	fmt.Printf("comp/decomp acts    %d / %d\n", s.CompActs, s.DecompActs)
	gated := 1 - float64(s.RF.PoweredBankCycles)/float64(s.RF.Cycles*32)
	if !math.IsNaN(gated) {
		fmt.Printf("gated bank-cycles   %.1f%%\n", 100*gated)
	}
	e := warped.ComputeEnergy(warped.DefaultEnergyParams(), res.Energy)
	fmt.Printf("RF energy           %.1f uJ (dyn %.1f, leak %.1f, comp %.1f, decomp %.1f)\n",
		e.TotalPJ()/1e6, e.DynamicPJ/1e6, e.LeakagePJ/1e6, e.CompressPJ/1e6, e.DecompressPJ/1e6)
	if s.FaultStuckWrites > 0 || s.FaultTransientFlips > 0 || s.RF.RedirectedWrites > 0 {
		fmt.Printf("injected faults     %d stuck-bank writes (%d lanes corrupted), %d transient flips\n",
			s.FaultStuckWrites, s.FaultCorruptedLanes, s.FaultTransientFlips)
		fmt.Printf("RRCD redirections   %d compressed writes steered around faulty banks\n",
			s.RF.RedirectedWrites)
	}
}
