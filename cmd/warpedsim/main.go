// warpedsim runs a single benchmark (or a kernel from an assembly file) on
// the simulated GPU and prints a run summary: cycles, divergence,
// compression and energy statistics.
//
// Usage:
//
//	warpedsim -bench pathfinder
//	warpedsim -bench bfs -compression off -scheduler lrr -scale large
//	warpedsim -asm kernel.s -grid 30 -block 256
//	warpedsim -bench srad -compare -parallel -timeout 5m
//	warpedsim -bench bfs -inject seed=42,stuck=2,redirect
//	warpedsim -mode record -bench bfs -trace bfs.trace
//	warpedsim -mode replay -trace bfs.trace -compression off
//
// -mode selects the run mode: execute (the default full simulation),
// record (execute once and persist the functional execution as a
// warped.trace/v1 file), or replay (re-time a recorded trace under this
// invocation's configuration — byte-identical to executing it).
// -compression names the compression setting; off is the paper's baseline,
// which also turns bank power gating off.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"os/signal"
	"strings"

	"repro/internal/kernels"
	"repro/internal/prof"
	"repro/internal/version"
	"repro/warped"
)

func main() {
	var (
		bench    = flag.String("bench", "", "benchmark name (one of the 20-workload suite)")
		list     = flag.Bool("list", false, "list available benchmarks and exit")
		asmFile  = flag.String("asm", "", "run a kernel from an assembly file instead of a benchmark")
		grid     = flag.Int("grid", 30, "grid size in CTAs (with -asm)")
		block    = flag.Int("block", 256, "CTA size in threads (with -asm)")
		scale    = flag.String("scale", "medium", "benchmark scale: small, medium, large")
		mode     = flag.String("mode", "execute", "run mode: execute, record, replay")
		comp     = flag.String("compression", "bdi", "compression: "+strings.Join(warped.Compressions(), ", ")+" (off also turns bank power gating off)")
		traceOut = flag.String("trace", "", "trace file: output path with -mode record, input path with -mode replay")
		sched    = flag.String("scheduler", "gto", "warp scheduler: gto or lrr")
		sms      = flag.Int("sms", 15, "number of SMs")
		compLat  = flag.Int("complat", 2, "compression latency in cycles")
		decLat   = flag.Int("decomplat", 1, "decompression latency in cycles")
		compare  = flag.Bool("compare", false, "also run the no-compression baseline and report deltas")
		parallel = flag.Bool("parallel", false, "with -compare, simulate the baseline concurrently")
		smPar    = flag.Int("sm-parallel", 0, "shard the SM loop across this many goroutines (0 = one per CPU); results are byte-identical at every count")
		timeout  = flag.Duration("timeout", 0, "abort the simulation after this duration (0 = no limit)")
		jsonOut  = flag.Bool("json", false, "emit the run result as versioned JSON ("+warped.ResultSchema+") instead of the text summary")
		inject   = flag.String("inject", "", "inject register-file faults, e.g. seed=42,stuck=2,transient=100,redirect (stuck = stuck-at banks/SM, transient = bit flips per million writes, redirect = RRCD remapping)")
		cpuProf  = flag.String("cpuprofile", "", "write a CPU profile to this file (inspect with go tool pprof)")
		memProf  = flag.String("memprofile", "", "write a heap profile to this file at exit")
		showVer  = flag.Bool("version", false, "print the build identity and exit")
	)
	flag.Parse()
	if *showVer {
		fmt.Println(version.String("warpedsim"))
		return
	}

	stopProf, err := prof.Start(*cpuProf, *memProf)
	if err != nil {
		fatal("%v", err)
	}
	defer func() {
		if err := stopProf(); err != nil {
			fmt.Fprintln(os.Stderr, err)
		}
	}()

	if *list {
		for _, b := range warped.Benchmarks() {
			fmt.Printf("%-11s [%s] %s\n", b.Name, b.Suite, b.Description)
		}
		return
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}

	runMode := *mode
	switch runMode {
	case "execute", "record", "replay":
	default:
		fatal("unknown mode %q (have execute, record, replay)", runMode)
	}

	cfg := warped.DefaultConfig()
	cfg.Compression = *comp
	if *comp == "off" {
		cfg.PowerGating = false // the paper's baseline gates no banks
	}
	cfg.NumSMs = *sms
	cfg.SMParallel = *smPar
	cfg.Scheduler = *sched
	cfg.CompressLatency = *compLat
	cfg.DecompressLatency = *decLat
	if *inject != "" {
		fc, err := warped.ParseFaultSpec(*inject)
		if err != nil {
			fatal("-inject: %v", err)
		}
		cfg.Faults = fc
	}
	if err := cfg.Validate(); err != nil {
		fatal("%v", err)
	}

	sc, err := kernels.ParseScale(*scale)
	if err != nil {
		fatal("-scale: %v", err)
	}

	if runMode != "execute" {
		if *traceOut == "" {
			fatal("-mode %s requires -trace <file>", runMode)
		}
		if *compare {
			fatal("-compare is not supported with -mode %s", runMode)
		}
	}
	if runMode == "replay" {
		if *bench != "" || *asmFile != "" {
			fatal("-mode replay takes its kernel from the trace; drop -bench/-asm")
		}
		replayTrace(ctx, cfg, *traceOut, *jsonOut)
		return
	}
	if runMode == "record" {
		res, err := recordOnce(ctx, cfg, *bench, *asmFile, sc, *grid, *block, *traceOut, *scale)
		if err != nil {
			fatal("%v", err)
		}
		if *jsonOut {
			enc := json.NewEncoder(os.Stdout)
			enc.SetIndent("", "  ")
			if err := enc.Encode(res); err != nil {
				fatal("%v", err)
			}
		} else {
			printSummary(res)
			fmt.Printf("\ntrace               %s written to %s\n", warped.TraceSchema, *traceOut)
		}
		return
	}

	// With -compare -parallel, the baseline simulates concurrently with the
	// main configuration; the simulator itself is deterministic, so the
	// numbers are identical either way.
	var (
		baseRes <-chan runOutcome
		base    = cfg
	)
	// RRCD redirection needs compression; the uncompressed baseline keeps
	// the same stuck banks but cannot remap around them.
	base.Compression, base.PowerGating = "off", false
	base.Faults.Redirect = false
	if *compare && *parallel {
		ch := make(chan runOutcome, 1)
		go func() {
			res, err := runOnce(ctx, base, *bench, *asmFile, sc, *grid, *block)
			ch <- runOutcome{res, err}
		}()
		baseRes = ch
	}

	res, err := runOnce(ctx, cfg, *bench, *asmFile, sc, *grid, *block)
	if err != nil {
		if cfg.Faults.Enabled() {
			// A corrupted address or loop register usually kills the
			// launch outright — that IS the experiment's result.
			fatal("kernel crashed under injected faults (%s): %v", cfg.Faults.String(), err)
		}
		fatal("%v", err)
	}
	if *jsonOut {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(res); err != nil {
			fatal("%v", err)
		}
		if !*compare {
			return
		}
	} else {
		printSummary(res)
	}

	if *compare {
		bres, err := waitBaseline(ctx, baseRes, base, *bench, *asmFile, sc, *grid, *block)
		if err != nil {
			fatal("baseline: %v", err)
		}
		if *jsonOut {
			enc := json.NewEncoder(os.Stdout)
			enc.SetIndent("", "  ")
			if err := enc.Encode(bres); err != nil {
				fatal("%v", err)
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
}

// runOutcome carries the concurrent baseline's result.
type runOutcome struct {
	res *warped.Result
	err error
}

// waitBaseline collects the concurrent baseline run, or simulates it now
// when -parallel was not given.
func waitBaseline(ctx context.Context, ch <-chan runOutcome, base warped.Config,
	bench, asmFile string, sc warped.Scale, grid, block int) (*warped.Result, error) {
	if ch != nil {
		out := <-ch
		return out.res, out.err
	}
	return runOnce(ctx, base, bench, asmFile, sc, grid, block)
}

func runOnce(ctx context.Context, cfg warped.Config, bench, asmFile string, sc warped.Scale, grid, block int) (*warped.Result, error) {
	gpu, err := warped.NewGPU(cfg)
	if err != nil {
		return nil, err
	}
	switch {
	case bench != "":
		b, ok := warped.BenchmarkByName(bench)
		if !ok {
			return nil, fmt.Errorf("unknown benchmark %q (use -list)", bench)
		}
		inst, err := b.Build(gpu.Mem(), sc)
		if err != nil {
			return nil, err
		}
		res, err := gpu.RunContext(ctx, inst.Launch)
		if err != nil {
			return nil, err
		}
		if err := inst.Check(gpu.Mem()); err != nil {
			// Injected faults are expected to corrupt kernels: report the
			// miscomputation but still show what it cost.
			if cfg.Faults.Enabled() {
				fmt.Fprintf(os.Stderr, "warpedsim: output INCORRECT under injected faults: %v\n", err)
				return res, nil
			}
			return nil, fmt.Errorf("output validation failed: %w", err)
		}
		return res, nil
	case asmFile != "":
		src, err := os.ReadFile(asmFile)
		if err != nil {
			return nil, err
		}
		k, err := warped.Assemble(asmFile, string(src))
		if err != nil {
			return nil, err
		}
		return gpu.RunContext(ctx, warped.Launch{Kernel: k, Grid: warped.Dim3{X: grid}, Block: warped.Dim3{X: block}})
	}
	return nil, fmt.Errorf("need -bench or -asm (or -list)")
}

// recordOnce executes the kernel once in record mode, validates its output
// and persists the captured functional execution as a warped.trace/v1 file
// at path. The returned Result is byte-identical to an execute-mode run.
func recordOnce(ctx context.Context, cfg warped.Config, bench, asmFile string, sc warped.Scale,
	grid, block int, path, scaleName string) (*warped.Result, error) {
	gpu, err := warped.NewGPU(cfg)
	if err != nil {
		return nil, err
	}
	var (
		launch warped.Launch
		check  func(*warped.Memory) error
		meta   warped.TraceMeta
	)
	switch {
	case bench != "":
		b, ok := warped.BenchmarkByName(bench)
		if !ok {
			return nil, fmt.Errorf("unknown benchmark %q (use -list)", bench)
		}
		inst, err := b.Build(gpu.Mem(), sc)
		if err != nil {
			return nil, err
		}
		launch, check = inst.Launch, inst.Check
		meta.Benchmark, meta.Scale = bench, scaleName
	case asmFile != "":
		src, err := os.ReadFile(asmFile)
		if err != nil {
			return nil, err
		}
		k, err := warped.Assemble(asmFile, string(src))
		if err != nil {
			return nil, err
		}
		launch = warped.Launch{Kernel: k, Grid: warped.Dim3{X: grid}, Block: warped.Dim3{X: block}}
	default:
		return nil, fmt.Errorf("need -bench or -asm (or -list)")
	}
	res, lt, err := gpu.RecordContextBeat(ctx, launch, nil)
	if err != nil {
		return nil, err
	}
	if check != nil {
		if err := check(gpu.Mem()); err != nil {
			return nil, fmt.Errorf("output validation failed (trace not written): %w", err)
		}
	}
	f, err := os.Create(path)
	if err != nil {
		return nil, err
	}
	tr := &warped.Trace{Meta: meta, Launches: []*warped.TraceLaunch{lt}}
	if err := warped.WriteTrace(f, tr); err != nil {
		f.Close()
		return nil, err
	}
	if err := f.Close(); err != nil {
		return nil, err
	}
	return res, nil
}

// replayTrace re-times every launch of a recorded trace under cfg. The
// trace is self-contained, so no benchmark build or output check happens;
// validity was anchored when the trace was recorded.
func replayTrace(ctx context.Context, cfg warped.Config, path string, jsonOut bool) {
	f, err := os.Open(path)
	if err != nil {
		fatal("%v", err)
	}
	tr, err := warped.ReadTrace(f)
	f.Close()
	if err != nil {
		fatal("-trace %s: %v", path, err)
	}
	if !jsonOut && tr.Meta.Benchmark != "" {
		fmt.Printf("replaying %s (%s scale, recorded as %s)\n\n", tr.Meta.Benchmark, tr.Meta.Scale, tr.Meta.Schema)
	}
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	for i, lt := range tr.Launches {
		gpu, err := warped.NewGPU(cfg)
		if err != nil {
			fatal("%v", err)
		}
		res, err := gpu.ReplayContextBeat(ctx, lt, nil)
		if err != nil {
			fatal("replay launch %d: %v", i+1, err)
		}
		switch {
		case jsonOut:
			if err := enc.Encode(res); err != nil {
				fatal("%v", err)
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

func fatal(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "warpedsim: "+format+"\n", args...)
	os.Exit(1)
}
