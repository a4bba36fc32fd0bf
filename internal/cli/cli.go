// Package cli declares and resolves the command-line flags the engine
// binaries share — warpedsim, warpedbench, warpedreport and warpedd — so
// each flag, its parsing and its validation are written once.
//
// Every binary takes -scale, -sm-parallel, -compression and -version. The
// rest come in groups a binary opts into (DESIGN.md §21):
//
//	Pool     -parallel, -retries, -watchdog   warpedbench, warpedreport, warpedd
//	Timeout  -timeout                         warpedsim, warpedbench, warpedreport
//	Profile  -cpuprofile, -memprofile         warpedsim, warpedbench
//	Suite    -benchmarks, -o                  warpedbench, warpedreport
//
// The flags resolve to one experiments.EngineConfig plus a base
// sim.Config: the same struct a standalone Engine and an experiment Runner
// are built from.
package cli

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"runtime"
	"runtime/pprof"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/kernels"
	"repro/internal/sim"
	"repro/internal/version"
)

// Group selects the optional flag groups a binary declares.
type Group uint

const (
	// Pool sizes the engine's worker pool and arms its per-job robustness:
	// -parallel, -retries and -watchdog.
	Pool Group = 1 << iota
	// Timeout bounds the whole run: -timeout (see Flags.Context).
	Timeout
	// Profile writes runtime profiles: -cpuprofile and -memprofile.
	Profile
	// Suite selects the benchmarks and the output file: -benchmarks and -o.
	Suite
)

// Flags holds the shared flags of one binary. Build it with New before
// declaring the binary's own flags, then call Parse. The exported fields
// are the raw values a binary may print or pass on; Engine resolves the
// rest.
type Flags struct {
	Scale       string
	Compression string
	Timeout     time.Duration

	smParallel  int
	showVersion bool
	parallel    int
	retries     int
	watchdog    time.Duration
	cpuProfile  string
	memProfile  string
	benchmarks  string
	out         string

	name    string
	cpuFile *os.File
	outFile *os.File
}

// New declares the shared flags of the binary name on the default flag
// set: the four every binary takes plus the groups asked for. scale is the
// binary's default workload scale.
func New(name, scale string, groups Group) *Flags {
	return bind(flag.CommandLine, name, scale, groups)
}

func bind(fs *flag.FlagSet, name, scale string, groups Group) *Flags {
	f := &Flags{name: name}
	fs.StringVar(&f.Scale, "scale", scale, "workload scale: small, medium or large")
	fs.StringVar(&f.Compression, "compression", "", "compression: "+strings.Join(core.Compressions(), ", ")+
		" (empty = "+core.DefaultScheme+"); off also turns bank power gating off, except on warpedd, where it only sets the default for submissions that name none")
	fs.IntVar(&f.smParallel, "sm-parallel", 0, "SM-loop shards per simulation (0 = auto: the CPUs divided across concurrent simulations); results are byte-identical at every count")
	fs.BoolVar(&f.showVersion, "version", false, "print the build identity and exit")
	if groups&Pool != 0 {
		fs.IntVar(&f.parallel, "parallel", 0, "max concurrent simulations, the worker pool size (0 = one per CPU)")
		fs.IntVar(&f.retries, "retries", 0, "extra attempts per job after a transient failure")
		fs.DurationVar(&f.watchdog, "watchdog", 0, "cancel a simulation making no progress for this long (0 = off)")
	}
	if groups&Timeout != 0 {
		fs.DurationVar(&f.Timeout, "timeout", 0, "abort the whole run after this duration (0 = no limit)")
	}
	if groups&Profile != 0 {
		fs.StringVar(&f.cpuProfile, "cpuprofile", "", "write a CPU profile to this file (inspect with go tool pprof)")
		fs.StringVar(&f.memProfile, "memprofile", "", "write a heap profile to this file at exit")
	}
	if groups&Suite != 0 {
		fs.StringVar(&f.benchmarks, "benchmarks", "", "comma-separated benchmark subset (default: all)")
		fs.StringVar(&f.out, "o", "", "write the output to this file instead of stdout")
	}
	return f
}

// Parse parses the command line. With -version it prints the build
// identity and exits; otherwise it starts the CPU profile, if asked for.
func (f *Flags) Parse() {
	flag.Parse()
	if f.showVersion {
		fmt.Println(version.String(f.name))
		os.Exit(0)
	}
	if f.cpuProfile == "" {
		return
	}
	file, err := os.Create(f.cpuProfile)
	if err != nil {
		f.Fatalf("%v", err)
	}
	if err := pprof.StartCPUProfile(file); err != nil {
		file.Close()
		f.Fatalf("start CPU profile: %v", err)
	}
	f.cpuFile = file
}

// Engine resolves the flags into the engine configuration and the base
// simulator configuration: base with -compression and -sm-parallel
// applied, validated. off is the paper's baseline, so it also turns bank
// power gating off.
func (f *Flags) Engine(base sim.Config) (experiments.EngineConfig, sim.Config, error) {
	scale, err := kernels.ParseScale(f.Scale)
	if err != nil {
		return experiments.EngineConfig{}, base, fmt.Errorf("-scale: %w", err)
	}
	if f.smParallel < 0 {
		return experiments.EngineConfig{}, base, errors.New("-sm-parallel: negative shard count (0 = auto)")
	}
	switch f.Compression {
	case "":
	case "off":
		base = sim.Baseline(base)
	default:
		base.Compression = f.Compression
	}
	base.SMParallel = f.smParallel
	if err := base.Validate(); err != nil {
		return experiments.EngineConfig{}, base, err
	}
	return experiments.EngineConfig{
		Parallelism: f.parallel,
		Scale:       scale,
		Retries:     f.retries,
		Watchdog:    f.watchdog,
	}, base, nil
}

// Runner builds the experiment Runner the flags describe on ctx, with the
// extra options applied last.
func (f *Flags) Runner(ctx context.Context, extra ...experiments.Option) (*experiments.Runner, error) {
	ec, base, err := f.Engine(sim.DefaultConfig())
	if err != nil {
		return nil, err
	}
	opts := []experiments.Option{
		experiments.WithScale(ec.Scale),
		experiments.WithParallelism(ec.Parallelism),
		experiments.WithRetries(ec.Retries),
		experiments.WithWatchdog(ec.Watchdog),
		experiments.WithBaseConfig(base),
		experiments.WithBenchmarks(f.BenchmarkList()...),
	}
	return experiments.New(ctx, append(opts, extra...)...)
}

// BenchmarkList splits -benchmarks; nil means the whole suite.
func (f *Flags) BenchmarkList() []string {
	if f.benchmarks == "" {
		return nil
	}
	return strings.Split(f.benchmarks, ",")
}

// Context returns the run's context, canceled by Ctrl-C and after
// -timeout.
func (f *Flags) Context() (context.Context, context.CancelFunc) {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	if f.Timeout <= 0 {
		return ctx, stop
	}
	ctx, cancel := context.WithTimeout(ctx, f.Timeout)
	return ctx, func() { cancel(); stop() }
}

// Output creates the -o file, which Close closes, or returns stdout when
// -o is empty.
func (f *Flags) Output() (io.Writer, error) {
	if f.out == "" {
		return os.Stdout, nil
	}
	file, err := os.Create(f.out)
	if err != nil {
		return nil, err
	}
	f.outFile = file
	return file, nil
}

// Close stops the CPU profile, writes the heap profile and closes the -o
// file. main defers it; Fatalf runs it too, because os.Exit skips defers.
// Calls after the first do nothing.
func (f *Flags) Close() {
	if f.cpuFile != nil {
		pprof.StopCPUProfile()
		f.report(f.cpuFile.Close())
		f.cpuFile = nil
	}
	if f.memProfile != "" {
		f.report(writeHeapProfile(f.memProfile))
		f.memProfile = ""
	}
	if f.outFile != nil {
		f.report(f.outFile.Close())
		f.outFile = nil
	}
}

// writeHeapProfile snapshots the heap after a GC, so the profile shows live
// memory rather than collection timing.
func writeHeapProfile(path string) error {
	file, err := os.Create(path)
	if err != nil {
		return err
	}
	runtime.GC()
	if err := pprof.WriteHeapProfile(file); err != nil {
		file.Close()
		return fmt.Errorf("write heap profile: %w", err)
	}
	return file.Close()
}

func (f *Flags) report(err error) {
	if err != nil {
		fmt.Fprintf(os.Stderr, "%s: %v\n", f.name, err)
	}
}

// Fatalf runs Close, prints the message prefixed with the binary's name to
// stderr and exits 1.
func (f *Flags) Fatalf(format string, args ...any) {
	f.Close()
	fmt.Fprintf(os.Stderr, f.name+": "+format+"\n", args...)
	os.Exit(1)
}
