// Package warped is the public API of the warped-compression reproduction
// (Lee et al., "Warped-Compression: Enabling Power Efficient GPUs through
// Register Compression", ISCA 2015).
//
// It exposes four layers:
//
//   - the compression primitives (BDI over 128-byte warp registers, the
//     fixed <4,0>/<4,1>/<4,2> encodings and the design-space explorer);
//   - the cycle-level SIMT GPU model (Table 2 microarchitecture) with the
//     warped-compression register file path, a SASS-like ISA and a text
//     assembler for writing kernels;
//   - the Table 3 energy model;
//   - the benchmark suite and the experiment runners that regenerate
//     every table and figure of the paper's evaluation.
//
// Quick start:
//
//	gpu, _ := warped.NewGPU(warped.DefaultConfig())
//	kernel, _ := warped.Assemble("scale", src)
//	res, _ := gpu.Run(warped.Launch{Kernel: kernel, Grid: warped.Dim3{X: 30}, Block: warped.Dim3{X: 256}})
//	fmt.Println(res.Cycles, res.Stats.CompressionRatio(warped.NonDivergent))
package warped

import (
	"context"
	"io"

	"repro/internal/asm"
	"repro/internal/core"
	"repro/internal/energy"
	"repro/internal/exectrace"
	"repro/internal/experiments"
	"repro/internal/faults"
	"repro/internal/isa"
	"repro/internal/kernels"
	"repro/internal/mem"
	"repro/internal/sim"
	"repro/internal/stats"
)

// --- Compression primitives (the paper's core contribution) ---

// WarpReg is one warp register: 32 lane values of 32 bits.
type WarpReg = core.WarpReg

// Encoding is the 2-bit compression range indicator (uncompressed, <4,0>,
// <4,1> or <4,2>).
type Encoding = core.Encoding

// Encoding values.
const (
	EncUncompressed = core.EncUncompressed
	Enc40           = core.Enc40
	Enc41           = core.Enc41
	Enc42           = core.Enc42
)

// BDIParams is one <base,delta> configuration of the BDI algorithm.
type BDIParams = core.Params

// Compress encodes a 128-byte warp register image with the given BDI
// parameters; ok is false when the data does not fit.
func Compress(data []byte, p BDIParams) ([]byte, bool) { return core.Compress(data, p) }

// CompressInto is the allocation-free form of Compress: the encoded bytes
// are appended to dst (which may be a reused buffer, e.g. sliced to [:0])
// and the extended slice is returned.
func CompressInto(dst, data []byte, p BDIParams) ([]byte, bool) {
	return core.CompressInto(dst, data, p)
}

// Decompress reverses Compress.
func Decompress(comp []byte, p BDIParams, out []byte) error { return core.Decompress(comp, p, out) }

// BestBDIParams runs the full design-space explorer of paper §4 / Fig 5.
func BestBDIParams(data []byte) (BDIParams, bool) { return core.BestParams(data) }

// ChooseEncoding returns the encoding warped-compression's hardware
// compressor stores for a warp register value vector: the smallest of
// <4,0>, <4,1> and <4,2> that fits, else uncompressed.
func ChooseEncoding(vals *WarpReg) Encoding { return core.ChooseBDI(vals) }

// --- Compression backends (schemes/v1) ---

// Compressor is one pluggable register-compression backend: a pattern
// classifier (Choose) plus the per-class codec, all allocation-free on the
// hot path. See Config.Compression for selecting one by name.
type Compressor = core.Compressor

// NewCompressor builds a fresh instance of a registered backend by name.
func NewCompressor(name string) (Compressor, error) { return core.NewCompressor(name) }

// --- GPU model ---

// Config is the full microarchitectural configuration (paper Table 2 plus
// design-space knobs).
type Config = sim.Config

// GPU is the simulated device.
type GPU = sim.GPU

// Result is the outcome of one kernel launch. It marshals to (and
// unmarshals from) the versioned JSON encoding identified by ResultSchema.
type Result = sim.Result

// ResultSchema identifies the stable, versioned JSON encoding of Result
// (see DESIGN.md §"Result JSON schema").
const ResultSchema = sim.ResultSchema

// Stats are the per-launch counters every figure derives from.
type Stats = stats.Stats

// Phase selects the divergence phase of phase-split statistics.
type Phase = stats.Phase

// Divergence phases.
const (
	NonDivergent = stats.NonDivergent
	Divergent    = stats.Divergent
)

// ConfigError is the typed validation failure of a Config: Field names the
// offending field, Reason says why.
type ConfigError = sim.ConfigError

// FaultConfig selects the deterministic register-file fault campaign of a
// simulation: permanently stuck-at banks, transient per-write bit flips,
// and RRCD-style redirection of compressed registers into healthy banks.
// The zero value disables injection. See Config.Faults.
type FaultConfig = faults.Config

// ParseFaultSpec parses a "key=value,..." fault specification (keys seed,
// stuck, transient, redirect) as accepted by warpedsim -inject.
func ParseFaultSpec(spec string) (FaultConfig, error) { return faults.ParseSpec(spec) }

// DefaultConfig returns paper Table 2 with warped-compression on.
func DefaultConfig() Config { return sim.DefaultConfig() }

// BaselineConfig returns the paper's no-compression baseline.
func BaselineConfig() Config { return sim.BaselineConfig() }

// NewGPU builds a simulated GPU.
func NewGPU(c Config) (*GPU, error) { return sim.New(c) }

// --- Execution traces (warped.trace/v1) ---
//
// The simulator's functional front-end and timing/compression/energy
// back-end are split behind a versioned trace format: GPU.Record executes
// a launch once and captures everything the back-end needs, and GPU.Replay
// re-times the recording under any configuration with byte-identical
// results. See DESIGN.md §15.

// TraceSchema identifies the versioned execution-trace container format,
// the first header field of every serialized trace.
const TraceSchema = exectrace.Schema

// Trace is a recorded run: a self-describing header plus one recorded
// launch per kernel invocation.
type Trace = exectrace.Trace

// TraceMeta is the trace header (schema, provenance, launch count).
type TraceMeta = exectrace.Meta

// TraceLaunch is the recorded functional execution of one kernel launch,
// self-contained (kernel image, geometry, value streams) so replay needs
// neither the benchmark registry nor its input generators.
type TraceLaunch = exectrace.Launch

// ErrUntraceable rejects recording a launch whose replayed value streams
// would be schedule-dependent: a global address accessed both atomically
// and non-atomically, or loaded by one warp and stored by another. Such
// launches must run in execute mode.
var ErrUntraceable = sim.ErrUntraceable

// WriteTrace serializes a trace in the TraceSchema wire format.
func WriteTrace(w io.Writer, t *Trace) error { return exectrace.Write(w, t) }

// ReadTrace deserializes a TraceSchema trace, validating it structurally.
func ReadTrace(r io.Reader) (*Trace, error) { return exectrace.Read(r) }

// --- ISA and assembler ---

// Kernel is an assembled kernel image.
type Kernel = isa.Kernel

// Launch describes one kernel invocation.
type Launch = isa.Launch

// Dim3 is launch geometry.
type Dim3 = isa.Dim3

// Memory is device global memory.
type Memory = mem.Global

// Assemble builds a kernel from assembly text (see internal/asm for the
// syntax; examples/quickstart shows a complete kernel).
func Assemble(name, src string) (*Kernel, error) { return asm.Assemble(name, src) }

// --- Energy model ---

// EnergyParams are the Table 3 technology constants.
type EnergyParams = energy.Params

// EnergyEvents are the countable events energy is computed from.
type EnergyEvents = energy.Events

// EnergyBreakdown splits register file energy by component.
type EnergyBreakdown = energy.Breakdown

// DefaultEnergyParams returns paper Table 3.
func DefaultEnergyParams() EnergyParams { return energy.DefaultParams() }

// ComputeEnergy applies the energy model to a launch's event counts.
func ComputeEnergy(p EnergyParams, ev EnergyEvents) EnergyBreakdown { return energy.Compute(p, ev) }

// --- Benchmarks ---

// Benchmark is one workload of the evaluation suite.
type Benchmark = kernels.Benchmark

// BenchmarkInstance is a built, ready-to-run benchmark launch.
type BenchmarkInstance = kernels.Instance

// Scale selects benchmark problem sizes.
type Scale = kernels.Scale

// Benchmark scales.
const (
	Small  = kernels.Small
	Medium = kernels.Medium
	Large  = kernels.Large
)

// Benchmarks lists every workload of the evaluation suite.
func Benchmarks() []*Benchmark { return kernels.All() }

// BenchmarkByName finds one benchmark.
func BenchmarkByName(name string) (*Benchmark, bool) { return kernels.ByName(name) }

// --- Experiments (paper tables and figures) ---

// ExperimentRunner regenerates paper exhibits on the parallel engine:
// (configuration × benchmark) simulation jobs fan out across a worker pool
// with a single-flight memo cache, so shared configurations simulate
// exactly once and tables come out byte-identical at every parallelism
// level.
type ExperimentRunner = experiments.Runner

// ExperimentOption configures an ExperimentRunner built with
// NewExperiments.
type ExperimentOption = experiments.Option

// ExperimentEvent is one structured progress record: per-job start/finish,
// simulated cycles, wall time and cache hits.
type ExperimentEvent = experiments.Event

// ExperimentEventKind classifies an ExperimentEvent.
type ExperimentEventKind = experiments.EventKind

// Experiment progress event kinds.
const (
	ExperimentJobStart = experiments.EventJobStart
	ExperimentJobDone  = experiments.EventJobDone
	ExperimentCacheHit = experiments.EventCacheHit
	ExperimentJobRetry = experiments.EventJobRetry
)

// Table is one regenerated table/figure.
type Table = experiments.Table

// Report is the outcome of a partial (keep-going) experiment run: every
// table that could be assembled plus a structured account of failed jobs
// and exhibits.
type Report = experiments.Report

// JobFailure identifies one failed (benchmark, configuration) job.
type JobFailure = experiments.JobFailure

// ExhibitFailure records an exhibit that could not be assembled at all.
type ExhibitFailure = experiments.ExhibitFailure

// JobError is the typed failure of one simulation job, carrying the
// benchmark, configuration signature and attempt count.
type JobError = experiments.JobError

// PanicError is a panic recovered from a simulation job or exhibit,
// converted to an error so one broken workload cannot take down a suite.
type PanicError = experiments.PanicError

// StallError reports a job canceled by the progress watchdog.
type StallError = experiments.StallError

// TransientError marks a failure as retryable.
type TransientError = experiments.TransientError

// ErrOutputMismatch marks a simulation that completed with output differing
// from the host reference; the Result is still returned alongside it.
var ErrOutputMismatch = experiments.ErrOutputMismatch

// ErrMaxCycles marks a simulation aborted by its cycle budget.
var ErrMaxCycles = sim.ErrMaxCycles

// NewExperiments builds an experiment runner, validating the base hardware
// configuration (a *ConfigError describes the first invalid field). ctx
// governs every simulation it schedules: cancel it (or let its deadline
// expire) and in-flight runs abort promptly with an error wrapping
// ctx.Err().
//
//	r, err := warped.NewExperiments(ctx,
//	    warped.WithScale(warped.Medium),
//	    warped.WithParallelism(0), // 0 = GOMAXPROCS
//	    warped.WithProgress(func(ev warped.ExperimentEvent) { ... }))
//	tables, err := r.RunAll()
func NewExperiments(ctx context.Context, opts ...ExperimentOption) (*ExperimentRunner, error) {
	return experiments.New(ctx, opts...)
}

// WithScale selects the workload size (default Small; Medium is the
// figure-quality size).
func WithScale(s Scale) ExperimentOption { return experiments.WithScale(s) }

// WithBenchmarks restricts the suite to the named benchmarks; no arguments
// restores the full suite.
func WithBenchmarks(names ...string) ExperimentOption { return experiments.WithBenchmarks(names...) }

// WithParallelism bounds concurrent simulations; n <= 0 means GOMAXPROCS.
func WithParallelism(n int) ExperimentOption { return experiments.WithParallelism(n) }

// WithProgress installs a structured progress callback (calls are
// serialized; fn needs no locking).
func WithProgress(fn func(ExperimentEvent)) ExperimentOption {
	return experiments.WithProgress(fn)
}

// ConfigSignature renders a Config as a stable, versioned string that is
// equal exactly when two configurations produce identical simulations —
// the identity the experiment engine's memo cache and the warpedd result
// cache both key on (see experiments.ConfigSignatureVersion).
func ConfigSignature(c *Config) string { return experiments.ConfigSignature(c) }

// ExperimentIDs lists every regenerable exhibit in paper order: table1..3
// and fig2..fig21, then the abl, flt, cmp and gemm families.
func ExperimentIDs() []string { return experiments.IDs() }

// ExperimentTitle returns an exhibit's caption.
func ExperimentTitle(id string) (string, bool) { return experiments.Title(id) }
