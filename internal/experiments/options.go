package experiments

import (
	"context"
	"fmt"
	"time"

	"repro/internal/kernels"
	"repro/internal/sim"
)

// config is the resolved runner configuration functional options build
// up: the engine the Runner schedules on, plus the suite selection and the
// base hardware configuration exhibits derive theirs from.
type config struct {
	EngineConfig
	benchmarks []string
	base       *sim.Config
}

// Option configures a Runner built with New.
type Option func(*config)

// WithScale selects the workload size (default Small; Medium is the
// figure-quality size).
func WithScale(s kernels.Scale) Option {
	return func(c *config) { c.Scale = s }
}

// WithBenchmarks restricts the suite to the named benchmarks. Calling it
// with no arguments restores the full suite.
func WithBenchmarks(names ...string) Option {
	return func(c *config) {
		if len(names) == 0 {
			c.benchmarks = nil
			return
		}
		c.benchmarks = append([]string(nil), names...)
	}
}

// WithParallelism bounds how many simulations run concurrently. n <= 0 (and
// the default) means GOMAXPROCS. Results are deterministic at every
// parallelism level: tables come out byte-identical to a sequential run.
func WithParallelism(n int) Option {
	return func(c *config) { c.Parallelism = n }
}

// WithProgress installs a structured progress callback. Events are
// serialized by the engine, so fn needs no locking. See Event.
func WithProgress(fn ProgressFunc) Option {
	return func(c *config) { c.Progress = fn }
}

// WithRetries grants every job n extra attempts (default 0) after a
// transient failure — one wrapped in TransientError, or a watchdog stall.
// Deterministic failures (panics, wrong output, invalid configs) are never
// retried.
func WithRetries(n int) Option {
	return func(c *config) { c.Retries = n }
}

// WithWatchdog arms the per-job progress watchdog: a simulation that issues
// no new instructions for a full window d is canceled and fails with a
// *StallError (which is transient, so retries apply). d <= 0 (the default)
// disables the watchdog. Note the trigger is issued instructions, not
// cycles: a deadlocked kernel spinning at a barrier burns cycles but issues
// nothing, which is exactly what the watchdog exists to catch.
func WithWatchdog(d time.Duration) Option {
	return func(c *config) { c.Watchdog = d }
}

// WithBaseConfig overrides the hardware configuration the experiment
// configurations are derived from (default sim.DefaultConfig). Compression
// mode, gating, scheduler, latencies and characterization are overridden
// per experiment on top of this base.
func WithBaseConfig(base sim.Config) Option {
	return func(c *config) {
		b := base
		c.base = &b
	}
}

// New builds an experiment Runner, validating the base hardware
// configuration up front (a *sim.ConfigError describes the first invalid
// field). ctx governs every simulation the runner schedules: canceling it
// makes in-flight and future runs return an error wrapping ctx.Err()
// promptly (the simulator polls the context inside its cycle loop). A nil
// ctx means context.Background().
//
//	r, err := experiments.New(ctx,
//	    experiments.WithScale(kernels.Medium),
//	    experiments.WithParallelism(runtime.GOMAXPROCS(0)),
//	    experiments.WithProgress(func(ev experiments.Event) { ... }))
//	tables, err := r.RunAll()
func New(ctx context.Context, opts ...Option) (*Runner, error) {
	// Exhibits share configurations heavily and a suite run is bounded, so
	// the Runner memoizes every result and records each benchmark once.
	c := config{EngineConfig: EngineConfig{Memoize: true, RecordReplay: true}}
	for _, o := range opts {
		o(&c)
	}
	r := &Runner{cfg: c, eng: NewEngine(ctx, c.EngineConfig).eng}
	base := r.baseConfig()
	if err := base.Validate(); err != nil {
		return nil, fmt.Errorf("experiments: invalid base config: %w", err)
	}
	return r, nil
}
