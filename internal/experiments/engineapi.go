package experiments

import (
	"context"
	"runtime"
	"sync/atomic"
	"time"

	"repro/internal/exectrace"
	"repro/internal/kernels"
	"repro/internal/sim"
	"repro/internal/store"
)

// EngineConfig configures a standalone Engine built with NewEngine. The
// zero value is usable: GOMAXPROCS workers, Small scale, no retries, no
// watchdog, no memoization.
type EngineConfig struct {
	// Parallelism bounds concurrent simulations; <= 0 means GOMAXPROCS.
	// A configuration that leaves sim.Config.SMParallel at 0 gets
	// GOMAXPROCS divided by Parallelism shards, so the two parallelism
	// levels never oversubscribe.
	Parallelism int
	// Scale is the workload size benchmarks are built at.
	Scale kernels.Scale
	// Retries grants every job this many extra attempts after a transient
	// failure (TransientError or a watchdog stall). The first retry waits
	// 100ms; each subsequent retry doubles the delay.
	Retries int
	// Watchdog cancels a simulation that issues no new instructions for a
	// full window; <= 0 disables.
	Watchdog time.Duration
	// Progress receives the structured event stream (calls serialized).
	Progress ProgressFunc
	// Memoize keeps every completed result in the engine forever, so each
	// key simulates at most once per Engine lifetime. Leave it false for
	// long-lived processes: in-flight calls still coalesce (single-flight),
	// but completed results are dropped and retention becomes the caller's
	// policy (internal/jobs puts its bounded result tier on top).
	Memoize bool
	// RecordReplay switches Run to the execute-once / replay-N strategy:
	// the first job per benchmark records its functional execution and
	// every other configuration replays the captured warped.trace/v1
	// launch. Results are byte-identical to execute mode. Off by default
	// for standalone engines — the serving layer drives record and replay
	// explicitly through the Record and Replay methods instead.
	RecordReplay bool
}

// Engine is the exported simulation execution core the experiment Runner
// runs on, for callers that schedule their own jobs — the serving layer's
// worker pool (internal/jobs) above all. It provides exactly the Runner's
// job semantics: a bounded worker pool, single-flight dedup on the
// (benchmark, ConfigSignature) key, per-job panic isolation, bounded
// retries with exponential backoff for transient failures, and the
// instruction-heartbeat stall watchdog. Runner and Engine share one
// implementation, so CLI experiment runs and served jobs can never drift.
type Engine struct {
	eng *engine
}

// NewEngine builds an Engine. ctx governs every simulation it schedules:
// cancel it and in-flight and future runs abort promptly with an error
// wrapping ctx.Err().
func NewEngine(ctx context.Context, cfg EngineConfig) *Engine {
	if ctx == nil {
		ctx = context.Background()
	}
	if cfg.Parallelism <= 0 {
		cfg.Parallelism = runtime.GOMAXPROCS(0)
	}
	eng := &engine{
		ctx:         ctx,
		scale:       cfg.Scale,
		parallelism: cfg.Parallelism,
		slots:       make(chan struct{}, cfg.Parallelism),
		retries:     max(cfg.Retries, 0),
		backoff:     100 * time.Millisecond,
		watchdog:    max(cfg.Watchdog, 0),
		memoize:     cfg.Memoize,
		calls:       make(map[string]*call),
		traces:      make(map[string]*traceEntry),
		traceUse:    store.NewTracker(0, defaultTraceBudget),
		progress:    cfg.Progress,
	}
	eng.runJob = eng.runSim
	if cfg.RecordReplay {
		eng.runJob = eng.runSimRR
	}
	return &Engine{eng: eng}
}

// Run simulates benchmark b under configuration c inside a worker slot,
// blocking until the result is available. Concurrent calls with the same
// (b.Name, ConfigSignature(&c)) key join the in-flight simulation instead
// of running it twice; the joiners observe an EventCacheHit. Failures are
// wrapped in *JobError; on ErrOutputMismatch the result is returned
// alongside the error (fault campaigns need the counters of wrong runs).
func (e *Engine) Run(b *kernels.Benchmark, c sim.Config) (*sim.Result, error) {
	return e.eng.run(b, c)
}

// Record simulates benchmark b under configuration c in record mode inside
// a worker slot: a normal execute-mode run whose functional front-end is
// teed into a warped.trace/v1 launch. The Result is byte-identical to what
// Run would produce. Record bypasses the result memo cache (callers that
// record manage their own trace retention) but shares the engine's worker
// slots, retry budget, panic isolation and stall watchdog. A launch whose
// value stream is schedule-dependent fails with sim.ErrUntraceable.
func (e *Engine) Record(b *kernels.Benchmark, c sim.Config) (*sim.Result, *exectrace.Launch, error) {
	var lt *exectrace.Launch
	res, err := e.eng.simulate(b.Name, ConfigSignature(&c), func(ctx context.Context, beat *atomic.Uint64) (*sim.Result, error) {
		r, l, err := e.eng.recordSim(ctx, b, c, beat)
		lt = l
		return r, err
	})
	return res, lt, err
}

// Replay drives the timing back-end under configuration c from a recorded
// launch, inside a worker slot with the engine's full job machinery. The
// benchmark name is used only for events and errors: the trace is
// self-contained, so no benchmark build (and no output check) happens. The
// Result is byte-identical to executing the same benchmark under c.
func (e *Engine) Replay(benchmark string, lt *exectrace.Launch, c sim.Config) (*sim.Result, error) {
	return e.eng.simulate(benchmark, ConfigSignature(&c), func(ctx context.Context, beat *atomic.Uint64) (*sim.Result, error) {
		return e.eng.replaySim(ctx, benchmark, c, lt, beat)
	})
}

// Parallelism reports the engine's worker-slot count.
func (e *Engine) Parallelism() int { return e.eng.parallelism }

// Scale reports the workload size the engine builds benchmarks at.
func (e *Engine) Scale() kernels.Scale { return e.eng.scale }
