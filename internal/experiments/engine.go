package experiments

import (
	"context"
	"fmt"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/kernels"
	"repro/internal/sim"
	"repro/internal/store"
)

// EventKind classifies one entry of the engine's progress stream.
type EventKind int

const (
	// EventJobStart fires when a (benchmark, configuration) simulation is
	// dispatched to a worker slot (once per attempt).
	EventJobStart EventKind = iota
	// EventJobDone fires when that simulation attempt finishes; Err is set
	// on failure, Cycles and Elapsed on success.
	EventJobDone
	// EventCacheHit fires when a request is served from the memo cache
	// (including requests that joined an in-flight simulation of the same
	// key and waited for it).
	EventCacheHit
	// EventJobRetry fires between a transient failure and the next attempt,
	// after the backoff delay has been decided; Attempt is the attempt that
	// just failed (0-based), Err its failure.
	EventJobRetry
)

func (k EventKind) String() string {
	switch k {
	case EventJobStart:
		return "start"
	case EventJobDone:
		return "done"
	case EventCacheHit:
		return "cache-hit"
	case EventJobRetry:
		return "retry"
	}
	return fmt.Sprintf("EventKind(%d)", int(k))
}

// Event is one structured progress record. It replaces the former
// io.Writer progress lines: consumers get per-job start/finish, simulated
// cycle counts, wall time, retries and cache hits, keyed by benchmark name
// and the configuration's memo signature.
type Event struct {
	Kind      EventKind
	Benchmark string
	Config    string        // memoization signature of the configuration
	Attempt   int           // 0-based attempt number (nonzero only with retries)
	Cycles    uint64        // simulated cycles (EventJobDone, EventCacheHit)
	Elapsed   time.Duration // simulation wall time (EventJobDone)
	Err       error         // failure, if any (EventJobDone, EventJobRetry)
}

// ProgressFunc receives progress events. The engine serializes calls: a
// ProgressFunc never runs concurrently with itself, so implementations need
// no locking of their own. It must not call back into the Runner.
type ProgressFunc func(Event)

// call is one single-flight memo entry: the first requester of a key
// simulates; concurrent requesters block on done and share the outcome.
type call struct {
	done chan struct{}
	res  *sim.Result
	err  error
}

// outcome is what one job attempt delivers over its result channel.
type outcome struct {
	res *sim.Result
	err error
}

// stallGrace is how long the watchdog waits, after canceling a stalled
// job's context, for the job goroutine to acknowledge before abandoning
// it. A stalled simulation observes cancellation within one checkpoint
// interval; only a job wedged outside the cycle loop (e.g. a hung Build)
// outlives this and is left to finish into its buffered channel.
const stallGrace = 250 * time.Millisecond

// engine is the parallel simulation scheduler: it fans (configuration ×
// benchmark) jobs across a bounded pool of worker slots, memoizes results
// with single-flight semantics (a key in flight is never simulated twice,
// even when requested concurrently), isolates per-job panics, retries
// transient failures with exponential backoff, cancels jobs that stop
// making forward progress, and publishes the progress stream.
type engine struct {
	ctx         context.Context
	scale       kernels.Scale
	parallelism int
	slots       chan struct{} // worker-slot semaphore, cap == parallelism

	retries  int           // extra attempts after the first, transient failures only
	backoff  time.Duration // first retry delay; doubles per attempt
	watchdog time.Duration // progress deadline; 0 disables the watchdog

	// smParallel is the engine-wide SM shard count applied to configurations
	// that leave sim.Config.SMParallel at 0. 0 means auto: divide the
	// machine's cores across the engine's worker slots (see tuneSMParallel),
	// so job-level and intra-simulation parallelism never oversubscribe.
	smParallel int

	// memoize keeps completed calls in the single-flight map forever, so a
	// key simulates at most once per engine lifetime (the Runner's mode:
	// exhibits share configurations heavily and a suite run is bounded).
	// When false only in-flight calls dedup; completed entries are evicted,
	// and result retention becomes the caller's policy — the serving layer
	// (internal/jobs) puts its bounded result tier on top instead, so a
	// long-lived process does not grow a map per distinct configuration
	// ever seen.
	memoize bool

	// runJob executes one attempt: runSim, or runSimRR with record/replay
	// on. It is a field (not a method call) so robustness tests can
	// substitute stalling or flaky jobs without touching the benchmark
	// registry.
	runJob func(ctx context.Context, b *kernels.Benchmark, c sim.Config, beat *atomic.Uint64) (*sim.Result, error)

	mu    sync.Mutex
	calls map[string]*call

	// Record/replay split (see recordreplay.go): when enabled, the first job
	// per benchmark runs the functional front-end once in record mode and
	// every other configuration replays the captured trace. traces is the
	// per-benchmark single-flight cache; traceUse bounds its completed
	// recordings by bytes, and its victims are deleted from traces.
	traceMu  sync.Mutex
	traces   map[string]*traceEntry
	traceUse *store.Tracker

	progressMu sync.Mutex
	progress   ProgressFunc
}

func (e *engine) emit(ev Event) {
	if e.progress == nil {
		return
	}
	e.progressMu.Lock()
	defer e.progressMu.Unlock()
	e.progress(ev)
}

// run returns the result for (b, c), simulating at most once per key for
// the engine's lifetime. Concurrent requests for the same key join the
// in-flight simulation. On ErrOutputMismatch the result is returned
// alongside the error. The output check always runs inside the job: an
// experiment on a miscomputing simulator would be meaningless.
func (e *engine) run(b *kernels.Benchmark, c sim.Config) (*sim.Result, error) {
	cfgSig := sig(&c)
	key := b.Name + "|" + cfgSig

	e.mu.Lock()
	if cl, ok := e.calls[key]; ok {
		e.mu.Unlock()
		select {
		case <-cl.done:
		case <-e.ctx.Done():
			return nil, fmt.Errorf("experiments: %s: %w", b.Name, e.ctx.Err())
		}
		if cl.err == nil {
			e.emit(Event{Kind: EventCacheHit, Benchmark: b.Name, Config: cfgSig, Cycles: cycles(cl.res)})
		}
		return cl.res, cl.err
	}
	cl := &call{done: make(chan struct{})}
	e.calls[key] = cl
	e.mu.Unlock()

	cl.res, cl.err = e.simulate(b.Name, cfgSig, func(ctx context.Context, beat *atomic.Uint64) (*sim.Result, error) {
		return e.runJob(ctx, b, c, beat)
	})
	if !e.memoize {
		// Evict before closing done: once waiters are released the key is
		// already gone, so a late requester starts a fresh simulation
		// instead of joining a finished call.
		e.mu.Lock()
		delete(e.calls, key)
		e.mu.Unlock()
	}
	close(cl.done)
	return cl.res, cl.err
}

// jobFunc is one schedulable unit of simulation work: execute, record or
// replay. The engine's slot/retry/watchdog machinery is agnostic to which.
type jobFunc func(ctx context.Context, beat *atomic.Uint64) (*sim.Result, error)

// simulate executes one job inside a worker slot, retrying transient
// failures up to the engine's retry budget with exponential backoff. Any
// failure is wrapped in a *JobError carrying the job's identity.
func (e *engine) simulate(name, cfgSig string, job jobFunc) (*sim.Result, error) {
	select {
	case e.slots <- struct{}{}:
	case <-e.ctx.Done():
		return nil, fmt.Errorf("experiments: %s: %w", name, e.ctx.Err())
	}
	defer func() { <-e.slots }()

	var res *sim.Result
	var err error
	attempt := 0
	for ; ; attempt++ {
		e.emit(Event{Kind: EventJobStart, Benchmark: name, Config: cfgSig, Attempt: attempt})
		start := time.Now()
		res, err = e.attempt(job)
		e.emit(Event{
			Kind:      EventJobDone,
			Benchmark: name,
			Config:    cfgSig,
			Attempt:   attempt,
			Cycles:    cycles(res),
			Elapsed:   time.Since(start),
			Err:       err,
		})
		if err == nil || attempt >= e.retries || !IsTransient(err) || e.ctx.Err() != nil {
			break
		}
		e.emit(Event{Kind: EventJobRetry, Benchmark: name, Config: cfgSig, Attempt: attempt, Err: err})
		delay := e.backoff << attempt
		select {
		case <-time.After(delay):
		case <-e.ctx.Done():
			return nil, fmt.Errorf("experiments: %s: %w", name, e.ctx.Err())
		}
	}
	if err != nil {
		err = &JobError{Benchmark: name, Config: cfgSig, Attempts: attempt + 1, Err: err}
	}
	return res, err
}

// attempt runs one isolated job attempt: the job executes in its own
// goroutine so a panic is recovered into a *PanicError, and — when the
// watchdog is armed — a monitor cancels the attempt if the simulation's
// instruction heartbeat stops advancing for a full deadline window.
func (e *engine) attempt(job jobFunc) (*sim.Result, error) {
	ctx := e.ctx
	cancel := context.CancelFunc(func() {})
	if e.watchdog > 0 {
		ctx, cancel = context.WithCancel(e.ctx)
	}
	defer cancel()

	beat := new(atomic.Uint64)
	// Buffered so an abandoned (wedged, uncancelable) job can still
	// deliver its eventual outcome without leaking a blocked goroutine.
	done := make(chan outcome, 1)
	go func() {
		defer func() {
			if v := recover(); v != nil {
				done <- outcome{nil, &PanicError{Value: v, Stack: debug.Stack()}}
			}
		}()
		res, err := job(ctx, beat)
		done <- outcome{res, err}
	}()

	if e.watchdog <= 0 {
		o := <-done
		return o.res, o.err
	}

	ticker := time.NewTicker(e.watchdog)
	defer ticker.Stop()
	last := beat.Load()
	for {
		select {
		case o := <-done:
			return o.res, o.err
		case <-ticker.C:
			cur := beat.Load()
			if cur != last {
				last = cur
				continue
			}
			// No instruction issued for a full window: the simulation is
			// deadlocked (cycles may still be burning). Cancel and give
			// the goroutine a short grace to acknowledge.
			cancel()
			select {
			case <-done:
			case <-time.After(stallGrace):
			}
			return nil, &StallError{Deadline: e.watchdog, LastBeat: cur}
		}
	}
}

// tuneSMParallel decides the intra-simulation shard count for one job,
// after the memo signature has been taken (SMParallel is signature-exempt,
// so tuning never fragments the cache). Precedence: an explicit per-config
// value wins; then the engine-wide setting; otherwise auto — spread the
// machine's cores across the engine's worker slots so a fully loaded
// engine never oversubscribes (at the default parallelism of GOMAXPROCS
// the auto budget is 1 shard per job; an interactive -parallel 1 run gets
// every core for its single simulation).
func (e *engine) tuneSMParallel(c *sim.Config) {
	if c.SMParallel != 0 {
		return
	}
	if e.smParallel != 0 {
		c.SMParallel = e.smParallel
		return
	}
	if n := runtime.GOMAXPROCS(0) / e.parallelism; n > 1 {
		c.SMParallel = n
	} else {
		c.SMParallel = 1
	}
}

// runSim builds and runs one benchmark under one configuration, validating
// the simulated output against the host reference. A mismatch returns the
// result *and* an error wrapping ErrOutputMismatch, so fault experiments
// can still read the run's counters.
func (e *engine) runSim(ctx context.Context, b *kernels.Benchmark, c sim.Config, beat *atomic.Uint64) (*sim.Result, error) {
	e.tuneSMParallel(&c)
	g, err := sim.New(c)
	if err != nil {
		return nil, err
	}
	inst, err := b.Build(g.Mem(), e.scale)
	if err != nil {
		return nil, fmt.Errorf("%s: build: %w", b.Name, err)
	}
	res, err := g.RunContextBeat(ctx, inst.Launch, beat)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", b.Name, err)
	}
	if err := inst.Check(g.Mem()); err != nil {
		return res, fmt.Errorf("%s: %w: %w", b.Name, ErrOutputMismatch, err)
	}
	return res, nil
}

func cycles(res *sim.Result) uint64 {
	if res == nil {
		return 0
	}
	return res.Cycles
}

// runAll fans one job per benchmark across the worker pool and returns the
// results and errors in benchmark order — the ordering contract that keeps
// parallel runs byte-identical to sequential ones. Every benchmark runs
// even when an earlier one fails (also at parallelism 1), so the memo
// cache and the error set end up identical at every parallelism level.
func (e *engine) runAll(benches []*kernels.Benchmark, c sim.Config) ([]*sim.Result, []error) {
	results := make([]*sim.Result, len(benches))
	errs := make([]error, len(benches))
	if e.parallelism == 1 {
		for i, b := range benches {
			results[i], errs[i] = e.run(b, c)
		}
		return results, errs
	}
	var wg sync.WaitGroup
	for i, b := range benches {
		wg.Add(1)
		go func(i int, b *kernels.Benchmark) {
			defer wg.Done()
			results[i], errs[i] = e.run(b, c)
		}(i, b)
	}
	wg.Wait()
	return results, errs
}

// firstError returns the error of the lowest-ordered failed job (benches
// are sorted by name, so this is the first error by job key) — the
// deterministic choice that keeps failure output stable across
// parallelism levels, instead of whichever worker loses the race.
func firstError(errs []error) error {
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}
