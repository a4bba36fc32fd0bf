package experiments

import (
	"context"
	"errors"
	"fmt"
	"sync/atomic"
	"time"

	"repro/internal/exectrace"
	"repro/internal/kernels"
	"repro/internal/sim"
)

// The record/replay job path. The functional behaviour of a benchmark is
// configuration-independent unless the kernel races on global memory — one
// warp loads a cell another warp stores, or atomics and plain accesses meet
// on a cell — and the recorder refuses exactly those launches with
// sim.ErrUntraceable. So a sweep of N configurations over a traceable
// benchmark only needs the functional front-end once: the first job records
// an exectrace launch while producing its own (byte-identical to execute)
// result, and the other N-1 jobs drive the timing back-end by replaying the
// trace — skipping instruction execution, memory traffic and the output
// check entirely. An untraceable benchmark executes every configuration.

// defaultTraceBudget bounds the resident trace cache, counted in packed
// bytes (Launch.MemBytes); least recently used benchmarks are evicted past
// it (store.Tracker's policy, so the newest recording stays even when it
// alone exceeds the budget). Entries currently being waited on stay
// reachable through their waiters regardless.
const defaultTraceBudget int64 = 1 << 30

// traceMirrorInterval is how often a joiner waiting for an in-flight
// recording copies the recorder's instruction heartbeat into its own, so
// the joiner's watchdog tracks the recorder's progress instead of firing
// on an apparently idle job.
const traceMirrorInterval = 50 * time.Millisecond

// traceEntry is one single-flight slot of the per-benchmark trace cache.
// The first requester of a benchmark records; concurrent requesters block
// on done and then replay (or fall back to execute if recording failed).
type traceEntry struct {
	done chan struct{}
	beat *atomic.Uint64 // the recording job's live heartbeat

	// Written once before done closes, read-only after.
	lt  *exectrace.Launch
	err error
}

// runSimRR is the engine's job function when record/replay is enabled: an
// execute-compatible drop-in whose results are byte-identical to runSim for
// every configuration (the replay determinism oracle in internal/sim is the
// proof). Configurations that cannot trace (fault injection) and launches
// that cannot trace (ErrUntraceable) fall back to plain execute.
func (e *engine) runSimRR(ctx context.Context, b *kernels.Benchmark, c sim.Config, beat *atomic.Uint64) (*sim.Result, error) {
	if c.Faults.Enabled() {
		return e.runSim(ctx, b, c, beat)
	}

	e.traceMu.Lock()
	ent, ok := e.traces[b.Name]
	if ok {
		e.traceUse.Touch(b.Name)
	} else {
		ent = &traceEntry{done: make(chan struct{}), beat: beat}
		e.traces[b.Name] = ent
	}
	e.traceMu.Unlock()

	if !ok {
		return e.recordInto(ctx, ent, b, c, beat)
	}
	if err := e.waitTrace(ctx, ent, beat); err != nil {
		return nil, fmt.Errorf("%s: %w", b.Name, err)
	}
	if ent.err != nil {
		// Recording failed; this configuration still owes a result.
		return e.runSim(ctx, b, c, beat)
	}
	return e.replaySim(ctx, b.Name, c, ent.lt, beat)
}

// recordInto runs the benchmark in record mode and publishes the outcome
// into the trace-cache entry. The record-mode result is byte-identical to
// an execute-mode run under the same configuration, so it is returned
// directly — the recording job pays only the tee overhead, never a second
// simulation.
func (e *engine) recordInto(ctx context.Context, ent *traceEntry, b *kernels.Benchmark, c sim.Config, beat *atomic.Uint64) (*sim.Result, error) {
	res, lt, err := e.recordSim(ctx, b, c, beat)
	ent.lt, ent.err = lt, err
	e.traceMu.Lock()
	switch {
	case err == nil:
		// Only completed recordings are budgeted. Jobs already holding an
		// evicted entry keep using it; eviction only forgets the cache key.
		for _, victim := range e.traceUse.Add(b.Name, lt.MemBytes()) {
			delete(e.traces, victim)
		}
	case !errors.Is(err, sim.ErrUntraceable):
		// Transient or environmental failure: evict so a later requester
		// re-records. ErrUntraceable is a deterministic property of the
		// benchmark, so that entry stays as a cheap negative cache and
		// every future requester goes straight to execute mode.
		delete(e.traces, b.Name)
	}
	e.traceMu.Unlock()
	close(ent.done)
	if err == nil {
		return res, nil
	}
	if errors.Is(err, sim.ErrUntraceable) {
		// The aborted recording run produced no result; execute instead.
		return e.runSim(ctx, b, c, beat)
	}
	return res, err
}

// waitTrace blocks until the in-flight recording of ent completes,
// mirroring the recorder's instruction heartbeat into the waiting job's own
// so the stall watchdog sees recording progress (and still fires if the
// recorder itself wedges).
func (e *engine) waitTrace(ctx context.Context, ent *traceEntry, beat *atomic.Uint64) error {
	select {
	case <-ent.done:
		return nil
	default:
	}
	t := time.NewTicker(traceMirrorInterval)
	defer t.Stop()
	for {
		select {
		case <-ent.done:
			return nil
		case <-ctx.Done():
			return ctx.Err()
		case <-t.C:
			beat.Store(ent.beat.Load())
		}
	}
}

// recordSim is runSim in record mode: same build, same output check, plus
// the captured trace. A failed output check discards the trace — a
// miscomputing front-end must not be replayed into N configurations.
func (e *engine) recordSim(ctx context.Context, b *kernels.Benchmark, c sim.Config, beat *atomic.Uint64) (*sim.Result, *exectrace.Launch, error) {
	e.tuneSMParallel(&c)
	g, err := sim.New(c)
	if err != nil {
		return nil, nil, err
	}
	inst, err := b.Build(g.Mem(), e.scale)
	if err != nil {
		return nil, nil, fmt.Errorf("%s: build: %w", b.Name, err)
	}
	res, lt, err := g.RecordContextBeat(ctx, inst.Launch, beat)
	if err != nil {
		return nil, nil, fmt.Errorf("%s: %w", b.Name, err)
	}
	if err := inst.Check(g.Mem()); err != nil {
		return res, nil, fmt.Errorf("%s: %w: %w", b.Name, ErrOutputMismatch, err)
	}
	return res, lt, nil
}

// replaySim drives the timing back-end from a recorded trace. There is no
// benchmark build and no output check: replay never touches device memory,
// and functional correctness was already established when the trace was
// recorded.
func (e *engine) replaySim(ctx context.Context, name string, c sim.Config, lt *exectrace.Launch, beat *atomic.Uint64) (*sim.Result, error) {
	e.tuneSMParallel(&c)
	g, err := sim.New(c)
	if err != nil {
		return nil, err
	}
	res, err := g.ReplayContextBeat(ctx, lt, beat)
	if err != nil {
		return nil, fmt.Errorf("%s: replay: %w", name, err)
	}
	return res, nil
}
