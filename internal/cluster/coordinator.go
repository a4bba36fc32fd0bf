// Package cluster turns a fleet of warpedd workers into one logical
// simulation service: a coordinator that shards an experiment campaign
// (internal/sweep) across workers over the public /v1/jobs HTTP API.
//
// Placement is rendezvous hashing on the job key — benchmark name plus
// the versioned experiments.ConfigSignature — so a configuration always
// lands on the same worker while the fleet is stable. That single
// decision extends both single-node caching layers cluster-wide: repeat
// configurations hit their home worker's result tier, and concurrent
// duplicates coalesce in its single-flight engine. Health is tracked by a
// registry (periodic /readyz probes, exponential-backoff quarantine);
// per-job progress is multiplexed from the workers' SSE feeds, resuming
// broken streams with Last-Event-ID; transient failures retry on the same
// worker and a dead worker's jobs fail over to the next rendezvous
// candidate. The merged campaign report is deterministic — byte-identical
// to a single-node run of the same spec. See DESIGN.md §14.
package cluster

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"strings"
	"sync"
	"time"

	"repro/internal/experiments"
	"repro/internal/jobs"
	"repro/internal/sweep"
)

// Options tunes a Coordinator. The zero value is usable.
type Options struct {
	// Concurrency bounds in-flight jobs across the whole cluster;
	// <= 0 means 4 per worker — enough to keep every worker's pool and
	// queue warm without flooding admission control.
	Concurrency int
	// WorkerAttempts is how many times a transiently failing operation
	// (queue-full submit, broken event stream) is retried against the
	// same worker before it is declared down (default 3).
	WorkerAttempts int
	// RetryBackoff is the delay before the first same-worker retry,
	// doubling per attempt (default 200ms).
	RetryBackoff time.Duration
	// Client issues all job traffic. The default has no global timeout:
	// SSE streams are long-lived by design, and every request carries the
	// sweep's context anyway.
	Client *http.Client
	// APIKey, when set, is sent as X-API-Key on every job request, for
	// fleets running with a -tenants roster.
	APIKey string
	// Progress, when set, receives coordinator events (calls serialized).
	Progress func(Event)
}

// Event is one entry of the coordinator's progress stream: job lifecycle
// decisions (placement, failover) plus the multiplexed per-job worker
// events.
type Event struct {
	// Kind: "assign", "cache-hit", "worker-event", "worker-down",
	// "failover", "done", "failed".
	Kind string
	// Job is the spec job's identity, "config/benchmark".
	Job string
	// Worker is the base URL of the worker involved.
	Worker string
	// Detail is human-readable context: the worker event kind, the
	// failure, the failover reason.
	Detail string
}

// Coordinator shards campaigns across a worker registry. Build with New.
type Coordinator struct {
	reg  *Registry
	api  *apiClient
	opts Options

	progressMu sync.Mutex
}

// New builds a Coordinator over reg.
func New(reg *Registry, opts Options) *Coordinator {
	if opts.Concurrency <= 0 {
		opts.Concurrency = 4 * len(reg.All())
	}
	if opts.WorkerAttempts <= 0 {
		opts.WorkerAttempts = 3
	}
	if opts.RetryBackoff <= 0 {
		opts.RetryBackoff = 200 * time.Millisecond
	}
	if opts.Client == nil {
		opts.Client = &http.Client{}
	}
	return &Coordinator{reg: reg, api: &apiClient{http: opts.Client, apiKey: opts.APIKey}, opts: opts}
}

// RunSweep executes every job of the spec across the cluster and merges
// the outcomes into the deterministic campaign report. Job-level failures
// do not abort the sweep — they become report entries (check
// Report.Failed) — but a canceled context does, returning its error.
func (c *Coordinator) RunSweep(ctx context.Context, spec *sweep.Spec) (*Report, error) {
	specJobs, err := spec.Jobs()
	if err != nil {
		return nil, err
	}
	entries := make([]Entry, len(specJobs))
	sem := make(chan struct{}, c.opts.Concurrency)
	var wg sync.WaitGroup
	for i, js := range specJobs {
		wg.Add(1)
		go func(i int, js sweep.Job) {
			defer wg.Done()
			select {
			case sem <- struct{}{}:
				defer func() { <-sem }()
			case <-ctx.Done():
				entries[i] = errorEntry(js, ctx.Err())
				return
			}
			entries[i] = c.runJob(ctx, js)
		}(i, js)
	}
	wg.Wait()
	if ctx.Err() != nil {
		return nil, fmt.Errorf("cluster: sweep %s aborted: %w", spec.Name, ctx.Err())
	}
	return &Report{Schema: ReportSchema, Name: spec.Name, Entries: entries}, nil
}

func errorEntry(js sweep.Job, err error) Entry {
	sig := experiments.ConfigSignature(&js.Config)
	return Entry{Config: js.Name, Benchmark: js.Benchmark, Signature: sig, Error: err.Error()}
}

// runJob places one job and sees it through to a result, failing over
// across workers as needed. Each worker is tried at most once per job: a
// worker that died mid-job may or may not have finished the simulation,
// so re-placing on a fresh candidate (whose engine dedups by signature
// anyway) is the at-most-once-per-worker discipline that keeps "every
// config simulated exactly once" true whenever the dead worker actually
// died.
func (c *Coordinator) runJob(ctx context.Context, js sweep.Job) Entry {
	sig := experiments.ConfigSignature(&js.Config)
	key := js.Benchmark + "|" + sig
	name := js.Name + "/" + js.Benchmark
	tried := make(map[string]bool)
	for {
		if ctx.Err() != nil {
			return errorEntry(js, ctx.Err())
		}
		worker := ""
		for _, cand := range c.reg.Candidates(key) {
			if !tried[cand] {
				worker = cand
				break
			}
		}
		if worker == "" {
			return errorEntry(js, fmt.Errorf("cluster: no workers left for %s after trying %d", name, len(tried)))
		}
		tried[worker] = true
		c.emit(Event{Kind: "assign", Job: name, Worker: worker})

		res, err := c.runOn(ctx, worker, js)
		switch {
		case err == nil:
			c.emit(Event{Kind: "done", Job: name, Worker: worker})
			return Entry{Config: js.Name, Benchmark: js.Benchmark, Signature: sig, Result: res.Result}
		case errors.Is(err, errWorkerDown):
			c.reg.MarkDown(worker, err)
			c.emit(Event{Kind: "worker-down", Job: name, Worker: worker, Detail: err.Error()})
			c.emit(Event{Kind: "failover", Job: name, Worker: worker})
			continue
		default:
			c.emit(Event{Kind: "failed", Job: name, Worker: worker, Detail: err.Error()})
			return errorEntry(js, err)
		}
	}
}

// runOn drives one job on one specific worker: submit (retrying
// queue-full rejections with backoff), then follow the event stream
// (resuming broken streams with Last-Event-ID), then fetch the
// authoritative final view. A nil error means the job reached a genuine
// result on this worker; errWorkerDown-wrapped errors tell runJob to fail
// over.
func (c *Coordinator) runOn(ctx context.Context, worker string, js sweep.Job) (jobs.JobView, error) {
	name := js.Name + "/" + js.Benchmark

	var view jobs.JobView
	var err error
	backoff := c.opts.RetryBackoff
	for attempt := 0; ; attempt++ {
		view, err = c.api.submit(ctx, worker, js.Benchmark, js.Config)
		if err == nil {
			break
		}
		if !errors.Is(err, errBusy) || attempt+1 >= c.opts.WorkerAttempts {
			if errors.Is(err, errBusy) {
				// Persistently full queue: treat as down so the job can
				// drain to a less loaded candidate.
				return view, workerDown(err)
			}
			return view, err
		}
		if !sleep(ctx, backoff) {
			return view, ctx.Err()
		}
		backoff *= 2
	}
	if view.Cached {
		c.emit(Event{Kind: "cache-hit", Job: name, Worker: worker})
	}
	if terminalState(view.State) {
		return finalView(view)
	}

	lastSeq := -1
	for attempt := 0; ; {
		_, last, err := c.api.stream(ctx, worker, view.ID, lastSeq, func(se sseEvent) {
			c.emit(Event{Kind: "worker-event", Job: name, Worker: worker, Detail: se.ev.Kind})
		})
		lastSeq = last
		if err == nil {
			// The stream saw a terminal event; the GET view is the
			// authoritative copy of the result.
			final, err := c.api.fetchJob(ctx, worker, view.ID)
			if err != nil {
				return final, err
			}
			return finalView(final)
		}
		if ctx.Err() != nil {
			return view, ctx.Err()
		}
		attempt++
		if attempt >= c.opts.WorkerAttempts {
			return view, err // workerDown-wrapped by stream
		}
		if !sleep(ctx, c.opts.RetryBackoff) {
			return view, ctx.Err()
		}
	}
}

// finalView classifies a terminal job view. Failures that are really the
// worker's lifecycle (shutdown, drain, canceled engine) come back as
// errWorkerDown so the coordinator fails over; genuine simulation
// failures are job errors and land in the report.
func finalView(view jobs.JobView) (jobs.JobView, error) {
	switch view.State {
	case jobs.StateDone:
		if view.Result == nil {
			return view, workerDown(fmt.Errorf("job %s done without a result", view.ID))
		}
		return view, nil
	case jobs.StateFailed:
		if isWorkerLifecycleError(view.Error) {
			return view, workerDown(fmt.Errorf("job %s: %s", view.ID, view.Error))
		}
		return view, fmt.Errorf("cluster: job %s failed: %s", view.ID, view.Error)
	default:
		return view, workerDown(fmt.Errorf("job %s stream ended in non-terminal state %s", view.ID, view.State))
	}
}

// isWorkerLifecycleError spots job failures caused by the worker process
// going away rather than by the simulation: jobs.ErrShutdown, drain
// rejections and engine-context cancellation. These jobs deserve a second
// chance on another worker.
func isWorkerLifecycleError(msg string) bool {
	for _, marker := range []string{
		"manager shut down",
		"draining",
		"context canceled",
	} {
		if strings.Contains(msg, marker) {
			return true
		}
	}
	return false
}

func terminalState(s jobs.State) bool {
	return s == jobs.StateDone || s == jobs.StateFailed
}

// sleep waits d or until ctx cancels; it reports whether the full wait
// elapsed.
func sleep(ctx context.Context, d time.Duration) bool {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return true
	case <-ctx.Done():
		return false
	}
}

func (c *Coordinator) emit(ev Event) {
	if c.opts.Progress == nil {
		return
	}
	c.progressMu.Lock()
	defer c.progressMu.Unlock()
	c.opts.Progress(ev)
}
