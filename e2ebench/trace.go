package main

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"sync"
	"time"

	"repro/internal/experiments"
	"repro/internal/kernels"
	"repro/internal/sim"
)

// recorder keeps a traced run's spans and per-layer counts in memory and
// writes the spans out when the run ends. Spans are recorded by this
// benchmark's own code around each call into a layer; no layer is
// instrumented from the inside. A nil *recorder records nothing, so
// untraced passes run the same code.
type recorder struct {
	origin time.Time

	mu     sync.Mutex
	nextID uint64
	spans  []span
	counts map[string]float64
}

// span is one timed call into a layer. Spans of one request share Req, and
// Parent names the span of the call that caused this one.
type span struct {
	ID     uint64 `json:"id"`
	Parent uint64 `json:"parent,omitempty"`
	Req    string `json:"req,omitempty"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

func newRecorder() *recorder {
	return &recorder{origin: time.Now(), counts: map[string]float64{}}
}

// id reserves a span id, so child spans can name a parent that has not
// ended yet.
func (r *recorder) id() uint64 {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.nextID++
	return r.nextID
}

// span records one call; id 0 draws a fresh id.
func (r *recorder) span(id, parent uint64, name, req string, start, end time.Time) {
	if r == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if id == 0 {
		r.nextID++
		id = r.nextID
	}
	r.spans = append(r.spans, span{id, parent, req, name, start.Sub(r.origin).Nanoseconds(), end.Sub(r.origin).Nanoseconds()})
}

// add accumulates a count.
func (r *recorder) add(name string, v float64) {
	if r == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.counts[name] += v
}

// max keeps the largest value seen under name.
func (r *recorder) max(name string, v float64) {
	if r == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.counts[name] = max(r.counts[name], v)
}

func (r *recorder) count(name string) float64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.counts[name]
}

// durations returns the length in seconds of every span called name.
func (r *recorder) durations(name string) []float64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	var out []float64
	for _, s := range r.spans {
		if s.Name == name {
			out = append(out, float64(s.End-s.Start)/1e9)
		}
	}
	return out
}

// write stores the spans as JSON lines.
func (r *recorder) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	r.mu.Lock()
	for _, s := range r.spans {
		if err == nil {
			err = enc.Encode(s)
		}
	}
	r.mu.Unlock()
	if err == nil {
		err = w.Flush()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}

// engineWatch times an experiments engine's simulations from its progress
// events, from dispatch to completion, and counts its memo cache hits.
type engineWatch struct {
	t   *tally // receives each simulation's latency; nil to only trace
	rec *recorder

	mu      sync.Mutex
	started map[string]time.Time
}

func newEngineWatch(t *tally, rec *recorder) *engineWatch {
	return &engineWatch{t: t, rec: rec, started: map[string]time.Time{}}
}

func (w *engineWatch) event(ev experiments.Event) {
	now := time.Now()
	key := fmt.Sprintf("%s|%s|%d", ev.Benchmark, ev.Config, ev.Attempt)
	w.mu.Lock()
	defer w.mu.Unlock()
	switch ev.Kind {
	case experiments.EventJobStart:
		w.started[key] = now
	case experiments.EventJobDone:
		start := w.started[key]
		delete(w.started, key)
		w.rec.span(0, 0, "experiments.job", ev.Benchmark, start, now)
		if w.t != nil && ev.Err == nil {
			w.t.job(now.Sub(start))
			w.t.simulatedBench(ev.Benchmark)
		}
	case experiments.EventCacheHit:
		w.rec.add("experiments.cache_hits", 1)
	}
}

// execute runs one kernel the way a simulator user does: a fresh GPU, the
// benchmark's input builder, the launch and the host-reference check. It
// returns the simulation's own duration alongside the result.
func execute(ctx context.Context, rec *recorder, b *kernels.Benchmark, cfg sim.Config, scale kernels.Scale) (*sim.Result, time.Duration, error) {
	job := rec.id()
	t0 := time.Now()
	g, err := sim.New(cfg)
	if err != nil {
		return nil, 0, err
	}
	inst, err := b.Build(g.Mem(), scale)
	if err != nil {
		return nil, 0, fmt.Errorf("%s: build: %w", b.Name, err)
	}
	t1 := time.Now()
	res, err := g.RunContext(ctx, inst.Launch)
	if err != nil {
		return nil, 0, fmt.Errorf("%s: %w", b.Name, err)
	}
	t2 := time.Now()
	err = inst.Check(g.Mem())
	t3 := time.Now()
	rec.span(0, job, "kernels.build", b.Name, t0, t1)
	rec.span(0, job, "sim.run", b.Name, t1, t2)
	rec.span(0, job, "kernels.check", b.Name, t2, t3)
	rec.span(job, 0, "job.execute", b.Name, t0, t3)
	if err != nil {
		return res, 0, fmt.Errorf("%s: output check: %w", b.Name, err)
	}
	return res, t2.Sub(t1), nil
}
