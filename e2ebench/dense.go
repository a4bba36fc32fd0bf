package main

import (
	"bytes"
	"context"
	"fmt"
	"runtime"
	"sync"
	"time"

	"repro/internal/experiments"
	"repro/internal/kernels"
	"repro/internal/sim"
)

// denseExhibits regenerates five exhibits with the experiment Runner over
// compute-dense kernels at Medium scale, a fresh Runner each pass.
// Issue-slot use is 53-84%, so compression choice, register-file banks and
// shared-bank analysis dominate. The Runner records each kernel once and
// replays every other configuration, and its memo and single-flight dedup
// serve the configurations the exhibits share. Fast-forwarding idle cycles
// should not move it.
type denseExhibits struct {
	scale    kernels.Scale
	par      int
	names    []string // benchmarks, in seed order
	exhibits []string // in seed order
	tables   map[string][]byte
}

func newDenseExhibits(o options) (workload, error) {
	names := []string{"aes", "gemm_block", "gemm_naive", "kmeans", "lud", "pathfinder"}
	exhibits := []string{"fig9", "fig13", "fig20", "cmp1-schemes-energy", "cmp1-schemes-overhead"}
	scale := kernels.Medium
	if o.quick {
		names, exhibits, scale = []string{"kmeans", "pathfinder"}, []string{"fig13", "fig20"}, kernels.Small
	}
	if _, err := lookup(names); err != nil {
		return nil, err
	}
	return &denseExhibits{
		scale: scale,
		par:   runtime.NumCPU(),
		// The Runner sorts its benchmarks, so the seed's order only
		// changes the order they are handed over in; the exhibit order
		// changes which exhibit simulates a shared configuration first.
		names:    shuffled(names, o.seed, 1),
		exhibits: shuffled(exhibits, o.seed, 2),
		tables:   map[string][]byte{},
	}, nil
}

func (d *denseExhibits) runner(ctx context.Context, progress experiments.ProgressFunc) (*experiments.Runner, error) {
	return experiments.New(ctx,
		experiments.WithScale(d.scale),
		experiments.WithParallelism(d.par),
		experiments.WithBenchmarks(d.names...),
		experiments.WithProgress(progress))
}

func (d *denseExhibits) setup(ctx context.Context) error {
	if _, err := d.runner(ctx, nil); err != nil {
		return err
	}
	benches, err := lookup(d.names)
	if err != nil {
		return err
	}
	for _, b := range benches {
		if err := build(b, sim.DefaultConfig(), d.scale); err != nil {
			return err
		}
	}
	return nil
}

func (d *denseExhibits) pass(ctx context.Context, t *tally, rec *recorder) error {
	r, err := d.runner(ctx, newEngineWatch(t, rec).event)
	if err != nil {
		return err
	}
	start := time.Now()
	for _, id := range d.exhibits {
		t0 := time.Now()
		tab, err := r.Run(id)
		rec.span(0, 0, "experiments.exhibit", id, t0, time.Now())
		if ctx.Err() != nil {
			return ctx.Err()
		}
		if err == nil {
			err = d.sameAsFirst(id, tab)
		}
		t.op(err)
	}
	rec.add("experiments.capacity_s", time.Since(start).Seconds()*float64(d.par))
	return nil
}

// sameAsFirst compares an exhibit's rendering with the first pass's.
func (d *denseExhibits) sameAsFirst(id string, tab *experiments.Table) error {
	var buf bytes.Buffer
	if err := tab.Render(&buf); err != nil {
		return err
	}
	first, ok := d.tables[id]
	if !ok {
		d.tables[id] = buf.Bytes()
		return nil
	}
	if !bytes.Equal(first, buf.Bytes()) {
		return fmt.Errorf("%s: table differs from the first pass", id)
	}
	return nil
}

// check executes every kernel under the paper's configuration through a
// separate engine, without record/replay: the canonical results.
func (d *denseExhibits) check(ctx context.Context, t *tally, rec *recorder) ([]namedResult, error) {
	benches, err := lookup(d.names)
	if err != nil {
		return nil, err
	}
	cfg := sim.DefaultConfig()
	jobs := make([]directJob, len(benches))
	for i, b := range benches {
		jobs[i] = directJob{b, cfg}
	}
	results, errs := runDirect(ctx, d.scale, d.par, jobs, rec)
	var out []namedResult
	for i, b := range benches {
		t.op(errs[i])
		if errs[i] == nil {
			out = append(out, namedResult{b.Name, cfg, results[i]})
		}
	}
	sortResults(out)
	return out, ctx.Err()
}

func (d *denseExhibits) probe() probeSpec {
	benches, _ := lookup(d.names)
	cfg := sim.DefaultConfig()
	cfg.SMParallel = 1 // as the Runner's jobs run: its cores go to parallel jobs
	return probeSpec{benches: benches, cfg: cfg, scale: d.scale, serve: true}
}

func (d *denseExhibits) parallelism() (int, int) { return 1, d.par }

// directJob is one simulation of the independent reference.
type directJob struct {
	bench *kernels.Benchmark
	cfg   sim.Config
}

// runDirect executes jobs through a fresh experiments engine, the
// independent reference workloads check their outputs against.
func runDirect(ctx context.Context, scale kernels.Scale, par int, jobs []directJob, rec *recorder) ([]*sim.Result, []error) {
	eng := experiments.NewEngine(ctx, experiments.EngineConfig{
		Parallelism: par,
		Scale:       scale,
		Memoize:     true,
		Progress:    newEngineWatch(nil, rec).event,
	})
	results := make([]*sim.Result, len(jobs))
	errs := make([]error, len(jobs))
	start := time.Now()
	var wg sync.WaitGroup
	for i, j := range jobs {
		wg.Add(1)
		go func(i int, j directJob) {
			defer wg.Done()
			results[i], errs[i] = eng.Run(j.bench, j.cfg)
		}(i, j)
	}
	wg.Wait()
	rec.add("experiments.capacity_s", time.Since(start).Seconds()*float64(par))
	return results, errs
}
