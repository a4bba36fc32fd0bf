package experiments

import (
	"fmt"
	"sort"

	"repro/internal/kernels"
	"repro/internal/sim"
)

// Runner executes benchmarks under experiment configurations on the
// parallel engine, memoizing results so shared configurations (e.g. the
// default warped-compression run used by Figs 8-13) simulate only once —
// even when several exhibits request them concurrently. Build one with New.
type Runner struct {
	cfg config
	eng *engine

	// failures, when non-nil, switches forEach into partial mode: job
	// failures are recorded here and the failing benchmarks skipped,
	// instead of aborting the exhibit. Only RunPartial sets it.
	failures *failureSink
}

// Parallelism reports how many simulations the runner may execute
// concurrently.
func (r *Runner) Parallelism() int { return r.eng.parallelism }

// benchmarks resolves the benchmark list, rejecting unknown and repeated
// names. In partial mode it also drops benchmarks that already failed:
// exhibits assemble their final rows from a fresh benchmarks() call, so
// filtering here keeps their row loops — and the maps those loops index —
// consistent with what forEach actually ran.
func (r *Runner) benchmarks() ([]*kernels.Benchmark, error) {
	var out []*kernels.Benchmark
	if r.cfg.benchmarks == nil {
		out = kernels.All()
	} else {
		for _, name := range r.cfg.benchmarks {
			b, ok := kernels.ByName(name)
			if !ok {
				return nil, fmt.Errorf("experiments: unknown benchmark %q (have %v)", name, kernels.Names())
			}
			out = append(out, b)
		}
		sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
		for i := 1; i < len(out); i++ {
			if out[i].Name == out[i-1].Name {
				return nil, fmt.Errorf("experiments: benchmark %q named twice", out[i].Name)
			}
		}
	}
	if r.failures != nil {
		out = r.failures.filter(out)
	}
	return out, nil
}

// baseConfig returns the hardware configuration experiments start from.
func (r *Runner) baseConfig() sim.Config {
	if r.cfg.base != nil {
		return *r.cfg.base
	}
	return sim.DefaultConfig()
}

// run simulates one benchmark under one configuration through the engine's
// single-flight memo cache.
func (r *Runner) run(b *kernels.Benchmark, c sim.Config) (*sim.Result, error) {
	return r.eng.run(b, c)
}

// forEach runs benches under config c in parallel across the engine's
// worker pool, then calls fn once per benchmark in list order. The
// sequential fn pass is the determinism contract: exhibit tables are
// assembled in the same order at every parallelism level.
//
// In strict mode (Run/RunAll) the first failure — first in list order, not
// by wall clock — aborts the exhibit. In partial mode (RunPartial) a
// failing benchmark is recorded in the failure sink and skipped here and in
// every later pass, so one broken job costs one row, not the suite.
func (r *Runner) forEach(benches []*kernels.Benchmark, c sim.Config, fn func(b *kernels.Benchmark, res *sim.Result) error) error {
	results, errs := r.eng.runAll(benches, c)
	if r.failures == nil {
		if err := firstError(errs); err != nil {
			return err
		}
	}
	for i, b := range benches {
		if errs[i] != nil {
			r.failures.record(b.Name, sig(&c), errs[i])
			continue
		}
		if err := fn(b, results[i]); err != nil {
			return err
		}
	}
	return nil
}

// prefetch schedules every selected benchmark under each config without
// waiting for results, warming the memo cache so subsequent forEach passes
// over the same configs run fully parallel instead of config-by-config.
// Errors are deliberately ignored here: the forEach that consumes a result
// reports them. No-op at parallelism 1.
func (r *Runner) prefetch(cfgs ...sim.Config) {
	if r.eng.parallelism == 1 {
		return
	}
	benches, err := r.benchmarks()
	if err != nil {
		return
	}
	for _, c := range cfgs {
		go func(c sim.Config) { _, _ = r.eng.runAll(benches, c) }(c)
	}
}

// IDs lists every regenerable exhibit in paper order.
func IDs() []string {
	out := make([]string, len(exhibits))
	for i, e := range exhibits {
		out[i] = e.id
	}
	return out
}

// Title returns the exhibit's caption, the title its table renders.
func Title(id string) (string, bool) {
	if e := lookup(id); e != nil {
		return e.title, true
	}
	return "", false
}

// lookup finds an exhibit by id; nil when there is none.
func lookup(id string) *entry {
	for i := range exhibits {
		if exhibits[i].id == id {
			return &exhibits[i]
		}
	}
	return nil
}

// Run regenerates one exhibit by id ("fig9", "table1", ...).
func (r *Runner) Run(id string) (*Table, error) {
	e := lookup(id)
	if e == nil {
		return nil, fmt.Errorf("experiments: unknown exhibit %q (have %v)", id, IDs())
	}
	return r.assemble(e)
}

// assemble regenerates one exhibit: through its run function when it has
// one, otherwise through build.
func (r *Runner) assemble(e *entry) (*Table, error) {
	t := &Table{ID: e.id, Title: e.title, Notes: e.notes}
	var err error
	if e.run != nil {
		err = e.run(r, t)
	} else {
		err = r.build(e, t)
	}
	if err != nil {
		return nil, err
	}
	return t, nil
}

// RunAll regenerates every exhibit in paper order. The memo cache is shared
// across exhibits, so each distinct (benchmark, configuration) pair
// simulates exactly once for the whole set. The first job failure (by
// benchmark name, deterministic across parallelism levels) aborts the run;
// use RunPartial to keep going and collect what succeeded.
func (r *Runner) RunAll() ([]*Table, error) {
	// Warm the cache with the two configurations nearly every exhibit
	// shares, so the first exhibits already run at full width.
	r.prefetch(r.config(baseline), r.config(warped))
	var out []*Table
	for i := range exhibits {
		e := &exhibits[i]
		t, err := r.assemble(e)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", e.id, err)
		}
		out = append(out, t)
	}
	return out, nil
}
