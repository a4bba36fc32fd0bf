package experiments

import (
	"fmt"
	"sort"

	"repro/internal/energy"
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

// benchmarks resolves the benchmark list. In partial mode it also drops
// benchmarks that already failed: exhibits assemble their final rows from a
// fresh benchmarks() call, so filtering here keeps their row loops — and
// the maps those loops index — consistent with what forEach actually ran.
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

// Experiment configurations (derived from Table 2 defaults).

func (r *Runner) cfgWarped() sim.Config { return r.baseConfig() }

func (r *Runner) cfgBaseline() sim.Config { return sim.Baseline(r.baseConfig()) }

// cfgCharacterize is the paper §3 measurement setup: an uncompressed
// register file instrumented to classify every register write.
func (r *Runner) cfgCharacterize() sim.Config {
	c := r.cfgBaseline()
	c.CharacterizeWrites = true
	return c
}

func (r *Runner) cfgScheduler(policy string, compressed bool) sim.Config {
	var c sim.Config
	if compressed {
		c = r.cfgWarped()
	} else {
		c = r.cfgBaseline()
	}
	c.Scheduler = policy
	return c
}

// cfgCompression is the base configuration under another compression
// setting; it replaces the base's own, so an exhibit that names its
// settings reads the same under every runner base.
func (r *Runner) cfgCompression(name string) sim.Config {
	c := r.cfgWarped()
	c.Compression = name
	return c
}

// cfgScheme is warped-compression running a specific registered backend at
// that backend's own codec latencies (energy.CostOfScheme). Every backend
// name is also the name of its compression setting, so the cmp1-schemes
// family compares schemes even when the runner's base config disables
// compression.
func (r *Runner) cfgScheme(scheme string) sim.Config {
	c := r.cfgCompression(scheme)
	cost := energy.CostOfScheme(scheme)
	c.CompressLatency = cost.CompressLatency
	c.DecompressLatency = cost.DecompressLatency
	return c
}

func (r *Runner) cfgCompLatency(lat int) sim.Config {
	c := r.cfgWarped()
	c.CompressLatency = lat
	return c
}

func (r *Runner) cfgDecompLatency(lat int) sim.Config {
	c := r.cfgWarped()
	c.DecompressLatency = lat
	return c
}

// run simulates one benchmark under one configuration through the engine's
// single-flight memo cache.
func (r *Runner) run(b *kernels.Benchmark, c sim.Config) (*sim.Result, error) {
	return r.eng.run(b, c)
}

// forEach runs every selected benchmark under config c in parallel across
// the engine's worker pool, then calls fn once per benchmark in name order.
// The sequential fn pass is the determinism contract: exhibit tables are
// assembled in the same order at every parallelism level.
//
// In strict mode (Run/RunAll) the first failure — first by benchmark name,
// not by wall clock — aborts the exhibit. In partial mode (RunPartial) a
// failing benchmark is recorded in the failure sink and skipped here and in
// every later exhibit, so one broken job costs one row, not the suite.
func (r *Runner) forEach(c sim.Config, fn func(b *kernels.Benchmark, res *sim.Result) error) error {
	benches, err := r.benchmarks()
	if err != nil {
		return err
	}
	return r.forEachOf(benches, c, fn)
}

// forEachOf is forEach over an explicit benchmark list — the family
// exhibits (gemm1-tiling) run a fixed workload set regardless of the
// runner's benchmark selection.
func (r *Runner) forEachOf(benches []*kernels.Benchmark, c sim.Config, fn func(b *kernels.Benchmark, res *sim.Result) error) error {
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

// exhibit describes one regenerable table/figure.
type exhibit struct {
	id    string
	title string
	run   func(*Runner) (*Table, error)
}

var exhibits = []exhibit{
	{"table1", "Possible combinations of chunk size", (*Runner).Table1},
	{"table2", "GPU microarchitectural parameters", (*Runner).Table2},
	{"table3", "Estimated energy and power values (@45nm)", (*Runner).Table3},
	{"fig2", "Characterization of register values", (*Runner).Fig2},
	{"fig3", "Ratio of non-diverged warp instructions", (*Runner).Fig3},
	{"fig5", "Breakdown of <base,delta> values for best compression", (*Runner).Fig5},
	{"fig8", "Compression ratio (non-divergent vs divergent)", (*Runner).Fig8},
	{"fig9", "Register file energy consumption", (*Runner).Fig9},
	{"fig10", "Portion of power-gated cycles for each bank", (*Runner).Fig10},
	{"fig11", "Portion of dummy MOV instructions", (*Runner).Fig11},
	{"fig12", "Portion of compressed registers", (*Runner).Fig12},
	{"fig13", "Impact on execution time", (*Runner).Fig13},
	{"fig14", "Energy reduction: GTO and LRR warp schedulers", (*Runner).Fig14},
	{"fig15", "Compression ratio for various compression parameters", (*Runner).Fig15},
	{"fig16", "Energy consumption for various compression parameters", (*Runner).Fig16},
	{"fig17", "Energy vs compression/decompression unit activation energy", (*Runner).Fig17},
	{"fig18", "Energy vs per-bank access energy", (*Runner).Fig18},
	{"fig19", "Impact of wire activity", (*Runner).Fig19},
	{"fig20", "Execution time vs compression latency", (*Runner).Fig20},
	{"fig21", "Execution time vs decompression latency", (*Runner).Fig21},
	// Ablations beyond the paper's figures (design choices of §5.1-5.3).
	{"abl1-divergence", "Divergence policy: dummy-MOV vs recompress", (*Runner).AblDivergence},
	{"abl2-gating", "Contribution of bank power gating", (*Runner).AblGating},
	{"abl3-units", "Compressor/decompressor pool sizing", (*Runner).AblUnits},
	{"abl4-rfc", "Warped-compression vs register file cache", (*Runner).AblRFC},
	{"abl5-drowsy", "Warped-compression vs drowsy register file", (*Runner).AblDrowsy},
	// Robustness exhibit: behaviour under injected register-file faults.
	{"flt1-faults", "Kernel correctness and energy under injected register faults", (*Runner).FaultInjection},
	// Cross-scheme design space: the registered compression backends
	// (schemes/v1) compared on ratio, energy and execution time.
	{"cmp1-schemes-ratio", "Compression ratio across registered schemes", (*Runner).SchemesRatio},
	{"cmp1-schemes-energy", "Register file energy across registered schemes", (*Runner).SchemesEnergy},
	{"cmp1-schemes-overhead", "Execution time across registered schemes", (*Runner).SchemesOverhead},
	// GEMM tiling ladder: the compute-dense workload family (gemm_naive →
	// gemm_reg) under every registered scheme, plus the shared-memory bank
	// model's view of the same ladder.
	{"gemm1-tiling-ratio", "GEMM tiling ladder: compression ratio per scheme", (*Runner).GemmTilingRatio},
	{"gemm1-tiling-energy", "GEMM tiling ladder: register file energy per scheme", (*Runner).GemmTilingEnergy},
	{"gemm1-tiling-time", "GEMM tiling ladder: execution time per scheme", (*Runner).GemmTilingTime},
	{"gemm1-tiling-shared", "GEMM tiling ladder: shared-memory bank behavior and register pressure", (*Runner).GemmTilingShared},
}

// IDs lists every regenerable exhibit in paper order.
func IDs() []string {
	out := make([]string, len(exhibits))
	for i, e := range exhibits {
		out[i] = e.id
	}
	return out
}

// Title returns the exhibit's paper caption.
func Title(id string) (string, bool) {
	for _, e := range exhibits {
		if e.id == id {
			return e.title, true
		}
	}
	return "", false
}

// Run regenerates one exhibit by id ("fig9", "table1", ...).
func (r *Runner) Run(id string) (*Table, error) {
	for _, e := range exhibits {
		if e.id == id {
			return e.run(r)
		}
	}
	return nil, fmt.Errorf("experiments: unknown exhibit %q (have %v)", id, IDs())
}

// RunAll regenerates every exhibit in paper order. The memo cache is shared
// across exhibits, so each distinct (benchmark, configuration) pair
// simulates exactly once for the whole set. The first job failure (by
// benchmark name, deterministic across parallelism levels) aborts the run;
// use RunPartial to keep going and collect what succeeded.
func (r *Runner) RunAll() ([]*Table, error) {
	// Warm the cache with the two configurations nearly every exhibit
	// shares, so the first exhibits already run at full width.
	r.prefetch(r.cfgBaseline(), r.cfgWarped())
	var out []*Table
	for _, e := range exhibits {
		t, err := e.run(r)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", e.id, err)
		}
		out = append(out, t)
	}
	return out, nil
}
