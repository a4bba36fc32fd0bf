package experiments

import (
	"repro/internal/core"
	"repro/internal/energy"
	"repro/internal/kernels"
	"repro/internal/sim"
)

// Nearly every exhibit of the paper's §6 is one computation: for each
// benchmark, read a value from one configuration's run, usually against
// that benchmark's baseline run, and average over the suite. An entry
// declares such an exhibit as columns, and build fills it. The six
// exhibits of another shape (static tables, per-bank rows, failures as
// data, kernel metadata) give a run function instead.

// entry is one regenerable exhibit. Its id, title and notes are named here
// and nowhere else.
type entry struct {
	id, title string
	// notes is the paper-vs-measured commentary. A run function may treat
	// it as a format string and fill in values it computes.
	notes string
	// ladder selects the fixed GEMM tiling ladder as the rows instead of
	// the Runner's benchmark suite.
	ladder bool
	cols   []column
	// run assembles an exhibit build cannot express. It receives the table
	// with ID, Title and Notes set.
	run   func(*Runner, *Table) error
	claim *Claim // the paper's quantitative headline, if the exhibit makes one
}

// column is one value column of a built exhibit: the configuration it
// reads, the optional baseline configuration it is normalized against, and
// its value for one row (base is nil without a baseline).
type column struct {
	name  string
	cfg   setup
	base  setup
	value func(res, base *sim.Result) float64
}

// col is a column read from each row's run under cfg alone.
func col(name string, cfg setup, value func(res *sim.Result) float64) column {
	return column{name: name, cfg: cfg, value: func(res, _ *sim.Result) float64 { return value(res) }}
}

// vs is a column read from each row's run under cfg against its run under
// base.
func vs(name string, cfg, base setup, value func(res, base *sim.Result) float64) column {
	return column{name: name, cfg: cfg, base: base, value: value}
}

// setup derives one experiment configuration from the Runner's base
// configuration (Table 2 defaults unless WithBaseConfig).
type setup func(base sim.Config) sim.Config

var (
	// warped is warped-compression as the base configures it.
	warped setup = func(c sim.Config) sim.Config { return c }
	// baseline is the paper's uncompressed, ungated register file.
	baseline setup = sim.Baseline
	// characterize is the paper §3 measurement setup: an uncompressed
	// register file instrumented to classify every register write.
	characterize = with(baseline, func(c *sim.Config) { c.CharacterizeWrites = true })
)

// with derives a setup from s by changing some fields.
func with(s setup, set func(*sim.Config)) setup {
	return func(base sim.Config) sim.Config {
		c := s(base)
		set(&c)
		return c
	}
}

// compression is the base under another compression setting; it replaces
// the base's own, so an exhibit that names its settings reads the same
// under every runner base.
func compression(name string) setup {
	return with(warped, func(c *sim.Config) { c.Compression = name })
}

// scheme is warped-compression running a specific registered backend at
// that backend's own codec latencies (energy.CostOfScheme). Every backend
// name is also the name of its compression setting, so the scheme families
// compare schemes even when the runner's base config disables compression.
func scheme(name string) setup {
	return with(compression(name), func(c *sim.Config) {
		cost := energy.CostOfScheme(name)
		c.CompressLatency = cost.CompressLatency
		c.DecompressLatency = cost.DecompressLatency
	})
}

// config resolves a setup against the Runner's base configuration.
func (r *Runner) config(s setup) sim.Config { return s(r.baseConfig()) }

// build fills a column exhibit. Each distinct configuration (by signature)
// runs once, in first-use order, a column's baseline before its own
// configuration; each pass re-applies the partial-mode failure filter to
// the row set. Then every surviving row is emitted in row-set order,
// followed by the AVG row.
func (r *Runner) build(e *entry, t *Table) error {
	rows := r.benchmarks
	if e.ladder {
		rows = r.ladder
	}
	var cfgs []sim.Config
	index := map[string]int{}
	use := func(s setup) int {
		if s == nil {
			return -1
		}
		c := r.config(s)
		k := ConfigSignature(&c)
		i, ok := index[k]
		if !ok {
			i = len(cfgs)
			index[k] = i
			cfgs = append(cfgs, c)
		}
		return i
	}
	type ref struct{ cfg, base int }
	refs := make([]ref, len(e.cols))
	for i, c := range e.cols {
		t.Columns = append(t.Columns, c.name)
		refs[i].base = use(c.base)
		refs[i].cfg = use(c.cfg)
	}

	results := make([]map[string]*sim.Result, len(cfgs))
	for i, c := range cfgs {
		benches, err := rows()
		if err != nil {
			return err
		}
		results[i] = map[string]*sim.Result{}
		if err := r.forEach(benches, c, func(b *kernels.Benchmark, res *sim.Result) error {
			results[i][b.Name] = res
			return nil
		}); err != nil {
			return err
		}
	}

	benches, err := rows()
	if err != nil {
		return err
	}
	for _, b := range benches {
		vals := make([]float64, len(e.cols))
		for j, c := range e.cols {
			var base *sim.Result
			if refs[j].base >= 0 {
				base = results[refs[j].base][b.Name]
			}
			vals[j] = c.value(results[refs[j].cfg][b.Name], base)
		}
		t.AddRow(b.Name, vals...)
	}
	t.AddAverage()
	return nil
}

// Values several exhibits share.

// cycleRatio is execution time normalized to the baseline run.
func cycleRatio(res, base *sim.Result) float64 {
	return float64(res.Cycles) / float64(base.Cycles)
}

// energyRatio is register file energy costed with p over the baseline
// run's energy costed with baseP.
func energyRatio(p, baseP energy.Params) func(res, base *sim.Result) float64 {
	return func(res, base *sim.Result) float64 {
		return energy.Compute(p, res.Energy).TotalPJ() / energy.Compute(baseP, base.Energy).TotalPJ()
	}
}

// energyVsBaseline is energyRatio at the Table 3 constants.
var energyVsBaseline = energyRatio(energy.DefaultParams(), energy.DefaultParams())

// writeRatio is the overall write compression ratio: original over
// compressed write banks, both phases; 1 when nothing compressed.
func writeRatio(res *sim.Result) float64 {
	s := res.Stats
	orig := s.WriteOrigBanks[0] + s.WriteOrigBanks[1]
	comp := s.WriteCompBanks[0] + s.WriteCompBanks[1]
	if comp == 0 {
		return 1
	}
	return float64(orig) / float64(comp)
}

// perScheme builds one column per registered scheme, in registry order
// (core.Schemes): registering a scheme extends every scheme family.
func perScheme(each func(name string) column) []column {
	var cols []column
	for _, name := range core.Schemes() {
		cols = append(cols, each(name))
	}
	return cols
}

// schemeEnergy is register file energy under one scheme, costed with that
// scheme's own unit energies (energy.ParamsForScheme, estimates for
// non-bdi), over the no-compression baseline. A cheap codec with a worse
// ratio can still win here.
func schemeEnergy(name string) column {
	return vs(name, scheme(name), baseline, energyRatio(energy.ParamsForScheme(name), energy.DefaultParams()))
}

// schemeTime is execution time under one scheme at its own codec
// latencies, over the no-compression baseline.
func schemeTime(name string) column {
	return vs(name, scheme(name), baseline, cycleRatio)
}
