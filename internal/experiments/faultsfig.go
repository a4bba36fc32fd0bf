package experiments

import (
	"errors"
	"math"

	"repro/internal/energy"
	"repro/internal/faults"
	"repro/internal/kernels"
	"repro/internal/sim"
)

// faultSeed and faultStuckBanks define the exhibit's injected fault
// campaign: two permanently stuck-at banks per SM (at most two per 8-bank
// cluster, within RRCD's redirection headroom for the common encodings),
// deterministically placed from the seed.
const (
	faultSeed       = 42
	faultStuckBanks = 2
)

// faultMaxCycles bounds faulty runs: a corrupted loop counter or branch
// target can spin a kernel forever, and the exhibit classifies that as an
// incorrect outcome rather than waiting out the default 200M-cycle budget.
const faultMaxCycles = 20_000_000

// cfgFaulty layers the exhibit's fault campaign onto a base configuration.
// Redirect stays off for uncompressed configs: sim.Config.Validate rejects
// RRCD without compression, since only compressed registers can move banks.
func cfgFaulty(c sim.Config, redirect bool) sim.Config {
	c.Faults = faults.Config{Seed: faultSeed, StuckAtBanks: faultStuckBanks, Redirect: redirect}
	c.MaxCycles = faultMaxCycles
	return c
}

// faultInjection is the robustness exhibit: each benchmark runs against a
// register file with two stuck-at banks per SM, under the uncompressed
// baseline, warped-compression, and warped-compression with RRCD
// redirection. Columns report whether the kernel still computed correct
// output (1/0) and the faulty runs' register-file energy relative to the
// clean baseline (n/a when the run crashed before producing counters).
// Unlike every other exhibit this one treats job failures as data: a
// corrupted address register typically kills the launch (wild access) or
// wedges it (MaxCycles), and both simply score as incorrect.
func faultInjection(r *Runner, t *Table) error {
	t.Columns = []string{
		"ok base", "ok wc", "ok wc+rrcd", "redirected writes",
		"E wc/clean", "E rrcd/clean",
	}
	benches, err := r.benchmarks()
	if err != nil {
		return err
	}
	params := energy.DefaultParams()
	clean := r.config(baseline)
	cfgBase := cfgFaulty(clean, false)
	cfgWC := cfgFaulty(r.config(warped), false)
	cfgRRCD := cfgFaulty(r.config(warped), true)
	r.prefetch(cfgBase, cfgWC, cfgRRCD)

	for _, b := range benches {
		cleanRes, err := r.eng.run(b, clean)
		if err != nil {
			// The clean baseline failing is a simulator bug, not a fault
			// outcome — in strict mode that aborts the exhibit.
			if r.failures != nil {
				r.failures.record(b.Name, ConfigSignature(&clean), err)
				continue
			}
			return err
		}
		cleanPJ := energy.Compute(params, cleanRes.Energy).TotalPJ()

		okBase, _, _ := r.faultOutcome(b, cfgBase, params, math.NaN())
		okWC, ePJ, _ := r.faultOutcome(b, cfgWC, params, cleanPJ)
		okRRCD, eRRCD, redir := r.faultOutcome(b, cfgRRCD, params, cleanPJ)
		t.AddRow(b.Name, okBase, okWC, okRRCD, redir, ePJ, eRRCD)
	}
	t.AddAverage()
	return nil
}

// faultOutcome runs one faulty job tolerantly and scores it: ok is 1 when
// the kernel produced correct output, 0 on mismatch, crash or cycle-budget
// exhaustion. energyRatio is the run's energy over cleanPJ, NaN when the
// run died without counters (or cleanPJ is NaN). redirected is the RRCD
// redirected-write count (0 when redirection is off or the run crashed).
func (r *Runner) faultOutcome(b *kernels.Benchmark, c sim.Config, params energy.Params, cleanPJ float64) (ok, energyRatio, redirected float64) {
	res, err := r.eng.run(b, c)
	ok = 1
	if err != nil {
		ok = 0
		// An output mismatch still carries the run's result; anything
		// else (wild access, ErrMaxCycles, internal fault) has none.
		if !errors.Is(err, ErrOutputMismatch) || res == nil {
			return ok, math.NaN(), 0
		}
	}
	energyRatio = math.NaN()
	if !math.IsNaN(cleanPJ) && cleanPJ > 0 {
		energyRatio = energy.Compute(params, res.Energy).TotalPJ() / cleanPJ
	}
	return ok, energyRatio, float64(res.Stats.RF.RedirectedWrites)
}
