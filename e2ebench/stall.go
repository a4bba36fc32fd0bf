package main

import (
	"context"
	"runtime"
	"time"

	"repro/internal/kernels"
	"repro/internal/sim"
)

// stallExecute runs memory-bound kernels in execute mode on the paper's
// Table 2 device (15 SMs) at Medium scale, each on a fresh GPU. Issue-slot
// use is 8% over the pass, so the per-cycle loop spins on idle SMs: idle-cycle
// fast-forward and memory reaping do most of the work here, and the
// compressor little.
//
// The passes run the SM loop on one shard. Sharded across two cores the
// per-cycle barrier makes a kernel's host time swing by 20% from run to
// run, far more than a regression bound allows; the traced run's probe
// measures the sharded loop instead. backprop, the longest kernel of this
// kind, is left out: it would double a pass without adding a behaviour.
// nw (issue-slot use 20%) keeps a third, short kernel in the mix, so the
// median job is one kernel's median rather than the gap between two.
type stallExecute struct {
	scale   kernels.Scale
	cfg     sim.Config
	benches []*kernels.Benchmark // in seed order
	first   map[string]*sim.Result
}

func newStallExecute(o options) (workload, error) {
	scale := kernels.Medium
	if o.quick {
		scale = kernels.Small
	}
	benches, err := lookup(shuffled([]string{"nw", "sad", "spmv"}, o.seed, 1))
	if err != nil {
		return nil, err
	}
	cfg := sim.DefaultConfig()
	cfg.SMParallel = 1
	return &stallExecute{scale: scale, cfg: cfg, benches: benches, first: map[string]*sim.Result{}}, nil
}

func (s *stallExecute) setup(ctx context.Context) error {
	for _, b := range s.benches {
		if err := build(b, s.cfg, s.scale); err != nil {
			return err
		}
	}
	return nil
}

func (s *stallExecute) pass(ctx context.Context, t *tally, rec *recorder) error {
	for _, b := range s.benches {
		start := time.Now()
		res, _, err := execute(ctx, rec, b, s.cfg, s.scale)
		t.job(time.Since(start))
		if ctx.Err() != nil {
			return ctx.Err()
		}
		if err == nil {
			t.simulated(res.Stats.Instructions)
			if first, ok := s.first[b.Name]; ok {
				err = sameResult(first, res, b.Name+": pass vs first pass")
			} else {
				s.first[b.Name] = res
			}
		}
		t.op(err)
	}
	return nil
}

// check returns the first pass's results: every job was already checked
// against its host reference as it ran, and later passes against the first.
func (s *stallExecute) check(ctx context.Context, t *tally, rec *recorder) ([]namedResult, error) {
	var out []namedResult
	for name, res := range s.first {
		out = append(out, namedResult{name, s.cfg, res})
	}
	sortResults(out)
	return out, nil
}

// probe shards the SM loop across every core, so the traced run reports
// the sharded engine's cost per SM cycle.
func (s *stallExecute) probe() probeSpec {
	cfg := s.cfg
	cfg.SMParallel = runtime.NumCPU()
	return probeSpec{benches: s.benches, cfg: cfg, scale: s.scale, serve: true}
}

func (s *stallExecute) parallelism() (int, int) { return s.cfg.SMParallel, 1 }
