package experiments

// The gemm1-tiling exhibit family reads the compute-dense GEMM ladder
// (internal/kernels gemm_naive → gemm_block → gemm_warp → gemm_reg) through
// every registered compression scheme. The four variants compute the same
// C = A·B, so every difference between rows is a tiling effect: shared-
// memory bank-conflict serialization falls along the ladder while register
// count and live-accumulator pressure rise — shifting the register
// population the compression schemes see. Rows are in ladder order, not
// name order, because the monotone trends are the exhibit.

import (
	"fmt"

	"repro/internal/kernels"
	"repro/internal/mem"
	"repro/internal/sim"
)

// gemmLadder is the fixed row order of the family: each rung moves operand
// reuse one level closer to the execution units.
var gemmLadder = []string{"gemm_naive", "gemm_block", "gemm_warp", "gemm_reg"}

// ladder resolves the ladder from the registry, honoring the partial-mode
// failure filter the way benchmarks() does.
func (r *Runner) ladder() ([]*kernels.Benchmark, error) {
	var out []*kernels.Benchmark
	for _, name := range gemmLadder {
		b, ok := kernels.ByName(name)
		if !ok {
			return nil, fmt.Errorf("experiments: gemm family benchmark %q not registered", name)
		}
		out = append(out, b)
	}
	if r.failures != nil {
		out = r.failures.filter(out)
	}
	return out, nil
}

// gemmShared (gemm1-tiling-shared) is the bank model's view of the
// ladder, plus each variant's register footprint, which only the kernel's
// metadata holds. Scheme-independent: the shared-memory columns are pure
// functions of the access streams, so one baseline run per variant
// suffices. The acceptance trends: serialization falls to zero and
// regs/thread rises monotonically from gemm_naive to gemm_reg.
func gemmShared(r *Runner, t *Table) error {
	t.Columns = []string{"regs/thread", "cycles", "accesses", "bank_rows", "conflicts", "serialize_cyc", "broadcast_hits"}
	benches, err := r.ladder()
	if err != nil {
		return err
	}
	rows := map[string][]float64{}
	if err := r.forEach(benches, r.config(baseline), func(b *kernels.Benchmark, res *sim.Result) error {
		// Rebuild the instance on scratch memory just to read its kernel's
		// register count.
		inst, err := b.Build(mem.NewGlobal(r.baseConfig().GlobalMemBytes), kernels.Small)
		if err != nil {
			return fmt.Errorf("%s: %w", b.Name, err)
		}
		s := res.Stats
		rows[b.Name] = []float64{
			float64(inst.Launch.Kernel.NumRegs),
			float64(res.Cycles),
			float64(s.SharedAccess),
			float64(s.SharedBankAccesses),
			float64(s.SharedConflicts),
			float64(s.SharedSerializationCycles),
			float64(s.SharedBroadcastHits),
		}
		return nil
	}); err != nil {
		return err
	}
	for _, name := range gemmLadder {
		if rows[name] != nil {
			t.AddRow(name, rows[name]...)
		}
	}
	return nil
}
