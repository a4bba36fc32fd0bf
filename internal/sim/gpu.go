package sim

import (
	"context"
	"errors"
	"fmt"
	"sync/atomic"

	"repro/internal/cfg"
	"repro/internal/core"
	"repro/internal/energy"
	"repro/internal/isa"
	"repro/internal/mem"
	"repro/internal/regfile"
	"repro/internal/stats"
	"repro/internal/valueprof"
)

// ErrMaxCycles marks a simulation aborted for exceeding Config.MaxCycles —
// a deadlock or runaway kernel (under fault injection, often a corrupted
// loop bound). Test with errors.Is.
var ErrMaxCycles = errors.New("sim: exceeded MaxCycles")

// GPU is the full device: NumSMs streaming multiprocessors sharing one
// global memory, plus the grid-level CTA dispatcher.
type GPU struct {
	cfg Config
	mem *mem.Global
	sms []*SM

	// comp is the compression backend selected by cfg.Compression; all SMs
	// share it (the scheme is stateless on the write path — the static
	// scheme's table is bound once per launch, before the SMs run).
	// compress reports whether the compression hardware is on, and policy
	// is the policy comp classifies writes under. Both are resolved once
	// in New, so the hot path never looks a name up.
	comp     core.Compressor
	compress bool
	policy   core.Mode

	// Front-end selection for the current run. Both nil in execute mode;
	// rec tees the functional front-end into a trace (RecordContextBeat),
	// rp replaces it with a trace cursor (ReplayContextBeat).
	rec *recorder
	rp  *replayRun
}

// New builds a GPU from a validated configuration.
func New(config Config) (*GPU, error) {
	if err := config.Validate(); err != nil {
		return nil, err
	}
	point, err := core.LookupCompression(config.Compression)
	if err != nil {
		return nil, err // unreachable after Validate; kept for refactors
	}
	comp, err := core.NewCompressor(point.Scheme)
	if err != nil {
		return nil, err
	}
	g := &GPU{cfg: config, mem: mem.NewGlobal(config.GlobalMemBytes), comp: comp,
		compress: point.Policy.Enabled(), policy: point.Policy}
	if !g.compress {
		// Compression off still classifies every write for the
		// compressibility statistics, with the paper's dynamic choice.
		g.policy = core.ModeWarped
	}
	for i := 0; i < config.NumSMs; i++ {
		g.sms = append(g.sms, newSM(i, g))
	}
	return g, nil
}

// Mem exposes device global memory for host data setup.
func (g *GPU) Mem() *mem.Global { return g.mem }

// Config returns the GPU's configuration.
func (g *GPU) Config() Config { return g.cfg }

// Result is the outcome of one kernel launch. The json tags here and on the
// counter types it holds name the fields of the warped.sim.result/v1
// document (resultjson.go).
type Result struct {
	Cycles uint64        `json:"cycles"`
	Stats  stats.Stats   `json:"stats"`
	Energy energy.Events `json:"energy_events"`
}

// cancelCheckInterval is how often (in simulated cycles) the cycle loop
// polls the context. 4096 cycles keeps the check off the hot path (one
// branch per ~4k cycles) while bounding cancellation latency to well under a
// millisecond of wall time.
const cancelCheckInterval = 4096

// Run simulates one kernel launch to completion and returns the aggregated
// statistics of all SMs. The same GPU may run several launches in sequence;
// global memory persists across launches (as on a real device).
func (g *GPU) Run(l isa.Launch) (*Result, error) {
	return g.RunContext(context.Background(), l)
}

// RunContext is Run with cancellation: the cycle loop polls ctx every
// cancelCheckInterval cycles and aborts the simulation with an error
// wrapping ctx.Err() (context.Canceled or context.DeadlineExceeded). The
// GPU's SM state is left mid-launch and must be considered dirty; device
// global memory remains readable.
func (g *GPU) RunContext(ctx context.Context, l isa.Launch) (*Result, error) {
	return g.RunContextBeat(ctx, l, nil)
}

// RunContextBeat is RunContext with a progress heartbeat: at every context
// poll (each cancelCheckInterval cycles) the total number of instructions
// issued so far is stored into beat. An external watchdog that sees the
// value stop advancing knows the simulation is making no forward progress —
// instructions, not cycles, so a deadlocked pipeline that still burns
// cycles reads as stalled. beat may be nil.
func (g *GPU) RunContextBeat(ctx context.Context, l isa.Launch, beat *atomic.Uint64) (*Result, error) {
	g.rec, g.rp = nil, nil
	return g.run(ctx, l, beat)
}

// run is the shared simulation engine behind execute, record and replay
// modes: CTA dispatch, the cycle loop, drain invariants and result
// assembly. The front-end flavor is selected by g.rec/g.rp.
func (g *GPU) run(ctx context.Context, l isa.Launch, beat *atomic.Uint64) (*Result, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if err := ctx.Err(); err != nil {
		return nil, fmt.Errorf("sim: launch not started: %w", err)
	}
	if err := l.Validate(); err != nil {
		return nil, err
	}
	// Replay never consults the reconvergence table (the trace already is
	// the resolved control flow) and must not mutate the kernel, which may
	// be shared read-only with concurrent replays of the same trace.
	if g.rp == nil && l.Kernel.ReconvPC == nil {
		if err := cfg.ComputeReconvergence(l.Kernel); err != nil {
			return nil, err
		}
	}
	if l.WarpsPerCTA() > g.cfg.MaxWarpsPerSM {
		return nil, fmt.Errorf("sim: CTA of %d warps exceeds SM capacity %d", l.WarpsPerCTA(), g.cfg.MaxWarpsPerSM)
	}
	if l.WarpsPerCTA()*l.Kernel.NumRegs > regfile.Capacity {
		return nil, fmt.Errorf("sim: CTA register demand (%d warps x %d regs) exceeds register file capacity %d",
			l.WarpsPerCTA(), l.Kernel.NumRegs, regfile.Capacity)
	}

	// Table-driven schemes derive their per-kernel encoding table here,
	// before any SM runs. The table is a pure function of the kernel image
	// (valueprof.StaticTable), so execute, record, replay and every shard
	// count bind the same table.
	if b, ok := g.comp.(core.KernelTableBinder); ok {
		b.BindTable(valueprof.StaticTable(l.Kernel))
	}

	for _, sm := range g.sms {
		sm.reset(l)
	}
	// Back the allocator's high-water mark up front: during the parallel
	// phase global memory is read-only (stores commit at the end of each
	// cycle), so the backing slice must not grow under a concurrent load.
	g.mem.Presize()

	pool := newShardPool(g, g.shardCount())
	defer pool.stop()

	nextCTA := 0
	numCTAs := l.NumCTAs()
	cycle := uint64(1)
	for {
		// Round-robin CTA dispatch, one attempt per SM per cycle.
		for _, sm := range g.sms {
			if nextCTA >= numCTAs {
				break
			}
			if sm.tryLaunchCTA(nextCTA, cycle) {
				nextCTA++
			}
		}

		pool.runCycle(cycle)

		if err := g.cycleErr(cycle); err != nil {
			return nil, err // run abandoned; buffered effects stay uncommitted
		}
		g.commit()

		busy := nextCTA < numCTAs
		for _, sm := range g.sms {
			busy = busy || sm.busy()
		}
		if !busy {
			break
		}
		cycle++
		if cycle%cancelCheckInterval == 0 {
			if err := ctx.Err(); err != nil {
				return nil, fmt.Errorf("sim: canceled at cycle %d: %w", cycle, err)
			}
			if beat != nil {
				beat.Store(pool.issuedTotal())
			}
		}
		if cycle > g.cfg.MaxCycles {
			return nil, fmt.Errorf("%w: %d cycles (deadlock or runaway kernel?)", ErrMaxCycles, g.cfg.MaxCycles)
		}
	}

	// Drain invariants: a completed launch must leave no residue. A
	// violation is a simulator bug, never a workload property.
	for _, sm := range g.sms {
		if sm.liveWarps != 0 || len(sm.inflight) != 0 || sm.collectorsInUse != 0 {
			return nil, fmt.Errorf("sim: SM %d finished dirty: %d live warps, %d inflight, %d collectors",
				sm.id, sm.liveWarps, len(sm.inflight), sm.collectorsInUse)
		}
		for slot, w := range sm.warps {
			if w != nil {
				return nil, fmt.Errorf("sim: SM %d warp slot %d not released", sm.id, slot)
			}
		}
	}

	res := &Result{Cycles: cycle}
	// The baseline design has no compression hardware, so it carries no
	// compressor/decompressor leakage. The RFC comparator leaks for its
	// full capacity (entries x 128 B x resident warps).
	compUnits, decompUnits := 0, 0
	if g.compress {
		compUnits, decompUnits = g.cfg.Compressors, g.cfg.Decompressors
	}
	rfcKB := 0
	if g.cfg.RFCEntries > 0 {
		rfcKB = g.cfg.RFCEntries * 128 * g.cfg.MaxWarpsPerSM / 1024
	}
	for _, sm := range g.sms {
		st := sm.finalize(cycle)
		res.Stats.Add(st)
		res.Energy.Add(energy.Events{
			BankAccesses:       st.RF.BankReads + st.RF.BankWrites,
			WireBeats:          st.RF.BankReads + st.RF.BankWrites,
			CompActs:           st.CompActs,
			DecompActs:         st.DecompActs,
			RFCAccesses:        st.RFCReads + st.RFCWrites,
			RFCKB:              rfcKB,
			PoweredBankCycles:  st.RF.PoweredBankCycles,
			DrowsyBankCycles:   st.RF.DrowsyBankCycles,
			Cycles:             cycle,
			CompUnits:          compUnits,
			DecompUnits:        decompUnits,
			SharedBankAccesses: st.SharedBankAccesses,
		})
	}
	return res, nil
}
