package sim

import (
	"context"
	"fmt"
	"runtime"
	"runtime/pprof"
	"strconv"
	"sync/atomic"
)

// Deterministic intra-simulation parallelism (DESIGN.md §17).
//
// SMs interact only through global memory, so the per-cycle SM loop shards
// across a persistent worker pool: each worker owns a contiguous slice of
// SMs and steps them for an epoch (SMEpoch cycles, default 1). During the
// parallel phase global memory is read-only — stores and atomics buffer in
// per-SM commit logs, and each SM's own loads see its own buffered stores
// through an overlay map. At the epoch barrier the coordinator applies the
// logs serially in SM-id order, which is exactly the order the sequential
// engine interleaved them, so results are byte-identical at every shard
// count. Atomics are fully deferred: addresses and addends are captured at
// issue, and the barrier performs the read-modify-writes and fills the
// old-value vectors before the timing pipeline consumes them (guaranteed by
// Validate's SMEpoch <= GlobalLatency bound — an atomic's destination stays
// scoreboarded until its write commits, at least GlobalLatency cycles after
// issue).

// memOp is one entry of an SM's per-epoch commit log, in issue order. A
// plain global store carries (addr, val); a deferred atomic carries the
// inflight record whose lanes the barrier resolves against real memory.
type memOp struct {
	atom *inflight // non-nil marks a deferred atom.add; addr/val unused
	addr uint32
	val  uint32
}

// spinBudget is how many times a barrier spin-loop polls before yielding
// the processor. Epochs are microseconds long, so a short spin usually
// wins; Gosched keeps single-core machines (and oversubscribed runs) live.
const spinBudget = 64

// shard is one worker's contiguous slice of SMs plus its barrier state.
type shard struct {
	sms    []*SM
	issued uint64 // instructions issued by this shard's SMs (heartbeat sum)

	// Epoch parameters, written by the coordinator before each release.
	c0 uint64 // first cycle of the epoch
	n  uint64 // cycles in the epoch

	done     atomic.Uint64 // barrier generation the worker last completed
	panicked any           // recovered worker panic, re-raised by the coordinator
}

// runEpoch steps every SM of the shard through cycles [c0, c0+n). An SM
// that raised an error stops stepping; the cycle it failed at is kept for
// the coordinator's deterministic first-error selection.
func (sh *shard) runEpoch() {
	end := sh.c0 + sh.n
	for c := sh.c0; c < end; c++ {
		for _, sm := range sh.sms {
			if sm.err != nil || sm.asleep(c) {
				continue
			}
			sm.step(c)
			if sm.err != nil {
				sm.errCycle = c
			}
		}
	}
}

// shardPool is the persistent worker pool of one simulation run: shard 0
// runs inline on the coordinator goroutine, shards 1..P-1 each get a worker
// goroutine. Epochs are released and joined through a generation-counted
// spin barrier (atomic loads/stores establish the happens-before edges that
// make each worker the sole owner of its SMs during the parallel phase and
// hand the commit logs to the coordinator at the barrier).
type shardPool struct {
	shards []*shard
	phase  atomic.Uint64 // generation workers wait on; bumped to release an epoch
	quit   bool          // written before the final phase bump; workers exit on it
}

// newShardPool partitions the GPU's SMs into nshards contiguous shards and
// spawns the worker goroutines. Each worker is labeled sm-shard=N so CPU
// profiles attribute time per shard.
func newShardPool(g *GPU, nshards int) *shardPool {
	p := &shardPool{}
	numSMs := len(g.sms)
	base, rem := numSMs/nshards, numSMs%nshards
	lo := 0
	for i := 0; i < nshards; i++ {
		n := base
		if i < rem {
			n++
		}
		sh := &shard{sms: g.sms[lo : lo+n]}
		lo += n
		for _, sm := range sh.sms {
			sm.issuedCtr = &sh.issued
		}
		p.shards = append(p.shards, sh)
	}
	for i, sh := range p.shards[1:] {
		go func(label string, sh *shard) {
			pprof.Do(context.Background(), pprof.Labels("sm-shard", label), func(context.Context) {
				p.worker(sh)
			})
		}(strconv.Itoa(i+1), sh)
	}
	return p
}

// worker is the loop of one non-coordinator shard: wait for a release, run
// the epoch, report done. A panic is captured for the coordinator to
// re-raise on the job goroutine (where the engine's panic isolation lives);
// the worker still reaches the barrier so nothing deadlocks.
func (p *shardPool) worker(sh *shard) {
	gen := uint64(0)
	for {
		for spins := 0; p.phase.Load() == gen; spins++ {
			if spins >= spinBudget {
				runtime.Gosched()
			}
		}
		gen++
		if p.quit {
			sh.done.Store(gen)
			return
		}
		func() {
			defer func() {
				if v := recover(); v != nil {
					sh.panicked = v
				}
			}()
			sh.runEpoch()
		}()
		sh.done.Store(gen)
	}
}

// runEpoch releases every shard for cycles [c0, c0+n), runs shard 0 on the
// calling goroutine, and blocks until all shards reach the barrier. Worker
// panics are re-raised here, lowest shard first.
func (p *shardPool) runEpoch(c0, n uint64) {
	sh0 := p.shards[0]
	sh0.c0, sh0.n = c0, n
	if len(p.shards) == 1 {
		sh0.runEpoch()
		return
	}
	for _, sh := range p.shards[1:] {
		sh.c0, sh.n = c0, n
	}
	gen := p.phase.Load() + 1
	p.phase.Store(gen)
	sh0.runEpoch()
	p.waitDone(gen)
	for _, sh := range p.shards[1:] {
		if v := sh.panicked; v != nil {
			sh.panicked = nil
			panic(v)
		}
	}
}

// waitDone blocks until every worker shard has completed generation gen.
func (p *shardPool) waitDone(gen uint64) {
	for _, sh := range p.shards[1:] {
		for spins := 0; sh.done.Load() != gen; spins++ {
			if spins >= spinBudget {
				runtime.Gosched()
			}
		}
	}
}

// stop retires the worker goroutines. Safe to call while an epoch is in
// flight (e.g. unwinding past a shard-0 panic): it joins the open epoch
// first, then releases the workers one final time with quit set.
func (p *shardPool) stop() {
	if len(p.shards) == 1 {
		return
	}
	gen := p.phase.Load()
	p.waitDone(gen)
	p.quit = true
	gen++
	p.phase.Store(gen)
	p.waitDone(gen)
}

// issuedTotal sums the per-shard instruction counters — the O(shards)
// heartbeat the stall watchdog reads, replacing the former O(SMs) scan.
func (p *shardPool) issuedTotal() uint64 {
	var t uint64
	for _, sh := range p.shards {
		t += sh.issued
	}
	return t
}

// shardCount resolves the effective shard count of a run: an explicit
// SMParallel, or GOMAXPROCS when 0, clamped to the SM count.
func (g *GPU) shardCount() int {
	p := g.cfg.SMParallel
	if p == 0 {
		p = runtime.GOMAXPROCS(0)
	}
	if p > len(g.sms) {
		p = len(g.sms)
	}
	if p < 1 {
		p = 1
	}
	return p
}

// epochErr selects the deterministic first error of an epoch: the lowest
// (cycle, SM id) failure — exactly the error the sequential engine would
// have returned, at every shard count.
func (g *GPU) epochErr() error {
	var bad *SM
	for _, sm := range g.sms {
		if sm.err == nil {
			continue
		}
		if bad == nil || sm.errCycle < bad.errCycle {
			bad = sm
		}
	}
	if bad == nil {
		return nil
	}
	return fmt.Errorf("sim: SM %d, cycle %d: %w", bad.id, bad.errCycle, bad.err)
}

// commitEpoch applies every SM's buffered global-memory effects in SM-id
// order — the serial phase that makes sharded results byte-identical to the
// sequential engine's.
func (g *GPU) commitEpoch() {
	for _, sm := range g.sms {
		sm.commitMemLog()
	}
}

// commitMemLog drains this SM's commit log in issue order: plain stores
// write through, deferred atomics resolve their read-modify-writes. Runs
// only on the coordinator goroutine, between epochs.
func (s *SM) commitMemLog() {
	if len(s.memLog) > 0 {
		gmem := s.gpu.mem
		for i := range s.memLog {
			op := &s.memLog[i]
			if op.atom == nil {
				// Checked at issue; a checked store cannot fail.
				_ = gmem.Store32(op.addr, op.val)
				continue
			}
			if s.gpu.rp != nil {
				s.resolveReplayAtom(op.atom)
			} else {
				s.resolveAtom(op.atom)
			}
		}
		s.memLog = s.memLog[:0]
	}
	if len(s.memOverlay) > 0 {
		clear(s.memOverlay)
	}
}

// resolveAtom performs a deferred atom.add against real global memory.
// Lanes apply in lane order; colliding addresses serialize, so each lane
// reads the running value (CUDA atomicAdd semantics for any one
// serialization order; SM-id x issue x lane order keeps it deterministic).
// The old-value vector and the unchanged bit land in the inflight's result
// — the destination register's own storage in the warp — before the
// pipeline consumes them (the register is still scoreboarded — nothing has
// read it since issue).
func (s *SM) resolveAtom(f *inflight) {
	gmem := s.gpu.mem
	rec := s.gpu.rec
	changed := false
	for lane := 0; lane < len(f.res.addrs); lane++ {
		if f.eff&(1<<lane) == 0 {
			continue
		}
		addr := f.res.addrs[lane]
		v, _ := gmem.Load32(addr) // checked at issue
		_ = gmem.Store32(addr, v+f.atomAdds[lane])
		if rec != nil {
			// First atomic touch observes the cell's launch-time value
			// (atomics are its only writers during a traceable launch).
			if _, ok := rec.atomSeen[addr]; !ok {
				rec.atomSeen[addr] = v
			}
		}
		if v != f.res.dstVals[lane] {
			f.res.dstVals[lane] = v
			changed = true
		}
	}
	f.res.unchanged = !changed
}

// resolveReplayAtom is resolveAtom for replay mode: the recorded per-lane
// addends apply to the shadow cells in the same global order execute mode
// commits in, so the old-value vectors — and everything downstream of them
// — match byte-for-byte.
func (s *SM) resolveReplayAtom(f *inflight) {
	shadow := s.gpu.rp.atoms
	changed := false
	ops := f.atoms
	for lane := 0; lane < len(f.res.addrs); lane++ {
		if f.eff&(1<<lane) == 0 {
			continue
		}
		op := ops[0]
		ops = ops[1:]
		v := shadow[op.Addr]
		shadow[op.Addr] = v + op.Add
		if v != f.res.dstVals[lane] {
			f.res.dstVals[lane] = v
			changed = true
		}
	}
	f.res.unchanged = !changed
}
