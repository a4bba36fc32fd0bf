package sim

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/isa"
	"repro/internal/mem"
)

// execResult carries the functional outcome of an issued instruction into
// the timing pipeline. It lives inside an inflight record (never copied once
// issued) and owns fixed-size buffers for the coalesced segment list, so the
// per-instruction path performs no heap allocation.
//
// dstVals points at the written vector, so issuing copies no value: the
// warp's own storage for the destination register, which the scoreboard
// keeps from every other reader and writer until the write commits.
type execResult struct {
	dstVals   *core.WarpReg // merged destination vector (valid when writes)
	writes    bool          // instruction produces a register write
	unchanged bool          // dstVals equals the register's previous committed value
	addrs     [isa.WarpSize]uint32
	segBuf    [isa.WarpSize]uint32 // backing for the coalesced segment list
	nsegs     int                  // coalesced 128-byte segments (global memory ops)
	sharedDeg int                  // shared-memory conflict phases (shared ops)
	sharedWds int                  // distinct shared words fetched — bank row activations
	sharedBc  int                  // shared lane requests served by another lane's fetch
	atomDeg   int                  // same-address serialization phases (atomics)
}

// segs returns the coalesced segment list of a global memory access.
func (r *execResult) segs() []uint32 { return r.segBuf[:r.nsegs] }

// special evaluates a hardware special register for one lane of a warp.
func (s *SM) special(w *Warp, sp isa.Special, lane int) uint32 {
	bx := s.launch.Block.X
	if bx <= 0 {
		bx = 1
	}
	gx := s.launch.Grid.X
	if gx <= 0 {
		gx = 1
	}
	t := w.warpInCTA*isa.WarpSize + lane
	switch sp {
	case isa.SpecTidX:
		return uint32(t % bx)
	case isa.SpecTidY:
		return uint32(t / bx)
	case isa.SpecCtaIDX:
		return uint32(w.ctaID % gx)
	case isa.SpecCtaIDY:
		return uint32(w.ctaID / gx)
	case isa.SpecNTidX:
		return uint32(bx)
	case isa.SpecNTidY:
		y := s.launch.Block.Y
		if y <= 0 {
			y = 1
		}
		return uint32(y)
	case isa.SpecNCtaX:
		return uint32(gx)
	case isa.SpecNCtaY:
		y := s.launch.Grid.Y
		if y <= 0 {
			y = 1
		}
		return uint32(y)
	case isa.SpecLaneID:
		return uint32(lane)
	case isa.SpecWarpID:
		return uint32(w.warpInCTA)
	}
	if p, ok := sp.IsParam(); ok {
		return s.launch.Params[p]
	}
	return 0
}

// operand fetches one source operand value for a lane.
func (s *SM) operand(w *Warp, o isa.Operand, lane int) uint32 {
	switch o.Kind {
	case isa.OperandReg:
		return w.regBuf[o.Reg][lane]
	case isa.OperandImm:
		return uint32(o.Imm)
	case isa.OperandSpecial:
		return s.special(w, o.Spec, lane)
	}
	return 0
}

// execute performs the architectural effect of instruction `in` at `pc` for
// warp w: register/predicate/memory updates and SIMT control flow. `active`
// is the stack active mask, `eff` the guard-filtered execution mask. The
// outcome is written into f.res (caller-owned, pre-zeroed); no allocation
// happens on the steady-state success path.
//
// Control flow (PC advance, divergence, exit, barrier) is fully resolved
// here; res feeds the timing pipeline only. For register-writing ops,
// res.unchanged reports that every executed lane produced the value the
// register already held — the encoding memo key (see SM.chooseEnc).
//
// Global-memory effects are epoch-buffered (shard.go): loads read the
// epoch-start memory image overlaid with this SM's own buffered stores,
// stores append to the commit log, and atomics capture their addresses and
// addends for the barrier to resolve serially in SM-id order.
func (s *SM) execute(w *Warp, in *isa.Instr, pc int32, active, eff uint32, f *inflight) error {
	res := &f.res
	t := w.tos()
	changed := false

	switch in.Op {
	case isa.OpNop:
		t.pc++

	case isa.OpBar:
		t.pc++
		s.arriveBarrier(w)

	case isa.OpExit:
		dying := active
		if in.Pred != isa.PredNone {
			dying = eff
			t.pc++
		}
		if w.retireThreads(dying) {
			s.warpExited(w)
		}
		return nil

	case isa.OpBra:
		rpc := s.kernel.ReconvPC[pc]
		if in.Pred == isa.PredNone {
			t.pc = in.Target
		} else {
			w.diverge(eff, in.Target, pc+1, rpc)
		}

	case isa.OpSetP:
		var setMask uint32
		for lane := 0; lane < isa.WarpSize; lane++ {
			if eff&(1<<lane) == 0 {
				continue
			}
			a := s.operand(w, in.Srcs[0], lane)
			b := s.operand(w, in.Srcs[1], lane)
			if isa.EvalCmp(in.Cmp, a, b) {
				setMask |= 1 << lane
			}
		}
		w.preds[in.PDst] = (w.preds[in.PDst] &^ eff) | setMask
		t.pc++

	case isa.OpSelP:
		res.dstVals = &w.regBuf[in.Dst]
		psel := w.preds[in.PSrc]
		for lane := 0; lane < isa.WarpSize; lane++ {
			if eff&(1<<lane) == 0 {
				continue
			}
			var v uint32
			if psel&(1<<lane) != 0 {
				v = s.operand(w, in.Srcs[0], lane)
			} else {
				v = s.operand(w, in.Srcs[1], lane)
			}
			if v != res.dstVals[lane] {
				res.dstVals[lane] = v
				changed = true
			}
		}
		res.writes = eff != 0
		res.unchanged = !changed
		t.pc++

	case isa.OpLdG, isa.OpLdS:
		res.dstVals = &w.regBuf[in.Dst]
		for lane := 0; lane < isa.WarpSize; lane++ {
			if eff&(1<<lane) == 0 {
				continue
			}
			addr := s.operand(w, in.Srcs[0], lane) + uint32(in.Off)
			res.addrs[lane] = addr
			var v uint32
			var err error
			if in.Op == isa.OpLdG {
				v, err = s.loadGlobal(addr)
			} else {
				v, err = s.loadShared(w, addr)
			}
			if err != nil {
				return fmt.Errorf("%s at pc %d lane %d: %w", in.Op, pc, lane, err)
			}
			if v != res.dstVals[lane] {
				res.dstVals[lane] = v
				changed = true
			}
		}
		if rv := s.recv; rv != nil && in.Op == isa.OpLdG {
			rv.noteGlobal(w, &res.addrs, eff, false)
		}
		res.writes = eff != 0
		res.unchanged = !changed
		s.memTiming(res, in.Op == isa.OpLdG, eff)
		t.pc++

	case isa.OpAtomAdd:
		res.dstVals = &w.regBuf[in.Dst]
		// Address computation, bounds checks and the trace note happen at
		// issue in lane order; the read-modify-writes are deferred to the
		// epoch barrier (SM.resolveAtom), which fills res.dstVals and
		// res.unchanged before the pipeline consumes them. The destination
		// register stays scoreboarded until the write commits, so nothing
		// observes the not-yet-resolved old values.
		for lane := 0; lane < isa.WarpSize; lane++ {
			if eff&(1<<lane) == 0 {
				continue
			}
			addr := s.operand(w, in.Srcs[0], lane) + uint32(in.Off)
			res.addrs[lane] = addr
			if err := s.gpu.mem.Check32(addr); err != nil {
				return fmt.Errorf("atom.add at pc %d lane %d: %w", pc, lane, err)
			}
			f.atomAdds[lane] = s.operand(w, in.Srcs[1], lane)
		}
		if rv := s.recv; rv != nil {
			rv.noteAtom(&res.addrs, &f.atomAdds, eff)
		}
		res.writes = eff != 0
		if eff == 0 {
			res.unchanged = true
		} else {
			s.memLog = append(s.memLog, memOp{atom: f})
		}
		s.memTiming(res, true, eff)
		res.atomDeg = atomicConflictDegree(&res.addrs, eff)
		t.pc++

	case isa.OpStG, isa.OpStS:
		for lane := 0; lane < isa.WarpSize; lane++ {
			if eff&(1<<lane) == 0 {
				continue
			}
			addr := s.operand(w, in.Srcs[0], lane) + uint32(in.Off)
			res.addrs[lane] = addr
			v := s.operand(w, in.Srcs[1], lane)
			var err error
			if in.Op == isa.OpStG {
				// Validated now so the error surfaces at issue with the
				// sequential engine's exact attribution; the write itself
				// buffers until the epoch barrier.
				if err = s.gpu.mem.Check32(addr); err == nil {
					s.bufferStore(addr, v)
				}
			} else {
				err = s.storeShared(w, addr, v)
			}
			if err != nil {
				return fmt.Errorf("%s at pc %d lane %d: %w", in.Op, pc, lane, err)
			}
		}
		if rv := s.recv; rv != nil && in.Op == isa.OpStG {
			rv.noteGlobal(w, &res.addrs, eff, true)
		}
		s.memTiming(res, in.Op == isa.OpStG, eff)
		t.pc++

	default: // plain ALU/SFU register ops
		res.dstVals = &w.regBuf[in.Dst]
		for lane := 0; lane < isa.WarpSize; lane++ {
			if eff&(1<<lane) == 0 {
				continue
			}
			a := s.operand(w, in.Srcs[0], lane)
			b := s.operand(w, in.Srcs[1], lane)
			c := s.operand(w, in.Srcs[2], lane)
			if v := isa.EvalALU(in.Op, a, b, c); v != res.dstVals[lane] {
				res.dstVals[lane] = v
				changed = true
			}
		}
		res.writes = eff != 0
		res.unchanged = !changed
		t.pc++
	}

	w.popReconverged()
	if len(w.stack) == 0 && w.state != warpFinished {
		w.state = warpFinished
		s.warpExited(w)
	}
	return nil
}

// memTiming fills the coalescing/conflict fields of a memory access result,
// reusing the result's own segment buffer.
func (s *SM) memTiming(res *execResult, global bool, eff uint32) {
	if eff == 0 {
		return
	}
	if global {
		res.nsegs = len(mem.CoalesceSegmentList(&res.addrs, eff, res.segBuf[:0]))
	} else {
		sa := mem.AnalyzeShared(&res.addrs, eff, mem.SharedWordBytes)
		res.sharedDeg = sa.Phases
		res.sharedWds = sa.Words
		res.sharedBc = sa.BroadcastHits
	}
}

// atomicConflictDegree counts the worst-case number of active lanes hitting
// one address — the serialization factor of an atomic warp operation.
func atomicConflictDegree(addrs *[isa.WarpSize]uint32, mask uint32) int {
	deg := 0
	for lane := 0; lane < isa.WarpSize; lane++ {
		if mask&(1<<lane) == 0 {
			continue
		}
		n := 0
		for l2 := 0; l2 <= lane; l2++ {
			if mask&(1<<l2) != 0 && addrs[l2] == addrs[lane] {
				n++
			}
		}
		if n > deg {
			deg = n
		}
	}
	if deg == 0 {
		return 1
	}
	return deg
}

// loadGlobal reads device memory as this SM observes it mid-epoch: its own
// buffered stores (the overlay) over the epoch-start memory image. Other
// SMs' same-epoch stores become visible at the next barrier. The only
// divergence from the sequential engine is a load racing a *same-cycle*
// store from another SM — inherently schedule-dependent code that record
// mode already rejects as untraceable; every cross-cycle communication
// pattern is byte-identical.
func (s *SM) loadGlobal(addr uint32) (uint32, error) {
	if len(s.memOverlay) > 0 {
		if v, ok := s.memOverlay[addr]; ok {
			return v, nil
		}
	}
	return s.gpu.mem.Load32(addr)
}

// bufferStore logs a validated global store for the epoch barrier and makes
// it visible to this SM's own subsequent loads.
func (s *SM) bufferStore(addr, val uint32) {
	s.memLog = append(s.memLog, memOp{addr: addr, val: val})
	s.memOverlay[addr] = val
}

// loadShared reads the CTA's shared memory slab.
func (s *SM) loadShared(w *Warp, addr uint32) (uint32, error) {
	slab := s.ctas[w.ctaSlot].shared
	if addr%4 != 0 || int(addr)+4 > len(slab) {
		return 0, fmt.Errorf("shared load at 0x%x out of %d-byte slab", addr, len(slab))
	}
	return uint32(slab[addr]) | uint32(slab[addr+1])<<8 | uint32(slab[addr+2])<<16 | uint32(slab[addr+3])<<24, nil
}

// storeShared writes the CTA's shared memory slab.
func (s *SM) storeShared(w *Warp, addr uint32, v uint32) error {
	slab := s.ctas[w.ctaSlot].shared
	if addr%4 != 0 || int(addr)+4 > len(slab) {
		return fmt.Errorf("shared store at 0x%x out of %d-byte slab", addr, len(slab))
	}
	slab[addr] = byte(v)
	slab[addr+1] = byte(v >> 8)
	slab[addr+2] = byte(v >> 16)
	slab[addr+3] = byte(v >> 24)
	return nil
}
