package sim

import (
	"repro/internal/core"
	"repro/internal/exectrace"
	"repro/internal/isa"
)

// stackEntry is one SIMT reconvergence stack record (GPGPU-Sim style):
// execute at PC with Mask active; pop when PC reaches RPC.
type stackEntry struct {
	pc   int32
	rpc  int32 // reconvergence PC; -1 = only reconverges at exit
	mask uint32
}

// warpState tracks a warp's lifecycle on an SM.
type warpState uint8

const (
	warpRunning warpState = iota
	warpAtBarrier
	warpFinished // all threads exited; may still have instructions in flight
)

// Warp is one resident warp: functional register state plus SIMT control.
// Its state and the fields the per-cycle issue scan reads lead, so they
// share a cache line.
type Warp struct {
	state warpState
	age   uint64

	// Scoreboard: destination registers/predicates with writes in flight.
	regBusy  uint64
	predBusy uint8

	// Issue hazards of the next instruction, cached by SM.setNext when the
	// warp launches or issues — the only points its next instruction
	// changes: the registers it reads or writes (RAW and WAW), the
	// predicates it reads or writes, and whether it needs a collector.
	nextRegs  uint64
	nextPreds uint8
	nextColl  bool

	slot      int // hardware warp slot on the SM
	ctaSlot   int // CTA slot on the SM
	ctaID     int // global CTA index in the grid
	warpInCTA int // warp index within the CTA

	launchMask uint32 // live (not yet exited) threads
	stack      []stackEntry

	regBuf []core.WarpReg       // register r's current value vector is regBuf[r]
	preds  [isa.MaxPreds]uint32 // per-predicate lane bitmasks

	inFlight  int  // issued but not retired instructions
	finalized bool // resources already released

	// Register file cache comparator state (abl4-rfc): a small per-warp
	// LRU of recently written warp registers.
	rfc      []rfcEntry
	rfcStamp uint64

	// Encoding memo (see SM.chooseEnc): encCache[r] holds the compression
	// encoding classified for register r's current committed value; the
	// encValid bit says the entry is live. A commit that changes the value
	// refreshes the entry; fault corruption invalidates it.
	encCache [isa.MaxRegs]core.Encoding
	encValid uint64
	// encComp stamps which compression backend filled encCache; chooseEnc
	// drops the whole memo when the stamp does not match the active
	// compressor, so a recycled warp can never serve another scheme's
	// classification.
	encComp core.Compressor

	// Replay front-end state: the cursor into the warp's recorded stream,
	// at the record it issues next. Zero outside replay mode.
	rp exectrace.Cursor
}

// newWarp builds a fresh warp. The SM reuses retired warp objects through a
// pool and re-initializes them with Warp.reset; newWarp is the cold path.
func newWarp(slot, ctaSlot, ctaID, warpInCTA int, liveThreads int, numRegs int, age uint64) *Warp {
	w := &Warp{}
	w.reset(slot, ctaSlot, ctaID, warpInCTA, liveThreads, numRegs, age)
	return w
}

// reset re-initializes a (possibly recycled) warp for a new launch slot,
// reusing the register and SIMT stack backing arrays when they are large
// enough. Every architectural and bookkeeping field is restored to its
// launch state — a recycled warp is indistinguishable from a new one.
func (w *Warp) reset(slot, ctaSlot, ctaID, warpInCTA int, liveThreads int, numRegs int, age uint64) {
	mask := uint32(0xFFFFFFFF)
	if liveThreads < isa.WarpSize {
		mask = (uint32(1) << liveThreads) - 1
	}
	w.slot = slot
	w.ctaSlot = ctaSlot
	w.ctaID = ctaID
	w.warpInCTA = warpInCTA
	w.age = age
	w.launchMask = mask
	w.stack = append(w.stack[:0], stackEntry{pc: 0, rpc: -1, mask: mask})
	if cap(w.regBuf) >= numRegs {
		w.regBuf = w.regBuf[:numRegs]
		clear(w.regBuf)
	} else {
		w.regBuf = make([]core.WarpReg, numRegs)
	}
	w.preds = [isa.MaxPreds]uint32{}
	w.state = warpRunning
	w.inFlight = 0
	w.finalized = false
	w.rfc = w.rfc[:0]
	w.rfcStamp = 0
	w.regBusy = 0
	w.predBusy = 0
	w.nextRegs, w.nextPreds, w.nextColl = 0, 0, false
	w.encValid = 0
	w.encComp = nil
	w.rp = exectrace.Cursor{}
}

// tos returns the top SIMT stack entry; nil when the warp has fully exited.
func (w *Warp) tos() *stackEntry {
	if len(w.stack) == 0 {
		return nil
	}
	return &w.stack[len(w.stack)-1]
}

// guardMask evaluates an instruction guard over the warp: the subset of
// lanes whose guard predicate holds (all lanes for unguarded instructions).
func (w *Warp) guardMask(in *isa.Instr) uint32 {
	if in.Pred == isa.PredNone {
		return 0xFFFFFFFF
	}
	m := w.preds[in.Pred]
	if in.PredNeg {
		m = ^m
	}
	return m
}

// popReconverged pops stack entries whose PC reached their reconvergence
// point, and drops dead (zero-mask) entries.
func (w *Warp) popReconverged() {
	for len(w.stack) > 0 {
		t := w.tos()
		if t.mask == 0 || (t.rpc >= 0 && t.pc == t.rpc) {
			w.stack = w.stack[:len(w.stack)-1]
			continue
		}
		return
	}
}

// retireThreads removes exiting lanes from the warp: they leave the launch
// mask and every stack entry. Returns true when the whole warp has exited.
func (w *Warp) retireThreads(dying uint32) bool {
	w.launchMask &^= dying
	for i := range w.stack {
		w.stack[i].mask &^= dying
	}
	w.popReconverged()
	if w.launchMask == 0 || len(w.stack) == 0 {
		w.stack = w.stack[:0]
		w.state = warpFinished
		return true
	}
	return false
}

// diverge applies a conditional branch outcome: takenMask lanes go to
// target, the rest fall through; rpc is the reconvergence PC from the CFG
// analysis. Implements the standard SIMT-stack transformation.
func (w *Warp) diverge(takenMask uint32, target, fallthrough_, rpc int32) {
	t := w.tos()
	active := t.mask
	notTaken := active &^ takenMask
	switch {
	case takenMask == 0:
		t.pc = fallthrough_
	case notTaken == 0:
		t.pc = target
	default:
		// True divergence: TOS becomes the reconvergence entry; push
		// fallthrough then taken so taken executes first.
		t.pc = rpc
		// When rpc is -1 control only reconverges at exit: the TOS
		// entry dies when both children have fully exited (mask
		// removal happens via retireThreads), so keep it with pc==rpc
		// sentinel; popReconverged skips rpc<0 entries until mask==0.
		w.stack = append(w.stack,
			stackEntry{pc: fallthrough_, rpc: rpc, mask: notTaken},
			stackEntry{pc: target, rpc: rpc, mask: takenMask},
		)
	}
}

// rfcEntry is one slot of the per-warp register file cache comparator.
type rfcEntry struct {
	reg   isa.Reg
	dirty bool
	lru   uint64
}

// rfcLookup finds reg in the warp's RFC, refreshing its LRU stamp.
func (w *Warp) rfcLookup(reg isa.Reg) bool {
	for i := range w.rfc {
		if w.rfc[i].reg == reg {
			w.rfcStamp++
			w.rfc[i].lru = w.rfcStamp
			return true
		}
	}
	return false
}

// rfcInsert places reg in the RFC as dirty, evicting the LRU entry when the
// cache is full. Returns the evicted register and whether it was dirty.
func (w *Warp) rfcInsert(reg isa.Reg, capacity int) (evicted isa.Reg, dirty bool, didEvict bool) {
	w.rfcStamp++
	for i := range w.rfc {
		if w.rfc[i].reg == reg {
			w.rfc[i].dirty = true
			w.rfc[i].lru = w.rfcStamp
			return 0, false, false
		}
	}
	if len(w.rfc) < capacity {
		w.rfc = append(w.rfc, rfcEntry{reg: reg, dirty: true, lru: w.rfcStamp})
		return 0, false, false
	}
	victim := 0
	for i := 1; i < len(w.rfc); i++ {
		if w.rfc[i].lru < w.rfc[victim].lru {
			victim = i
		}
	}
	evicted, dirty = w.rfc[victim].reg, w.rfc[victim].dirty
	w.rfc[victim] = rfcEntry{reg: reg, dirty: true, lru: w.rfcStamp}
	return evicted, dirty, true
}
