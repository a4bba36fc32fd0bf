package sim

import (
	"testing"
	"testing/quick"

	"repro/internal/isa"
)

func testWarp() *Warp {
	return newWarp(0, 0, 0, 0, 32, 8, 1)
}

func TestDivergeSplitsMask(t *testing.T) {
	w := testWarp()
	taken := uint32(0x0000FFFF)
	w.diverge(taken, 10, 3, 20)
	if len(w.stack) != 3 {
		t.Fatalf("stack depth %d, want 3", len(w.stack))
	}
	top := w.tos()
	if top.pc != 10 || top.mask != taken || top.rpc != 20 {
		t.Fatalf("taken entry wrong: %+v", top)
	}
	fall := w.stack[1]
	if fall.pc != 3 || fall.mask != ^taken || fall.rpc != 20 {
		t.Fatalf("fallthrough entry wrong: %+v", fall)
	}
	if w.stack[0].pc != 20 {
		t.Fatalf("reconvergence entry pc %d, want 20", w.stack[0].pc)
	}
}

func TestDivergeUniformTaken(t *testing.T) {
	w := testWarp()
	w.diverge(0xFFFFFFFF, 10, 3, 20)
	if len(w.stack) != 1 || w.tos().pc != 10 {
		t.Fatalf("uniform taken should just jump: depth %d pc %d", len(w.stack), w.tos().pc)
	}
	w2 := testWarp()
	w2.diverge(0, 10, 3, 20)
	if len(w2.stack) != 1 || w2.tos().pc != 3 {
		t.Fatalf("uniform not-taken should fall through: depth %d pc %d", len(w2.stack), w2.tos().pc)
	}
}

func TestReconvergencePops(t *testing.T) {
	w := testWarp()
	w.diverge(0x0000FFFF, 10, 3, 20)
	// Taken side reaches the reconvergence point.
	w.tos().pc = 20
	w.popReconverged()
	if w.tos().pc != 3 || w.tos().mask != 0xFFFF0000 {
		t.Fatalf("after taken pops: pc %d mask %#x", w.tos().pc, w.tos().mask)
	}
	// Fallthrough side reaches it too: both pop, full mask resumes at 20.
	w.tos().pc = 20
	w.popReconverged()
	if w.tos().pc != 20 || w.tos().mask != 0xFFFFFFFF || len(w.stack) != 1 {
		t.Fatalf("after both pop: pc %d mask %#x depth %d", w.tos().pc, w.tos().mask, len(w.stack))
	}
}

func TestRetireThreads(t *testing.T) {
	w := testWarp()
	w.diverge(0x0000FFFF, 10, 3, 20)
	// Taken lanes exit.
	if done := w.retireThreads(0x0000FFFF); done {
		t.Fatal("warp should survive partial exit")
	}
	if w.launchMask != 0xFFFF0000 {
		t.Fatalf("launch mask %#x", w.launchMask)
	}
	// The dead taken entry must have been popped.
	if w.tos().pc != 3 || w.tos().mask != 0xFFFF0000 {
		t.Fatalf("pc %d mask %#x after exit", w.tos().pc, w.tos().mask)
	}
	if done := w.retireThreads(0xFFFF0000); !done {
		t.Fatal("warp should finish when all lanes exit")
	}
	if w.state != warpFinished {
		t.Fatal("state not finished")
	}
}

func TestPartialWarpLaunchMask(t *testing.T) {
	w := newWarp(0, 0, 0, 0, 20, 4, 1)
	if w.launchMask != (1<<20)-1 {
		t.Fatalf("launch mask %#x for 20 threads", w.launchMask)
	}
	if w.tos().mask != w.launchMask {
		t.Fatal("initial active mask must equal launch mask")
	}
}

func TestGuardMask(t *testing.T) {
	w := testWarp()
	w.preds[2] = 0x0F0F0F0F
	in := testInstrGuard(2, false)
	if got := w.guardMask(&in); got != 0x0F0F0F0F {
		t.Fatalf("guard %#x", got)
	}
	inNeg := testInstrGuard(2, true)
	if got := w.guardMask(&inNeg); got != 0xF0F0F0F0 {
		t.Fatalf("negated guard %#x", got)
	}
	unguarded := testInstrGuard(0xFF, false) // PredNone
	if got := w.guardMask(&unguarded); got != 0xFFFFFFFF {
		t.Fatalf("unguarded %#x", got)
	}
}

// TestStackMaskInvariant: after any sequence of diverge/pop/retire
// operations, stack masks are properly nested (each entry's mask contains
// the masks of entries above it) and the TOS mask is within launchMask.
func TestStackMaskInvariant(t *testing.T) {
	type op struct {
		Taken  uint32
		Retire uint32
		Kind   uint8
	}
	f := func(ops []op) bool {
		w := testWarp()
		for _, o := range ops {
			if len(w.stack) == 0 {
				break
			}
			switch o.Kind % 3 {
			case 0: // diverge from current active mask
				taken := o.Taken & w.tos().mask
				w.diverge(taken, 5, 6, 7)
			case 1: // reach reconvergence
				w.tos().pc = w.tos().rpc
				w.popReconverged()
			case 2: // some active lanes exit
				w.retireThreads(o.Retire & w.tos().mask)
			}
			// Invariants.
			if len(w.stack) == 0 {
				if w.state != warpFinished {
					return false
				}
				break
			}
			if w.tos().mask & ^w.launchMask != 0 {
				return false
			}
			if w.tos().mask == 0 {
				return false // popReconverged must drop dead entries
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

func testInstrGuard(p uint8, neg bool) (in isa.Instr) {
	in.Pred = isa.PredReg(p)
	in.PredNeg = neg
	return in
}

func TestRFCInsertLRU(t *testing.T) {
	w := testWarp()
	if _, _, evicted := w.rfcInsert(1, 2); evicted {
		t.Fatal("insert into empty cache evicted")
	}
	if _, _, evicted := w.rfcInsert(2, 2); evicted {
		t.Fatal("insert into non-full cache evicted")
	}
	// Touch r1 so r2 becomes LRU.
	if !w.rfcLookup(1) {
		t.Fatal("r1 should be resident")
	}
	ev, dirty, evicted := w.rfcInsert(3, 2)
	if !evicted || ev != 2 || !dirty {
		t.Fatalf("expected dirty eviction of r2, got reg=%d dirty=%v evicted=%v", ev, dirty, evicted)
	}
	// Rewriting a resident register must not evict.
	if _, _, evicted := w.rfcInsert(1, 2); evicted {
		t.Fatal("rewrite of resident register evicted")
	}
}
