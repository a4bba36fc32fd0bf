package sim

import (
	"context"
	"math/bits"
	"sync/atomic"

	"repro/internal/exectrace"
	"repro/internal/isa"
)

// replayRun is the per-run state of a trace-driven simulation: the
// (immutable, possibly shared) resident trace launch plus the shadow memory
// that re-executes atomics in the replay's own issue order.
type replayRun struct {
	launch      *exectrace.Launch
	warpsPerCTA int
	// atoms shadows the atomically-updated memory cells, seeded from the
	// trace's launch-time table. Replay applies the recorded per-lane
	// addends in its own (deterministic) issue order, which is exactly how
	// execute mode orders them under the same configuration — so the
	// old-value vectors, and everything downstream of them, match.
	atoms map[uint32]uint32
}

func (rp *replayRun) stream(ctaID, warpInCTA int) *exectrace.Stream {
	return rp.launch.Stream(ctaID*rp.warpsPerCTA + warpInCTA)
}

// Replay drives the timing/compression/energy back-end from a recorded
// trace launch instead of the ISA interpreter. For any configuration this
// GPU was built with, the Result is byte-identical to executing the same
// launch — the determinism oracle in the test suite enforces it.
//
// A launch in the resident form (as Record returns it) replays as is: it
// was validated when it was sealed. A decoded launch (as exectrace.Read
// returns it) is validated and packed once, here. The trace launch is
// read-only throughout: any number of concurrent replays (each with its
// own GPU) may share one trace.
func (g *GPU) Replay(lt *exectrace.Launch) (*Result, error) {
	return g.ReplayContextBeat(context.Background(), lt, nil)
}

// ReplayContextBeat is Replay with cancellation and a progress heartbeat
// (see RunContextBeat).
func (g *GPU) ReplayContextBeat(ctx context.Context, lt *exectrace.Launch, beat *atomic.Uint64) (*Result, error) {
	if err := g.traceConfigError(); err != nil {
		return nil, err
	}
	lt, err := exectrace.Pack(lt)
	if err != nil {
		return nil, err
	}
	var l isa.Launch
	g.rp, l = newReplayRun(lt)
	defer func() { g.rp = nil }()
	return g.run(ctx, l, beat)
}

// newReplayRun prepares the per-run replay state of a resident trace
// launch, with the shadow atomic memory seeded from its launch-time table,
// and returns the launch it replays.
func newReplayRun(lt *exectrace.Launch) (*replayRun, isa.Launch) {
	l := isa.Launch{Kernel: lt.Kernel, Grid: lt.Grid, Block: lt.Block, Params: lt.Params}
	rp := &replayRun{
		launch:      lt,
		warpsPerCTA: l.WarpsPerCTA(),
		atoms:       make(map[uint32]uint32, len(lt.AtomInit)),
	}
	for _, c := range lt.AtomInit {
		rp.atoms[c.Addr] = c.Val
	}
	return rp, l
}

// replayStep is the replay-mode counterpart of execute: it consumes the
// record at the warp's trace cursor and reconstructs the functional
// outcome the timing pipeline needs — a changed register value decoded
// into the warp's own register (where execute would have written it; an
// unchanged write leaves the register as it is), memory-timing metadata
// from the record, and atomic old values from the shadow memory. Control
// flow needs no SIMT stack: the trace already is the resolved lane-exact
// instruction stream.
func (s *SM) replayStep(w *Warp, in *isa.Instr, f *inflight) {
	res := &f.res
	cur := &w.rp
	eff := cur.Eff

	switch in.Op {
	case isa.OpNop, isa.OpBra:
		// issue-slot occupancy only

	case isa.OpBar:
		s.arriveBarrier(w)

	case isa.OpExit:
		dying := cur.Active
		if in.Pred != isa.PredNone {
			dying = eff
		}
		w.launchMask &^= dying

	case isa.OpSetP:
		// Predicate outcomes are folded into the trace's Eff masks; the
		// record exists for issue-slot and scoreboard timing only.

	case isa.OpAtomAdd:
		res.dstVals = &w.regBuf[in.Dst]
		// The cursor advances at issue; the shadow-memory
		// read-modify-writes resolve at the barrier that ends the cycle
		// (SM.resolveReplayAtom) in SM-id order — the same global order
		// execute mode commits in, so the old-value vectors match. The
		// shared shadow map is never touched from shard workers.
		f.atoms = cur.Atoms(bits.OnesCount32(eff))
		res.writes = eff != 0
		if eff == 0 {
			res.unchanged = true
		} else {
			s.memLog = append(s.memLog, memOp{atom: f})
		}
		replayMemAux(cur, in, res)

	case isa.OpStG, isa.OpStS:
		replayMemAux(cur, in, res)

	default:
		// Register-writing ops: loads, selp, ALU/SFU.
		if cur.Flags&exectrace.FlagWrites != 0 {
			res.writes = true
			res.dstVals = &w.regBuf[in.Dst]
			if cur.Flags&exectrace.FlagVals != 0 {
				cur.Value(res.dstVals)
			} else {
				res.unchanged = true
			}
		}
		if in.Op == isa.OpLdG || in.Op == isa.OpLdS {
			replayMemAux(cur, in, res)
		}
	}

	// A stream ends at the exit that retires the warp's last thread; in
	// execute mode that is the instant warpExited fires, so replay fires it
	// on stream exhaustion and the barrier quorum and CTA accounting evolve
	// identically.
	if !cur.Next() && w.state != warpFinished {
		w.state = warpFinished
		s.warpExited(w)
	}
}

// replayMemAux restores the memory-timing metadata of the cursor's record:
// the coalesced segment list for global ops, the conflict degree for
// shared ops and atomics.
func replayMemAux(cur *exectrace.Cursor, in *isa.Instr, res *execResult) {
	switch in.Op {
	case isa.OpLdG, isa.OpStG, isa.OpAtomAdd:
		res.nsegs = copy(res.segBuf[:], cur.Segs(int(cur.NSegs)))
		if in.Op == isa.OpAtomAdd {
			res.atomDeg = int(cur.Deg)
		}
	default:
		res.sharedDeg = int(cur.Deg)
		// Older v1 traces carry no word count for shared ops (NSegs was
		// always 0 there); they replay with zero bank-level counters while
		// phases — the timing-relevant part — still come from Deg.
		res.sharedWds = int(cur.NSegs)
		if res.sharedWds > 0 {
			res.sharedBc = bits.OnesCount32(cur.Eff) - res.sharedWds
		}
	}
}
