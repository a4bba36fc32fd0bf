package sim

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"sync/atomic"

	"repro/internal/exectrace"
	"repro/internal/isa"
)

// ErrUntraceable marks a launch whose value stream is irreducibly
// schedule-dependent — some global memory cell is accessed both atomically
// and non-atomically, or plainly loaded by one warp and plainly stored by
// another — so no warped.trace/v1 capture of it can replay correctly under
// other configurations (SM count, CTA residency, epoch, L1 size, latencies).
// Callers fall back to execute mode. Test with errors.Is.
var ErrUntraceable = errors.New("sim: launch not traceable: a global address is accessed both atomically and non-atomically, or loaded by one warp and stored by another")

// recorder tees the functional front-end into an exectrace.Launch while an
// ordinary execute-mode simulation runs. It observes every issued
// instruction after its architectural effect resolves, so the captured
// stream is exactly what the timing back-end consumed — dummy MOVs and
// other timing artifacts are never recorded (replay re-derives them from
// its own configuration).
//
// Recording is shard-safe by construction: every mutable structure an SM
// touches at issue lives in that SM's own recView (a CTA — and therefore a
// warp stream — belongs to exactly one SM), and the shared atomSeen table
// is written only at the serial epoch barrier.
type recorder struct {
	launch      *exectrace.Launch
	streams     []*exectrace.WarpStream // indexed ctaID*warpsPerCTA + warpInCTA
	warpsPerCTA int

	// atomSeen maps each atomically-touched address to the value it held
	// the first time any atomic read it — its launch-time value, since
	// atomics are the only writers of those cells during the launch.
	// Written only from SM.resolveAtom at the epoch barrier.
	atomSeen map[uint32]uint32

	views []*recView // one per SM
}

// recView is one SM's private slice of the recorder: its aliasing-detection
// map, its pending-atomic buffer and its issue-time error. Cross-SM
// aliasing, which no single view can see, is caught by finish.
type recView struct {
	r *recorder

	// pend buffers the per-lane operations of the atomic currently inside
	// execute; record() flushes them into the issuing warp's stream.
	pend []exectrace.AtomOp

	// memUse tracks how each global address was touched by this SM, to
	// detect the program shapes a trace cannot represent: a cell accessed
	// both atomically and non-atomically, or one warp's plain load racing
	// another warp's plain store, in the same launch. Either makes the
	// value stream schedule-dependent, so record refuses it (see
	// ErrUntraceable) rather than produce a trace that replays wrong.
	memUse map[uint32]cellUse
	err    error
}

// cellUse is how one global address was touched during a launch: by an
// atomic, and by which warps' plain loads and stores. A warp field holds
// the warp's stream index + 1, 0 when no warp did, and severalWarps when
// more than one warp did.
type cellUse struct {
	atom           bool
	loader, storer int32
}

const severalWarps int32 = -1

// joinWarp merges two warp fields of a cellUse.
func joinWarp(a, b int32) int32 {
	switch {
	case a == 0 || a == b:
		return b
	case b == 0:
		return a
	}
	return severalWarps
}

// racy reports whether the cell's values depend on the schedule: it is
// touched both atomically and plainly, or a warp loads it that is not the
// one warp storing it.
func (u cellUse) racy() bool {
	if u.atom {
		return u.loader != 0 || u.storer != 0
	}
	return u.loader != 0 && u.storer != 0 && (u.loader != u.storer || u.loader == severalWarps)
}

func newRecorder(l isa.Launch, numSMs int) *recorder {
	// Snapshot the kernel without its reconvergence table: ReconvPC is an
	// execute-mode artifact the replayer never reads, and dropping it keeps
	// trace bytes independent of whether the CFG pass ran.
	k := *l.Kernel
	k.ReconvPC = nil
	r := &recorder{
		launch: &exectrace.Launch{
			Kernel: &k,
			Grid:   l.Grid,
			Block:  l.Block,
			Params: l.Params,
		},
		warpsPerCTA: l.WarpsPerCTA(),
		atomSeen:    make(map[uint32]uint32),
	}
	n := l.NumCTAs() * r.warpsPerCTA
	r.streams = make([]*exectrace.WarpStream, n)
	for i := range r.streams {
		r.streams[i] = &exectrace.WarpStream{CTAID: i / r.warpsPerCTA, WarpInCTA: i % r.warpsPerCTA}
	}
	r.launch.Warps = r.streams
	r.views = make([]*recView, numSMs)
	for i := range r.views {
		r.views[i] = &recView{r: r, memUse: make(map[uint32]cellUse)}
	}
	return r
}

// noteAtom is called from inside execute's atomic loop for each executed
// lane: addr is the target cell, add the addend. The pre-value is not known
// yet — the epoch barrier registers it into atomSeen when the deferred
// atomic resolves.
func (v *recView) noteAtom(addr, add uint32) {
	u := v.memUse[addr]
	u.atom = true
	v.note(addr, u)
	v.pend = append(v.pend, exectrace.AtomOp{Addr: addr, Add: add})
}

// noteGlobal is called for each executed lane of warp w's non-atomic
// global load (store false) or store (store true).
func (v *recView) noteGlobal(w *Warp, addr uint32, store bool) {
	u := v.memUse[addr]
	id := int32(w.ctaID*v.r.warpsPerCTA+w.warpInCTA) + 1
	if store {
		u.storer = joinWarp(u.storer, id)
	} else {
		u.loader = joinWarp(u.loader, id)
	}
	v.note(addr, u)
}

// note stores a cell's updated use and fails the view when it became racy.
func (v *recView) note(addr uint32, u cellUse) {
	v.memUse[addr] = u
	if u.racy() {
		v.fail(addr)
	}
}

func (v *recView) fail(addr uint32) {
	if v.err == nil {
		v.err = fmt.Errorf("%w (address 0x%x)", ErrUntraceable, addr)
	}
}

// record appends one issued instruction to its warp's stream. Safe to call
// from concurrent shard workers: the stream is keyed by CTA, and a CTA is
// resident on exactly one SM.
func (v *recView) record(w *Warp, in *isa.Instr, pc int32, active, eff uint32, res *execResult) {
	ws := v.r.streams[w.ctaID*v.r.warpsPerCTA+w.warpInCTA]
	rec := exectrace.Rec{PC: pc, Active: active, Eff: eff}
	if res.writes {
		rec.Flags |= exectrace.FlagWrites
	}
	if in.Op == isa.OpAtomAdd {
		// Atomic outcomes are schedule-dependent: the replayer recomputes
		// the old-value vector (and the unchanged bit) against its shadow
		// memory, so neither is stored — which also keeps trace bytes
		// independent of the recording configuration (and lets record()
		// run at issue, before the epoch barrier resolves the atomic).
		ws.Atoms = append(ws.Atoms, v.pend...)
	} else if res.writes {
		if res.unchanged {
			rec.Flags |= exectrace.FlagUnchanged
		} else {
			rec.Flags |= exectrace.FlagVals
			ws.Vals = append(ws.Vals, *res.dstVals)
		}
	}
	switch in.Op {
	case isa.OpLdG, isa.OpStG, isa.OpAtomAdd:
		rec.NSegs = uint8(res.nsegs)
		ws.Segs = append(ws.Segs, res.segs()...)
		if in.Op == isa.OpAtomAdd {
			rec.Deg = uint16(res.atomDeg)
		}
	case isa.OpLdS, isa.OpStS:
		rec.Deg = uint16(res.sharedDeg)
		// Distinct-word count of the bank model; broadcast hits are
		// re-derived at replay as popcount(eff) - words, so the record
		// stays one byte. Both are pure functions of the lane addresses,
		// never of the recording configuration.
		rec.NSegs = uint8(res.sharedWds)
	}
	ws.Recs = append(ws.Recs, rec)
	v.pend = v.pend[:0]
}

// finish seals the launch: per-SM usage maps are merged to catch cross-SM
// races — atomic/non-atomic aliasing, or a load and a store by warps on
// different SMs — invisible to any single view's issue-time check (the
// lowest racy address is reported so the error is deterministic at every
// shard count), and the atomic launch-time table is sorted by address so
// the serialized trace is canonical regardless of discovery order.
func (r *recorder) finish() (*exectrace.Launch, error) {
	merged := make(map[uint32]cellUse)
	for _, v := range r.views {
		for addr, use := range v.memUse {
			m := merged[addr]
			merged[addr] = cellUse{atom: m.atom || use.atom, loader: joinWarp(m.loader, use.loader), storer: joinWarp(m.storer, use.storer)}
		}
	}
	bad, found := uint32(0), false
	for addr, use := range merged {
		if use.racy() && (!found || addr < bad) {
			bad, found = addr, true
		}
	}
	if found {
		return nil, fmt.Errorf("%w (address 0x%x)", ErrUntraceable, bad)
	}
	cells := make([]exectrace.AtomCell, 0, len(r.atomSeen))
	for a, v := range r.atomSeen {
		cells = append(cells, exectrace.AtomCell{Addr: a, Val: v})
	}
	sort.Slice(cells, func(i, j int) bool { return cells[i].Addr < cells[j].Addr })
	r.launch.AtomInit = cells
	return r.launch, nil
}

// traceConfigError explains why a configuration cannot record or replay.
func (g *GPU) traceConfigError() error {
	if g.cfg.Faults.Enabled() {
		return &ConfigError{Field: "Faults", Reason: "fault injection corrupts functional state at commit time; record and replay require a fault-free functional front-end"}
	}
	return nil
}

// Record runs the launch in record mode: a normal execute-mode simulation
// whose functional front-end is teed into a trace launch. The returned
// Result is byte-identical to what RunContext would produce — recording is
// observation, never perturbation.
func (g *GPU) Record(l isa.Launch) (*Result, *exectrace.Launch, error) {
	return g.RecordContextBeat(context.Background(), l, nil)
}

// RecordContextBeat is Record with cancellation and a progress heartbeat
// (see RunContextBeat).
func (g *GPU) RecordContextBeat(ctx context.Context, l isa.Launch, beat *atomic.Uint64) (*Result, *exectrace.Launch, error) {
	if err := g.traceConfigError(); err != nil {
		return nil, nil, err
	}
	if err := l.Validate(); err != nil {
		return nil, nil, err
	}
	g.rec = newRecorder(l, len(g.sms))
	defer func() { g.rec = nil }()
	res, err := g.run(ctx, l, beat)
	if err != nil {
		return nil, nil, err
	}
	lt, err := g.rec.finish()
	if err != nil {
		return nil, nil, err
	}
	if err := lt.Validate(); err != nil {
		return nil, nil, fmt.Errorf("sim: recorded trace failed validation: %w", err)
	}
	return res, lt, nil
}
