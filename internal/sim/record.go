package sim

import (
	"context"
	"errors"
	"fmt"
	"math/bits"
	"sort"
	"sync/atomic"

	"repro/internal/core"
	"repro/internal/exectrace"
	"repro/internal/isa"
)

// ErrUntraceable marks a launch whose value stream is irreducibly
// schedule-dependent — some global memory cell is accessed both atomically
// and non-atomically, or plainly loaded by one warp and plainly stored by
// another — so no warped.trace/v1 capture of it can replay correctly under
// other configurations (SM count, CTA residency, L1 size, latencies).
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
// touches at issue lives in that SM's own recView or in the stream writer
// of a warp resident on it (a CTA — and therefore a warp stream — belongs
// to exactly one SM), and the shared atomSeen table is written only at the
// serial barrier that ends each cycle.
type recorder struct {
	launch      *exectrace.Launch        // header; finish seals the streams into it
	streams     []exectrace.StreamWriter // indexed ctaID*warpsPerCTA + warpInCTA
	warpsPerCTA int

	// atomSeen maps each atomically-touched address to the value it held
	// the first time any atomic read it — its launch-time value, since
	// atomics are the only writers of those cells during the launch.
	// Written only from SM.resolveAtom at the barrier that ends each cycle.
	atomSeen map[uint32]uint32

	views []*recView // one per SM
}

// recView is one SM's private slice of the recorder: its race table, its
// pending-atomic buffer and its issue-time error. Cross-SM races, which no
// single view can see, are caught by finish.
type recView struct {
	r *recorder

	// pend buffers the per-lane operations of the atomic currently inside
	// execute; record() flushes them into the issuing warp's stream.
	pend []exectrace.AtomOp

	// pages is the race table: how this SM touched each global word, to
	// detect the program shapes a trace cannot represent — a cell accessed
	// both atomically and non-atomically, or one warp's plain load racing
	// another warp's plain store, in the same launch. Either makes the
	// value stream schedule-dependent, so record refuses it (see
	// ErrUntraceable) rather than produce a trace that replays wrong.
	// Global accesses are word-aligned, so a page holds one cellUse per
	// word of usePageWords consecutive words, keyed by word index /
	// usePageWords; last caches the page of the previous access, which
	// coalesced lanes almost always share.
	pages   map[uint32]*usePage
	last    *usePage
	lastKey uint32
	err     error
}

// usePageWords is how many consecutive global words one race-table page
// covers: 3 KiB of table per KiB of memory. Smaller pages leave less of a
// page unused where an SM touches scattered words, and larger ones take
// more map lookups.
const usePageWords = 256

type usePage [usePageWords]cellUse

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

// join merges two SMs' uses of one cell.
func (u cellUse) join(o cellUse) cellUse {
	return cellUse{atom: u.atom || o.atom, loader: joinWarp(u.loader, o.loader), storer: joinWarp(u.storer, o.storer)}
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
	r.streams = make([]exectrace.StreamWriter, l.NumCTAs()*r.warpsPerCTA)
	r.views = make([]*recView, numSMs)
	for i := range r.views {
		r.views[i] = &recView{r: r, pages: make(map[uint32]*usePage)}
	}
	return r
}

// use returns the race-table cell of the word at addr, adding its page on
// first touch.
func (v *recView) use(addr uint32) *cellUse {
	word := addr / 4
	if key := word / usePageWords; v.last == nil || key != v.lastKey {
		p := v.pages[key]
		if p == nil {
			p = new(usePage)
			v.pages[key] = p
		}
		v.last, v.lastKey = p, key
	}
	return &v.last[word%usePageWords]
}

// noteAtom is called once execute has checked every executed lane of an
// atomic: addrs are the target cells, adds the addends. The pre-values are
// not known yet — the barrier that ends the cycle registers them into
// atomSeen when the deferred atomic resolves.
func (v *recView) noteAtom(addrs, adds *[isa.WarpSize]uint32, eff uint32) {
	for m := eff; m != 0; m &= m - 1 {
		lane := bits.TrailingZeros32(m)
		u := v.use(addrs[lane])
		u.atom = true
		v.check(addrs[lane], u)
		v.pend = append(v.pend, exectrace.AtomOp{Addr: addrs[lane], Add: adds[lane]})
	}
}

// noteGlobal is called once execute has performed every executed lane of
// warp w's non-atomic global load (store false) or store (store true) of
// addrs.
func (v *recView) noteGlobal(w *Warp, addrs *[isa.WarpSize]uint32, eff uint32, store bool) {
	id := int32(w.ctaID*v.r.warpsPerCTA+w.warpInCTA) + 1
	for m := eff; m != 0; m &= m - 1 {
		addr := addrs[bits.TrailingZeros32(m)]
		u := v.use(addr)
		if store {
			u.storer = joinWarp(u.storer, id)
		} else {
			u.loader = joinWarp(u.loader, id)
		}
		v.check(addr, u)
	}
}

// check fails the view when a cell's use became racy.
func (v *recView) check(addr uint32, u *cellUse) {
	if v.err == nil && u.racy() {
		v.err = fmt.Errorf("%w (address 0x%x)", ErrUntraceable, addr)
	}
}

// record appends one issued instruction to its warp's stream. Safe to call
// from concurrent shard workers: the stream is keyed by CTA, and a CTA is
// resident on exactly one SM.
func (v *recView) record(w *Warp, in *isa.Instr, pc int32, active, eff uint32, res *execResult) {
	rec := exectrace.Rec{PC: pc, Active: active, Eff: eff}
	var val *core.WarpReg
	var atoms []exectrace.AtomOp
	if res.writes {
		rec.Flags |= exectrace.FlagWrites
	}
	if in.Op == isa.OpAtomAdd {
		// Atomic outcomes are schedule-dependent: the replayer recomputes
		// the old-value vector (and the unchanged bit) against its shadow
		// memory, so neither is stored — which also keeps trace bytes
		// independent of the recording configuration (and lets record()
		// run at issue, before the barrier resolves the atomic).
		atoms = v.pend
	} else if res.writes {
		if res.unchanged {
			rec.Flags |= exectrace.FlagUnchanged
		} else {
			rec.Flags |= exectrace.FlagVals
			val = res.dstVals
		}
	}
	var segs []uint32
	switch in.Op {
	case isa.OpLdG, isa.OpStG, isa.OpAtomAdd:
		rec.NSegs = uint8(res.nsegs)
		segs = res.segs()
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
	v.r.streams[w.ctaID*v.r.warpsPerCTA+w.warpInCTA].Append(rec, val, segs, atoms)
	v.pend = v.pend[:0]
}

// finish seals the launch: the SMs' race tables are merged, page by page,
// to catch cross-SM races — atomic/non-atomic aliasing, or a load and a
// store by warps on different SMs — invisible to any single view's
// issue-time check (the lowest racy address is reported so the error is
// deterministic at every shard count); the atomic launch-time table is
// sorted by address so the serialized trace is canonical regardless of
// discovery order; and the streams are sealed into the launch, which
// validates them.
func (r *recorder) finish() (*exectrace.Launch, error) {
	merged := r.views[0].pages
	for _, v := range r.views[1:] {
		for key, p := range v.pages {
			m := merged[key]
			if m == nil {
				merged[key] = p
				continue
			}
			for i := range m {
				m[i] = m[i].join(p[i])
			}
		}
	}
	bad, found := uint32(0), false
	for key, p := range merged {
		for i := range p {
			if p[i].racy() {
				if addr := (key*usePageWords + uint32(i)) * 4; !found || addr < bad {
					bad, found = addr, true
				}
				break // the rest of the page lies above
			}
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
	if err := r.launch.Seal(r.streams); err != nil {
		return nil, fmt.Errorf("sim: recorded trace failed validation: %w", err)
	}
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
	return res, lt, nil
}
