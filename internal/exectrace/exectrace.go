// Package exectrace defines the versioned execution-trace format
// (warped.trace/v1) that connects the simulator's functional front-end to
// its timing/compression/energy back-end.
//
// A trace captures everything the timing model needs from functional
// execution and nothing it derives itself: per-warp instruction issue
// records (PC, active and guard-filtered masks), register-write outcomes
// (the 32-lane value vectors, inter-lane delta-encoded on the wire because
// warped-compression's §3 observation — neighboring lanes hold similar
// values — applies to the trace exactly as it does to the register file),
// coalesced global-memory segment lists, shared-memory and atomic conflict
// degrees, and the launch-time values of atomically-updated memory cells.
// Timing-dependent artifacts (dummy MOVs, bank schedules, stalls,
// compression encodings) are deliberately absent: they are the back-end's
// output, recomputed per configuration at replay.
//
// Traces are recorded once per (benchmark, scale) by sim record mode and
// replayed under any number of configurations; replayed results are
// byte-identical to execute-mode results for the same configuration. That
// holds only for launches whose functional behaviour does not depend on the
// timing configuration, so record mode refuses a launch that races on
// global memory (sim.ErrUntraceable): one warp loading a cell another warp
// stores, or atomics and plain accesses meeting on a cell.
//
// In memory a launch is held in a packed resident form (see Stream) that
// the recorder writes and the replayer reads; Read returns the decoded
// form, and Pack converts it. A Launch, in either form, is immutable by
// contract: any number of replays may share one concurrently.
package exectrace

import (
	"fmt"
	"math/bits"

	"repro/internal/core"
	"repro/internal/isa"
)

// Schema identifies the trace container format. It is the first header
// field of every serialized trace; readers reject anything else.
const Schema = "warped.trace/v1"

// Meta is the self-describing trace header, serialized as one canonical
// JSON line after the magic. It carries provenance only — nothing in Meta
// is needed to replay (the launches are self-contained), so unknown future
// fields can be ignored by old readers of later v1 revisions.
type Meta struct {
	Schema    string `json:"schema"`
	Benchmark string `json:"benchmark,omitempty"`
	Scale     string `json:"scale,omitempty"`
	Launches  int    `json:"launches"`
}

// RecFlags annotate one instruction record.
type RecFlags uint8

const (
	// FlagWrites marks an instruction that produced a register write.
	FlagWrites RecFlags = 1 << iota
	// FlagUnchanged marks a write whose merged destination vector equals
	// the value the register already held (the encoding-memo fast path).
	// The replayer reproduces the vector from its shadow register state,
	// so unchanged writes carry no value payload.
	FlagUnchanged
	// FlagVals marks a record with an entry in the stream's value pool: a
	// changed, non-atomic register write. Atomic writes never carry
	// values — their old-value vectors are schedule-dependent, so the
	// replayer recomputes them against the shadow memory in its own issue
	// order (see Launch.AtomInit).
	FlagVals
)

// Rec is one issued instruction of one warp, in program (issue) order.
// Fixed-size; variable payloads live in the stream's side pools (Vals,
// Segs, Atoms) and are consumed sequentially alongside the records.
type Rec struct {
	PC     int32  // static instruction index
	Active uint32 // SIMT stack active mask at issue
	Eff    uint32 // guard-filtered execution mask
	Flags  RecFlags
	// NSegs is the coalesced 128B segment count for global memory ops. For
	// shared ops it carries the bank model's distinct-word count instead
	// (added within v1; older writers left it 0 there, which newer readers
	// treat as "unknown" and replay with zero bank-level counters).
	NSegs uint8
	Deg   uint16 // shared-memory conflict phases or atomic serialization degree
}

// AtomOp is one lane of an atomic read-modify-write: the target address and
// the addend. Old values are not recorded — they are replayed against the
// shadow memory seeded by Launch.AtomInit.
type AtomOp struct {
	Addr uint32
	Add  uint32
}

// AtomCell is the launch-time value of one atomically-updated memory word.
type AtomCell struct {
	Addr uint32
	Val  uint32
}

// WarpStream is the functional execution of one warp, identified by its
// grid position (CTA index and warp index within the CTA) — never by SM or
// hardware slot, which are timing-dependent placements the replaying
// back-end decides for itself.
type WarpStream struct {
	CTAID     int
	WarpInCTA int

	Recs []Rec
	// Vals holds the merged destination vector of every FlagVals record,
	// in record order.
	Vals []core.WarpReg
	// Segs holds the concatenated coalesced-segment lists of global
	// memory records, in record order (NSegs entries each).
	Segs []uint32
	// Atoms holds the concatenated per-lane atomic operations, in record
	// order (popcount(Eff) entries per atomic record, lane order).
	Atoms []AtomOp
}

// Launch is the recorded functional execution of one kernel launch. It is
// self-contained: the kernel image, geometry and parameters travel with the
// streams, so replay needs neither the benchmark registry nor its input
// generators.
//
// A launch holds its streams in one of two forms. The recorder and Pack
// produce the resident form (see Stream), which is what trace caches keep
// and what the replayer reads; Read returns the decoded form, Warps.
type Launch struct {
	Kernel *isa.Kernel
	Grid   isa.Dim3
	Block  isa.Dim3
	Params [isa.NumParams]uint32

	// AtomInit holds the launch-time value of every memory word touched by
	// an atomic during the launch, sorted by address. Replay seeds its
	// shadow memory from it and applies AtomOps in replay issue order,
	// which reproduces execute-mode atomic semantics under the replay
	// configuration's own schedule.
	AtomInit []AtomCell

	// Warps is the decoded form: one stream per warp of the grid, sorted
	// by (CTAID, WarpInCTA). Nil on a launch in the resident form.
	Warps []*WarpStream

	// streams is the resident form, in the same order as Warps. Only Seal
	// and Pack set it, and only on a launch that validated.
	streams []Stream
}

// Trace is a full recorded run: one or more launches against one device
// memory image.
type Trace struct {
	Meta     Meta
	Launches []*Launch
}

// MemBytes estimates the in-memory footprint of the trace — the figure
// trace caches budget against.
func (t *Trace) MemBytes() int64 {
	var n int64
	for _, l := range t.Launches {
		n += l.MemBytes()
	}
	return n
}

// MemBytes estimates the in-memory footprint of one launch in the form it
// holds: for a resident launch, the packed bytes and pools of its streams.
func (l *Launch) MemBytes() int64 {
	n := int64(len(l.Kernel.Code))*32 + int64(len(l.AtomInit))*8
	for i := range l.streams {
		n += l.streams[i].memBytes()
	}
	for _, w := range l.Warps {
		n += int64(len(w.Recs))*16 + int64(len(w.Vals))*int64(core.WarpBytes) +
			int64(len(w.Segs))*4 + int64(len(w.Atoms))*8 + 64
	}
	return n
}

// Instructions counts the recorded instruction issues across all launches.
func (t *Trace) Instructions() uint64 {
	var n uint64
	for _, l := range t.Launches {
		for i := range l.streams {
			n += uint64(l.streams[i].recs)
		}
		for _, w := range l.Warps {
			n += uint64(len(w.Recs))
		}
	}
	return n
}

// Validate checks a launch for structural consistency: kernel validity,
// geometry, the warp-stream set implied by the grid, record field bounds
// and side-pool length agreement. The replayer trusts a validated launch,
// so every invariant it relies on is enforced here (a corrupt or
// adversarial trace must fail Validate, never panic the replayer).
func (l *Launch) Validate() error {
	if l.Kernel == nil {
		return fmt.Errorf("exectrace: launch without kernel")
	}
	if err := l.Kernel.Validate(); err != nil {
		return fmt.Errorf("exectrace: %w", err)
	}
	il := isa.Launch{Kernel: l.Kernel, Grid: l.Grid, Block: l.Block, Params: l.Params}
	if err := il.Validate(); err != nil {
		return fmt.Errorf("exectrace: %w", err)
	}
	for i := 1; i < len(l.AtomInit); i++ {
		if l.AtomInit[i].Addr <= l.AtomInit[i-1].Addr {
			return fmt.Errorf("exectrace: AtomInit not sorted by unique address")
		}
	}
	numCTAs, warpsPerCTA := il.NumCTAs(), il.WarpsPerCTA()
	n := len(l.Warps)
	if l.streams != nil {
		n = len(l.streams)
	}
	if n != numCTAs*warpsPerCTA {
		return fmt.Errorf("exectrace: %d warp streams for a %d-CTA x %d-warp grid",
			n, numCTAs, warpsPerCTA)
	}
	for i := range l.streams {
		if err := l.streams[i].validate(l.Kernel); err != nil {
			return fmt.Errorf("exectrace: cta %d warp %d: %w", i/warpsPerCTA, i%warpsPerCTA, err)
		}
	}
	for i, w := range l.Warps {
		if w == nil {
			return fmt.Errorf("exectrace: nil warp stream %d", i)
		}
		want := i / warpsPerCTA
		if w.CTAID != want || w.WarpInCTA != i%warpsPerCTA {
			return fmt.Errorf("exectrace: warp stream %d is (cta %d, warp %d), want (cta %d, warp %d) — streams must be sorted and complete",
				i, w.CTAID, w.WarpInCTA, want, i%warpsPerCTA)
		}
		if err := w.validate(l.Kernel); err != nil {
			return fmt.Errorf("exectrace: cta %d warp %d: %w", w.CTAID, w.WarpInCTA, err)
		}
	}
	return nil
}

// validate checks one stream's records against the kernel and verifies the
// side pools are consumed exactly.
func (w *WarpStream) validate(k *isa.Kernel) error {
	rc := recCheck{k: k}
	for i := range w.Recs {
		if err := rc.add(&w.Recs[i]); err != nil {
			return err
		}
	}
	if rc.vals != len(w.Vals) {
		return fmt.Errorf("value pool holds %d vectors, records reference %d", len(w.Vals), rc.vals)
	}
	return rc.end(len(w.Segs), len(w.Atoms))
}

// recCheck checks a stream's records one at a time, in order, and counts
// the side-pool entries they reference.
type recCheck struct {
	k                 *isa.Kernel
	n                 int
	last              isa.Opcode
	vals, segs, atoms int
}

// add checks the next record.
func (c *recCheck) add(r *Rec) error {
	i := c.n
	c.n++
	k := c.k
	if r.PC < 0 || int(r.PC) >= len(k.Code) {
		return fmt.Errorf("rec %d: pc %d outside code [0,%d)", i, r.PC, len(k.Code))
	}
	if r.Flags&^knownFlags != 0 {
		return fmt.Errorf("rec %d: unknown flags %#x", i, r.Flags)
	}
	in := &k.Code[r.PC]
	c.last = in.Op
	if r.Flags&FlagWrites != 0 && !in.HasDst() {
		return fmt.Errorf("rec %d: write flag on %s, which has no destination", i, in)
	}
	if r.Flags&FlagVals != 0 {
		if r.Flags&(FlagWrites|FlagUnchanged) != FlagWrites || in.Op == isa.OpAtomAdd {
			return fmt.Errorf("rec %d: value payload on a non-writing, unchanged or atomic record", i)
		}
		c.vals++
	}
	switch in.Op {
	case isa.OpLdG, isa.OpStG, isa.OpAtomAdd:
		if int(r.NSegs) > isa.WarpSize {
			return fmt.Errorf("rec %d: %d segments for a 32-lane warp", i, r.NSegs)
		}
		c.segs += int(r.NSegs)
		if in.Op == isa.OpAtomAdd {
			c.atoms += bits.OnesCount32(r.Eff)
		}
	case isa.OpLdS, isa.OpStS:
		// NSegs holds the shared bank model's distinct-word count
		// here; it references no side pool, but can never exceed the
		// lanes that requested words.
		if int(r.NSegs) > bits.OnesCount32(r.Eff) {
			return fmt.Errorf("rec %d: %d shared words for %d active lanes", i, r.NSegs, bits.OnesCount32(r.Eff))
		}
	default:
		if r.NSegs != 0 {
			return fmt.Errorf("rec %d: segment list on non-global %s", i, in)
		}
	}
	return nil
}

// end checks what a whole stream owes: at least one record, the last an
// exit, and segment and atomic pools of segs and atoms entries that the
// records consume exactly.
func (c *recCheck) end(segs, atoms int) error {
	if c.n == 0 {
		return fmt.Errorf("empty stream (every warp issues at least exit)")
	}
	if c.last != isa.OpExit {
		return fmt.Errorf("stream does not end at an exit instruction")
	}
	if c.segs != segs {
		return fmt.Errorf("segment pool holds %d entries, records reference %d", segs, c.segs)
	}
	if c.atoms != atoms {
		return fmt.Errorf("atomic pool holds %d ops, records reference %d", atoms, c.atoms)
	}
	return nil
}

// Validate checks the whole trace.
func (t *Trace) Validate() error {
	if t.Meta.Schema != Schema {
		return fmt.Errorf("exectrace: schema %q, want %q", t.Meta.Schema, Schema)
	}
	if len(t.Launches) == 0 {
		return fmt.Errorf("exectrace: trace has no launches")
	}
	for i, l := range t.Launches {
		if err := l.Validate(); err != nil {
			return fmt.Errorf("launch %d: %w", i, err)
		}
	}
	return nil
}
