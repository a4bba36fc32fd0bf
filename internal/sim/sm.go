package sim

import (
	"math"
	"math/bits"

	"repro/internal/core"
	"repro/internal/faults"
	"repro/internal/isa"
	"repro/internal/mem"
	"repro/internal/regfile"
	"repro/internal/sched"
	"repro/internal/stats"
)

// ctaState tracks one resident thread block.
type ctaState struct {
	active    bool
	ctaID     int
	warpsLeft int // warps not yet finalized
	liveWarps int // warps with threads still running (barrier quorum)
	barrier   int // warps waiting at the barrier
	shared    []byte
	slots     []int
}

// SM is one streaming multiprocessor.
type SM struct {
	id     int
	cfg    *Config
	gpu    *GPU
	launch isa.Launch
	kernel *isa.Kernel

	warps   []*Warp // indexed by slot; nil = free
	ctas    []*ctaState
	policy  []sched.Policy // one per scheduler
	ageSeq  uint64
	rfFile  *regfile.File
	comp    *core.UnitPool
	decomp  *core.UnitPool
	memPipe *mem.Pipe
	l1      *mem.Cache // nil when disabled

	// running has a bit per warp slot whose warp can issue — resident, not
	// waiting at a barrier, not finished — grouped by scheduler so issueAll
	// scans only those: slot j*SchedulersPerSM+si is bit j of the runWords
	// words of scheduler si.
	running  []uint64
	runWords int

	// In-flight instructions in issue order, and beside each the cycle it
	// is next due to be stepped (see advancePipeline).
	inflight []*inflight
	due      []uint64

	// Per-cycle bank port reservations: stamp == cycle means taken.
	readPort  [regfile.NumBanks]uint64
	writePort [regfile.NumBanks]uint64

	cycle           uint64
	liveWarps       int
	collectorsInUse int // inflight instructions still in stCollect

	inj *faults.Injector // nil unless fault injection is configured

	// Idle-cycle sleep (DESIGN.md §20). A quiet step changes nothing but
	// stall counters; after one, the SM skips its steps until wakeAt, the
	// earliest cycle at which anything time-dependent can change, and
	// settle later adds the skipped cycles' counters in bulk. moved and
	// nextEvent are the per-step detectors; sleepFrom is the first skipped
	// cycle (wakeAt and sleepFrom are 0 while awake), and sleepStalls the
	// scoreboard, collector and wakeup stall growth of the quiet step —
	// which every skipped cycle repeats.
	moved       bool
	nextEvent   uint64
	wakeAt      uint64
	sleepFrom   uint64
	sleepStalls [3]uint64

	// Epoch-commit state (shard.go): global stores and deferred atomics
	// buffer in memLog during the parallel phase and apply at the epoch
	// barrier in SM-id order; memOverlay makes the SM's own buffered
	// stores visible to its own loads within the epoch. issuedCtr points
	// at the owning shard's instruction counter (the O(shards) heartbeat);
	// errCycle records when err was raised, for the coordinator's
	// deterministic first-error selection.
	memLog     []memOp
	memOverlay map[uint32]uint32
	issuedCtr  *uint64
	errCycle   uint64
	recv       *recView // this SM's recorder view; nil unless recording

	// Scratch arenas, owned exclusively by this SM (each SM is stepped by
	// exactly one shard worker per epoch, and the experiment engine gives
	// every job its own GPU, so no locking is needed; `go test -race`
	// guards the invariant). They make the steady-state cycle path
	// allocation-free:
	//   - inflightPool / warpPool recycle retired records and their
	//     backing arrays (register vectors, SIMT stacks, bank lists);
	//   - cands is the scheduler candidate buffer rebuilt every cycle;
	//   - slotScratch backs the free-slot scan of CTA launches.
	inflightPool []*inflight
	warpPool     []*Warp
	cands        []sched.Candidate
	slotScratch  []int

	st  stats.Stats
	err error
}

// allocInflight takes a zeroed inflight record from the SM's pool.
func (s *SM) allocInflight() *inflight {
	if n := len(s.inflightPool); n > 0 {
		f := s.inflightPool[n-1]
		s.inflightPool = s.inflightPool[:n-1]
		*f = inflight{}
		return f
	}
	return &inflight{}
}

// freeInflight returns a retired record to the pool for reuse.
func (s *SM) freeInflight(f *inflight) {
	s.inflightPool = append(s.inflightPool, f)
}

// allocWarpObj takes a recycled warp from the pool (or builds one) and
// re-initializes it for the given slot.
func (s *SM) allocWarpObj(slot, ctaSlot, ctaID, warpInCTA, liveThreads, numRegs int, age uint64) *Warp {
	if n := len(s.warpPool); n > 0 {
		w := s.warpPool[n-1]
		s.warpPool = s.warpPool[:n-1]
		w.reset(slot, ctaSlot, ctaID, warpInCTA, liveThreads, numRegs, age)
		return w
	}
	return newWarp(slot, ctaSlot, ctaID, warpInCTA, liveThreads, numRegs, age)
}

// regfileConfig derives the SM's register file configuration, including the
// fault topology realized for this SM (rebuilt per launch so every launch
// sees the identical, seed-determined pattern).
func (s *SM) regfileConfig() regfile.Config {
	cfg := s.cfg
	rc := regfile.Config{GatingEnabled: cfg.PowerGating, WakeupLatency: cfg.BankWakeupLatency, DrowsyAfter: cfg.DrowsyAfter, EncBanks: core.BankTable(s.gpu.comp)}
	if s.inj != nil {
		rc.FaultyBanks = s.inj.FaultyBanks()
		rc.RedirectCompressed = cfg.Faults.Redirect
	}
	return rc
}

func newSM(id int, gpu *GPU) *SM {
	cfg := &gpu.cfg
	runWords := (cfg.MaxWarpsPerSM/cfg.SchedulersPerSM + 63) / 64
	s := &SM{
		id:       id,
		cfg:      cfg,
		gpu:      gpu,
		warps:    make([]*Warp, cfg.MaxWarpsPerSM),
		running:  make([]uint64, cfg.SchedulersPerSM*runWords),
		runWords: runWords,
		ctas:     make([]*ctaState, cfg.MaxCTAsPerSM),
		comp:     core.NewUnitPool(cfg.Compressors, cfg.CompressLatency),
		decomp:   core.NewUnitPool(cfg.Decompressors, cfg.DecompressLatency),
		memPipe:  mem.NewPipe(cfg.GlobalLatency, cfg.GlobalMaxInflight),

		memOverlay: make(map[uint32]uint32),
		issuedCtr:  new(uint64), // run() retargets to the owning shard
	}
	if cfg.Faults.Enabled() {
		s.inj = faults.NewInjector(cfg.Faults, id, regfile.NumBanks)
	}
	s.rfFile = regfile.New(s.regfileConfig())
	if cfg.L1SizeKB > 0 {
		s.l1 = mem.NewCache(cfg.L1SizeKB<<10, cfg.L1Ways)
	}
	for i := range s.ctas {
		s.ctas[i] = &ctaState{}
	}
	for i := 0; i < cfg.SchedulersPerSM; i++ {
		s.policy = append(s.policy, sched.NewPolicy(cfg.Scheduler, cfg.MaxWarpsPerSM))
	}
	return s
}

// reset prepares the SM for a fresh kernel launch: new register file, unit
// pools, memory pipe and statistics (global memory persists at GPU level).
func (s *SM) reset(l isa.Launch) {
	cfg := s.cfg
	s.launch = l
	s.kernel = l.Kernel
	s.inflight, s.due = s.inflight[:0], s.due[:0]
	s.st = stats.Stats{}
	// Rebuild the injector so each launch draws the same seed-determined
	// fault pattern and transient stream (per-launch determinism).
	if cfg.Faults.Enabled() {
		s.inj = faults.NewInjector(cfg.Faults, s.id, regfile.NumBanks)
	} else {
		s.inj = nil
	}
	s.rfFile = regfile.New(s.regfileConfig())
	s.comp = core.NewUnitPool(cfg.Compressors, cfg.CompressLatency)
	s.decomp = core.NewUnitPool(cfg.Decompressors, cfg.DecompressLatency)
	s.memPipe.Reset()
	if cfg.L1SizeKB > 0 {
		s.l1 = mem.NewCache(cfg.L1SizeKB<<10, cfg.L1Ways)
	} else {
		s.l1 = nil
	}
	clear(s.warps)
	clear(s.running)
	for i := range s.ctas {
		s.ctas[i] = &ctaState{}
	}
	for _, p := range s.policy {
		p.Reset()
	}
	s.liveWarps = 0
	s.ageSeq = 0
	s.collectorsInUse = 0
	s.wakeAt, s.sleepFrom = 0, 0
	s.err = nil
	s.errCycle = 0
	s.memLog = s.memLog[:0]
	if len(s.memOverlay) > 0 {
		clear(s.memOverlay)
	}
	s.recv = nil
	if s.gpu.rec != nil {
		s.recv = s.gpu.rec.views[s.id]
	}
}

// busy reports whether the SM still has resident work.
func (s *SM) busy() bool { return s.liveWarps > 0 || len(s.inflight) > 0 }

// maxWarpSlots is the number of usable warp slots given the kernel's
// register demand (the register file occupancy limit).
func (s *SM) maxWarpSlots() int {
	n := s.cfg.MaxWarpsPerSM
	if s.kernel == nil || s.kernel.NumRegs == 0 {
		return n
	}
	byRegs := regfile.Capacity / s.kernel.NumRegs
	if byRegs < n {
		n = byRegs
	}
	return n
}

// tryLaunchCTA places grid CTA ctaID on this SM if resources allow. The
// dispatcher runs before the SMs step cycle `cycle`; a sleeping SM that
// receives a CTA settles its sleep and steps that cycle.
func (s *SM) tryLaunchCTA(ctaID int, cycle uint64) bool {
	warpsNeeded := s.launch.WarpsPerCTA()
	var ctaSlot = -1
	for i, c := range s.ctas {
		if !c.active {
			ctaSlot = i
			break
		}
	}
	if ctaSlot < 0 {
		return false
	}
	limit := s.maxWarpSlots()
	free := s.slotScratch[:0]
	for slot := 0; slot < limit && len(free) < warpsNeeded; slot++ {
		if s.warps[slot] == nil {
			free = append(free, slot)
		}
	}
	s.slotScratch = free[:0] // retain grown backing for the next launch
	if len(free) < warpsNeeded {
		return false
	}
	s.settle(cycle)

	cta := s.ctas[ctaSlot]
	// Reuse the CTA slot's shared-memory slab and slot list across
	// launches; a fresh CTA must observe zeroed shared memory.
	shared := cta.shared
	if cap(shared) >= s.kernel.SharedBytes {
		shared = shared[:s.kernel.SharedBytes]
		clear(shared)
	} else {
		shared = make([]byte, s.kernel.SharedBytes)
	}
	*cta = ctaState{
		active:    true,
		ctaID:     ctaID,
		warpsLeft: warpsNeeded,
		liveWarps: warpsNeeded,
		shared:    shared,
		slots:     append(cta.slots[:0], free...),
	}
	threads := s.launch.ThreadsPerCTA()
	for wi, slot := range free {
		live := threads - wi*isa.WarpSize
		if live > isa.WarpSize {
			live = isa.WarpSize
		}
		s.ageSeq++
		w := s.allocWarpObj(slot, ctaSlot, ctaID, wi, live, s.kernel.NumRegs, s.ageSeq)
		if s.gpu.rp != nil {
			w.rp.Reset(s.gpu.rp.stream(ctaID, wi))
		}
		s.setNext(w)
		s.warps[slot] = w
		s.setRunning(slot, true)
		if err := s.rfFile.AllocWarp(slot, s.kernel.NumRegs); err != nil {
			s.err = err
			return false
		}
		s.liveWarps++
	}
	return true
}

// step advances the SM by one cycle. Callers skip cycles before wakeAt
// (see asleep); the first step after a sleep settles it.
//
// A step that moved nothing — no issue, and no in-flight instruction
// retired, changed stage or lost a contended resource — leaves every
// issue hazard and pipeline wait exactly as it found them, so each
// following cycle repeats it until the earliest pending event (a wait's
// completion, room in the memory pipe, a bank finishing its wakeup). The
// SM sleeps until then.
func (s *SM) step(cycle uint64) {
	s.settle(cycle)
	s.cycle = cycle
	s.moved = false
	s.nextEvent = math.MaxUint64
	score, coll, wake := s.st.StallScoreboard, s.st.StallCollector, s.st.StallWakeup
	s.advancePipeline()
	s.issueAll()
	s.rfFile.Tick(cycle)
	if s.moved {
		return
	}
	if next := min(s.nextEvent, s.rfFile.NextWake()); next > cycle+1 {
		s.wakeAt, s.sleepFrom = next, cycle+1
		s.sleepStalls = [3]uint64{s.st.StallScoreboard - score, s.st.StallCollector - coll, s.st.StallWakeup - wake}
	}
}

// asleep reports whether the SM skips cycle c.
func (s *SM) asleep(c uint64) bool { return c < s.wakeAt }

// waitUntil notes a pending event of the current step: the cycle at which
// a waiting instruction can next change.
func (s *SM) waitUntil(c uint64) {
	if c < s.nextEvent {
		s.nextEvent = c
	}
}

// settle ends a sleep before cycle c: the skipped cycles sleepFrom..c-1
// receive exactly the counters one quiet step each would have added. It is
// a no-op while awake. Any c up to wakeAt is exact, since the SM's state
// is stationary until then.
func (s *SM) settle(c uint64) {
	if s.wakeAt == 0 {
		return
	}
	n := c - s.sleepFrom
	s.st.StallScoreboard += n * s.sleepStalls[0]
	s.st.StallCollector += n * s.sleepStalls[1]
	s.st.StallWakeup += n * s.sleepStalls[2]
	s.rfFile.TickSpan(s.sleepFrom, c-1)
	s.wakeAt, s.sleepFrom = 0, 0
}

// setRunning sets or clears a warp slot's bit in running.
func (s *SM) setRunning(slot int, on bool) {
	nsched := s.cfg.SchedulersPerSM
	j := slot / nsched
	word, bit := &s.running[slot%nsched*s.runWords+j/64], uint64(1)<<(j%64)
	if on {
		*word |= bit
	} else {
		*word &^= bit
	}
}

// issueAll lets every scheduler issue at most one instruction, choosing
// among its running warps in slot order.
func (s *SM) issueAll() {
	nsched := s.cfg.SchedulersPerSM
	cands := s.cands[:0]
	for si := 0; si < nsched && s.err == nil; si++ {
		cands = cands[:0]
		for k, word := range s.running[si*s.runWords : (si+1)*s.runWords] {
			for ; word != 0; word &= word - 1 {
				slot := (k*64+bits.TrailingZeros64(word))*nsched + si
				if w := s.warps[slot]; s.canIssue(w) {
					cands = append(cands, sched.Candidate{Slot: slot, Age: w.age})
				}
			}
		}
		if len(cands) == 0 {
			continue
		}
		slot := s.policy[si].Pick(cands)
		s.issue(s.warps[slot])
	}
	s.cands = cands[:0] // retain grown backing
}

// setNext caches the issue hazards of the warp's next instruction — the
// SIMT stack top in execute/record mode, the trace cursor in replay mode —
// for canIssue. The next instruction changes only when the warp launches or
// issues, so those are the only callers. A warp with nothing left to issue
// has finished, and issueAll no longer looks at it.
func (s *SM) setNext(w *Warp) {
	var in *isa.Instr
	if s.gpu.rp != nil {
		if w.rp.Done() {
			return
		}
		in = &s.kernel.Code[w.rp.PC]
	} else {
		t := w.tos()
		if t == nil {
			return
		}
		in = &s.kernel.Code[t.pc]
	}
	// Register scoreboard: RAW on sources, WAW on the destination.
	// Predicate scoreboard: guard, comparison destination, selp source.
	var regs uint64
	for _, src := range in.Srcs {
		if src.Kind == isa.OperandReg {
			regs |= 1 << src.Reg
		}
	}
	if in.HasDst() {
		regs |= 1 << in.Dst
	}
	var preds uint8
	for _, p := range [...]isa.PredReg{in.Pred, in.PDst, in.PSrc} {
		if p != isa.PredNone {
			preds |= 1 << p
		}
	}
	w.nextRegs, w.nextPreds = regs, preds
	// Structural: non-control instructions (and dummy MOVs) need a
	// collector unit. A collector is held only while bank reads are
	// outstanding: once operands are collected they are handed to the
	// decompressor pipeline (paper Figure 1 places the decompressors
	// between collectors and execution units, with their own buffering).
	w.nextColl = in.Op.Class() != isa.ClassCtrl
}

// canIssue checks every issue hazard of the warp's next instruction
// against the masks setNext cached. A failed check counts one stall.
func (s *SM) canIssue(w *Warp) bool {
	if w.regBusy&w.nextRegs != 0 || w.predBusy&w.nextPreds != 0 {
		s.st.StallScoreboard++
		return false
	}
	if w.nextColl && s.collectorsInUse >= s.cfg.Collectors {
		s.st.StallCollector++
		return false
	}
	return true
}

// issue executes one instruction (or injects a dummy MOV) for warp w. The
// issue-side timing machinery — dummy MOV injection, collectors, bank
// reads, scoreboards — is identical across front-ends; only the source of
// (pc, active, eff) and the functional step differ between execute/record
// and replay.
func (s *SM) issue(w *Warp) {
	s.moved = true
	var pc int32
	var active, eff uint32
	replaying := s.gpu.rp != nil
	if replaying {
		pc, active, eff = w.rp.PC, w.rp.Active, w.rp.Eff
	} else {
		t := w.tos()
		pc = t.pc
		active = t.mask
	}
	in := &s.kernel.Code[pc]
	if !replaying {
		eff = active & w.guardMask(in)
	}

	// Dummy MOV injection (paper §5.2): a partial write to a register held
	// in compressed state must first be decompressed in place. The
	// "recompress" ablation policy instead merges through a buffer at
	// writeback, so it never injects MOVs.
	if in.HasDst() && eff != 0 && eff != w.launchMask && s.gpu.compress &&
		s.cfg.DivergencePolicy != "recompress" {
		dstID := regfile.RegID(w.slot, int(in.Dst), s.kernel.NumRegs)
		if s.rfFile.Written(dstID) && s.rfFile.Encoding(dstID).IsCompressed() {
			s.issueDummyMov(w, in.Dst, dstID)
			return
		}
	}

	divergent := active != w.launchMask
	s.st.Instructions++
	*s.issuedCtr++ // shard heartbeat, aggregated O(shards) at beat points
	if divergent {
		s.st.DivergentInstrs++
	}

	// Take the inflight record up front and let the functional step fill
	// its result in place; control instructions (and errors) hand it
	// straight back.
	f := s.allocInflight()
	if replaying {
		s.replayStep(w, in, f)
	} else {
		if err := s.execute(w, in, pc, active, eff, f); err != nil {
			s.err = err
			s.freeInflight(f)
			return
		}
		if v := s.recv; v != nil {
			v.record(w, in, pc, active, eff, &f.res)
			if v.err != nil {
				s.err = v.err // untraceable launch: abort the recording run
			}
		}
	}
	s.setNext(w)
	if in.Op.Class() == isa.ClassCtrl {
		s.freeInflight(f)
		return // branches/exit/barrier/nop resolve entirely at issue
	}

	f.w = w
	f.in = in
	f.eff = eff
	f.partial = f.res.writes && eff != w.launchMask
	f.stage = stCollect
	// Operand collector bank reads for distinct register sources. Sources
	// resident in the register file cache comparator skip the banks.
	var seen uint64
	for _, src := range in.Srcs {
		if src.Kind != isa.OperandReg || seen&(1<<src.Reg) != 0 {
			continue
		}
		seen |= 1 << src.Reg
		if s.cfg.RFCEntries > 0 {
			if w.rfcLookup(src.Reg) {
				s.st.RFCReads++
				continue
			}
			s.st.RFCReadMisses++
		}
		id := regfile.RegID(w.slot, int(src.Reg), s.kernel.NumRegs)
		var buf [regfile.BanksPerCluster]int
		for _, b := range s.rfFile.ReadBanks(id, active, buf[:0]) {
			f.pendingBanks[f.nPending] = uint8(b)
			f.nPending++
		}
		if s.rfFile.Written(id) && s.rfFile.Encoding(id).IsCompressed() {
			f.compSrcs++
		}
	}
	if f.res.writes {
		f.dstID = regfile.RegID(w.slot, int(in.Dst), s.kernel.NumRegs)
		w.regBusy |= 1 << in.Dst
		// Recompress policy: a partial write re-reads the destination's
		// current banks so the merge buffer holds the full register.
		if f.partial && s.gpu.compress && s.cfg.DivergencePolicy == "recompress" &&
			s.rfFile.Written(f.dstID) {
			f.mergedStore = true
			var buf [regfile.BanksPerCluster]int
			for _, b := range s.rfFile.ReadBanks(f.dstID, w.launchMask, buf[:0]) {
				f.pendingBanks[f.nPending] = uint8(b)
				f.nPending++
			}
			if s.rfFile.Encoding(f.dstID).IsCompressed() {
				f.compSrcs++
			}
		}
	}
	if in.Op == isa.OpSetP {
		w.predBusy |= 1 << in.PDst
	}
	s.admit(f)
}

// admit enters an issued instruction into the pipeline: it holds a
// collector from now on and is due for its first step next cycle.
func (s *SM) admit(f *inflight) {
	f.w.inFlight++
	s.collectorsInUse++
	s.inflight = append(s.inflight, f)
	s.due = append(s.due, 0)
}

// issueDummyMov injects the decompress-in-place MOV of paper §5.2.
func (s *SM) issueDummyMov(w *Warp, dst isa.Reg, dstID int) {
	s.st.DummyMovs++
	f := s.allocInflight()
	f.w = w
	f.eff = w.launchMask
	f.dummy = true
	f.stage = stCollect
	f.dstID = dstID
	// The value is the register's own; only its encoding changes. A dummy
	// write skips chooseEnc, the write statistics and characterization, so
	// its result carries no value vector.
	f.res.writes = true
	var buf [regfile.BanksPerCluster]int
	for _, b := range s.rfFile.ReadBanks(dstID, w.launchMask, buf[:0]) {
		f.pendingBanks[f.nPending] = uint8(b)
		f.nPending++
	}
	f.compSrcs = 1
	w.regBusy |= 1 << dst
	f.dummyDst = dst
	s.admit(f)
}

// arriveBarrier handles bar.sync issue.
func (s *SM) arriveBarrier(w *Warp) {
	w.state = warpAtBarrier
	s.setRunning(w.slot, false)
	cta := s.ctas[w.ctaSlot]
	cta.barrier++
	s.checkBarrier(cta)
}

// checkBarrier releases the CTA barrier when every live warp arrived.
func (s *SM) checkBarrier(cta *ctaState) {
	if cta.barrier == 0 || cta.barrier < cta.liveWarps {
		return
	}
	cta.barrier = 0
	for _, slot := range cta.slots {
		if w := s.warps[slot]; w != nil && w.state == warpAtBarrier {
			w.state = warpRunning
			s.setRunning(slot, true)
		}
	}
}

// warpExited is called when the last thread of a warp leaves.
func (s *SM) warpExited(w *Warp) {
	s.setRunning(w.slot, false)
	cta := s.ctas[w.ctaSlot]
	cta.liveWarps--
	s.liveWarps--
	s.checkBarrier(cta) // remaining warps may now satisfy the barrier
	if w.inFlight == 0 {
		s.finalizeWarp(w)
	}
}

// finalizeWarp frees a fully drained, exited warp's resources.
func (s *SM) finalizeWarp(w *Warp) {
	if w.finalized {
		return
	}
	w.finalized = true
	// Flush the comparator's dirty entries back to the main banks (energy
	// accounting; the warp is done so timing is irrelevant).
	if s.cfg.RFCEntries > 0 {
		for _, e := range w.rfc {
			if e.dirty {
				s.rfcWriteback(w, e.reg)
			}
		}
		w.rfc = w.rfc[:0]
	}
	s.rfFile.FreeWarp(w.slot, s.kernel.NumRegs, s.cycle)
	s.warps[w.slot] = nil
	s.warpPool = append(s.warpPool, w)
	cta := s.ctas[w.ctaSlot]
	cta.warpsLeft--
	if cta.warpsLeft == 0 {
		// The shared slab stays attached to the slot for the next CTA
		// (tryLaunchCTA clears it on reuse).
		cta.active = false
	}
}

// chooseEnc classifies a register write's compression encoding under the
// GPU's policy, memoized per warp register: when the committed value is
// unchanged since the register's last classification (res.unchanged —
// stable because the WAW scoreboard admits no second writer before this
// commit), the cached encoding is returned without rescanning the 128-byte
// vector. Fault corruption invalidates entries (see applyFaults).
func (s *SM) chooseEnc(w *Warp, dst isa.Reg, res *execResult) core.Encoding {
	// The memo is namespaced by compression backend: encoding classes mean
	// different patterns under different schemes, so an entry written by
	// one compressor must never be served under another (a warp object can
	// outlive a scheme via the arena when engines are rebuilt in place).
	if w.encComp != s.gpu.comp {
		w.encValid = 0
		w.encComp = s.gpu.comp
	}
	if res.unchanged && w.encValid&(1<<dst) != 0 {
		return w.encCache[dst]
	}
	e := s.gpu.comp.Choose(int(dst), res.dstVals, s.gpu.policy)
	w.encCache[dst] = e
	w.encValid |= 1 << dst
	return e
}

// finalize closes out per-SM statistics at end of simulation.
func (s *SM) finalize(cycles uint64) *stats.Stats {
	s.settle(cycles + 1) // an SM that drained early sleeps to the end
	s.rfFile.Finish(cycles)
	s.st.Cycles = cycles
	s.st.RF = s.rfFile.Snapshot()
	s.st.CompActs = s.comp.Activations()
	s.st.DecompActs = s.decomp.Activations()
	s.st.GlobalTxns = s.memPipe.Transactions()
	if s.l1 != nil {
		s.st.L1Hits, s.st.L1Misses = s.l1.Stats()
	}
	return &s.st
}
