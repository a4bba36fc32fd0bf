package sim

import (
	"repro/internal/core"
	"repro/internal/exectrace"
	"repro/internal/isa"
	"repro/internal/regfile"
	"repro/internal/stats"
	"repro/internal/valueprof"
)

// pipeStage enumerates the timing states of an in-flight instruction.
// Stages only move forward; zero-time transitions happen within one cycle,
// waits span cycles.
type pipeStage uint8

const (
	stCollect      pipeStage = iota // gathering source operand bank reads
	stDecomp                        // waiting for decompressor unit grants
	stDecompWait                    // decompression in progress
	stExecStart                     // entering a functional unit / memory pipe
	stExecWait                      // FU or memory latency
	stCompress                      // waiting for a compressor unit
	stCompressWait                  // compression in progress
	stWrite                         // waiting for bank wakeup + write ports
)

// inflight is one issued instruction traversing the timing pipeline. The
// architectural work already happened at issue; this struct only tracks when
// hardware resources are occupied. Records are recycled through the SM's
// inflightPool, and all bank lists live in fixed-size inline arrays (at most
// 3 distinct sources plus a merged-destination read, 8 banks each), so the
// steady-state pipeline allocates nothing.
type inflight struct {
	w       *Warp
	in      *isa.Instr // nil for injected dummy MOVs
	eff     uint32     // execution mask
	partial bool       // register write covers a subset of live lanes
	dummy   bool       // injected decompress-MOV (paper §5.2)
	res     execResult

	stage        pipeStage
	pendingBanks [4 * regfile.BanksPerCluster]uint8 // operand bank reads not yet granted
	nPending     int
	compSrcs     int    // compressed sources awaiting a decompressor
	unitReady    uint64 // latest decompressor completion granted so far
	readyAt      uint64 // current stage's completion cycle

	// Deferred-atomic state (shard.go): addends captured at issue for the
	// epoch barrier to apply, and — in replay mode — this instruction's
	// recorded per-lane operations.
	atomAdds [isa.WarpSize]uint32
	atoms    []exectrace.AtomOp

	dstID    int
	dummyDst isa.Reg
	enc      core.Encoding
	wbBanks  [regfile.BanksPerCluster]uint8 // writeback bank list (valid when wbReady)
	nWB      int
	wbReady  bool

	mergedStore bool // recompress-policy partial write: stored full-width

	l1Checked bool   // L1 lookup done (so retries don't re-access)
	missTxns  int    // segments that missed and need DRAM transactions
	hitReady  uint64 // completion cycle of the L1-hit portion
}

// advancePipeline moves every in-flight instruction forward one cycle, in
// issue order (which makes oldest-first bank arbitration implicit), and
// retires completed ones.
//
// An instruction is stepped only once it is due (DESIGN.md §20). Before
// that it sits in a wait that nothing else can shorten — a latency, or a
// full memory pipe whose room other issues only push later — so its step
// would change nothing. The skip still reports the due cycle to the sleep
// minimum; for a blocked access that may precede a fresh RoomAt, which
// costs at most an early wake and one more quiet step. The instructions
// that are stepped are stepped in issue order, so every arbitration and
// counter is as before.
func (s *SM) advancePipeline() {
	n := 0
	for i, f := range s.inflight {
		due := s.due[i]
		if due > s.cycle {
			s.waitUntil(due)
		} else {
			stage, wbReady, l1Checked := f.stage, f.wbReady, f.l1Checked
			var done bool
			if due, done = s.advance(f); done {
				s.retire(f)
				s.freeInflight(f)
				s.moved = true
				continue
			}
			if f.stage != stage || f.wbReady != wbReady || f.l1Checked != l1Checked {
				s.moved = true
			}
		}
		if n != i {
			s.inflight[n] = f
		}
		s.due[n] = due
		n++
	}
	s.inflight, s.due = s.inflight[:n], s.due[:n]
}

// advance runs one cycle of an instruction's state machine; returns done
// when the instruction has fully retired, and otherwise the cycle it is
// next due: the end of a known wait — readyAt in the three wait stages,
// the pipe's room for a blocked global access — or 0, stepped again next
// cycle. `continue` transitions consume no time; returns wait for a later
// cycle. Waits on a known cycle report it through waitUntil; stages that
// contend for a shared resource (bank read ports, decompressors,
// compressors, write ports) mark the step as moved, since they either
// progress next cycle or lost to an instruction that progressed this one.
// A write waiting on a bank wakeup is due every cycle, because each of
// its cycles counts a StallWakeup.
func (s *SM) advance(f *inflight) (due uint64, done bool) {
	for {
		switch f.stage {
		case stCollect:
			s.moved = true
			// Compact the still-blocked banks in place.
			rem := 0
			for i := 0; i < f.nPending; i++ {
				b := int(f.pendingBanks[i])
				if s.readPort[b] != s.cycle {
					s.readPort[b] = s.cycle
					s.rfFile.CountRead(b, s.cycle)
				} else {
					f.pendingBanks[rem] = f.pendingBanks[i]
					rem++
				}
			}
			f.nPending = rem
			if rem > 0 {
				return 0, false
			}
			s.collectorsInUse--
			if f.compSrcs > 0 {
				f.stage = stDecomp
			} else {
				f.stage = stExecStart
			}
			return 0, false // operand data arrives next cycle

		case stDecomp:
			for f.compSrcs > 0 {
				ready, ok := s.decomp.TryStart(s.cycle)
				if !ok {
					s.moved = true
					return 0, false
				}
				if ready > f.unitReady {
					f.unitReady = ready
				}
				f.compSrcs--
			}
			f.readyAt = f.unitReady
			f.stage = stDecompWait
			continue

		case stDecompWait:
			if s.cycle < f.readyAt {
				s.waitUntil(f.readyAt)
				return f.readyAt, false
			}
			f.stage = stExecStart
			continue

		case stExecStart:
			if !s.startExec(f) {
				room := s.memPipe.RoomAt(f.missTxns)
				s.waitUntil(room)
				return room, false
			}
			f.stage = stExecWait
			continue

		case stExecWait:
			if s.cycle < f.readyAt {
				s.waitUntil(f.readyAt)
				return f.readyAt, false
			}
			// Release predicate results at execute completion.
			if f.in != nil && f.in.Op == isa.OpSetP {
				f.w.predBusy &^= 1 << f.in.PDst
			}
			if !f.res.writes {
				return 0, true
			}
			if s.cfg.RFCEntries > 0 && !f.dummy {
				s.rfcCommit(f)
				return 0, true
			}
			if s.needCompressor(f) {
				f.stage = stCompress
			} else {
				// Bypassing the compressor always stores uncompressed
				// (divergent writes, dummy MOVs, compression off).
				f.enc = core.EncUncompressed
				f.stage = stWrite
			}
			continue

		case stCompress:
			ready, ok := s.comp.TryStart(s.cycle)
			if !ok {
				s.st.StallCompressor++
				s.moved = true
				return 0, false
			}
			f.readyAt = ready
			f.enc = s.chooseEnc(f.w, f.in.Dst, &f.res)
			f.stage = stCompressWait
			continue

		case stCompressWait:
			if s.cycle < f.readyAt {
				s.waitUntil(f.readyAt)
				return f.readyAt, false
			}
			f.stage = stWrite
			continue

		case stWrite:
			if !f.wbReady {
				var buf [regfile.BanksPerCluster]int
				full := !f.partial || f.mergedStore
				banks := s.rfFile.WriteBanks(f.dstID, f.enc, f.eff, full, buf[:0])
				for i, b := range banks {
					f.wbBanks[i] = uint8(b)
				}
				f.nWB = len(banks)
				f.wbReady = true
			}
			// Wake any gated banks; wait until every target bank is on.
			maxReady := s.cycle
			for _, b := range f.wbBanks[:f.nWB] {
				if r := s.rfFile.BankReady(int(b), s.cycle); r > maxReady {
					maxReady = r
				}
			}
			if maxReady > s.cycle {
				s.st.StallWakeup++
				s.waitUntil(maxReady)
				return 0, false
			}
			// All-or-nothing write port acquisition keeps the
			// multi-bank write atomic.
			for _, b := range f.wbBanks[:f.nWB] {
				if s.writePort[b] == s.cycle {
					s.moved = true
					return 0, false
				}
			}
			for _, b := range f.wbBanks[:f.nWB] {
				s.writePort[b] = s.cycle
				s.rfFile.CountWrite(int(b), s.cycle)
			}
			s.commitWrite(f)
			return 0, true
		}
	}
}

// startExec dispatches to the right functional unit / memory path; returns
// false when a structural hazard (memory pipe full) forces a retry.
func (s *SM) startExec(f *inflight) bool {
	if f.dummy {
		// The dummy MOV just passes data through the ALU path.
		f.readyAt = s.cycle + uint64(s.cfg.ALULatency)
		return true
	}
	switch f.in.Op.Class() {
	case isa.ClassMem:
		if f.eff == 0 {
			f.readyAt = s.cycle
			return true
		}
		if f.in.Op == isa.OpLdG || f.in.Op == isa.OpStG || f.in.Op == isa.OpAtomAdd {
			return s.startGlobal(f)
		}
		s.st.SharedAccess++
		s.st.SharedBankAccesses += uint64(f.res.sharedWds)
		s.st.SharedBroadcastHits += uint64(f.res.sharedBc)
		if f.res.sharedDeg > 1 {
			s.st.SharedConflicts++
			s.st.SharedSerializationCycles += uint64(f.res.sharedDeg - 1)
		}
		f.readyAt = s.cycle + uint64(s.cfg.SharedLatency+f.res.sharedDeg-1)
		return true
	case isa.ClassSFU:
		f.readyAt = s.cycle + uint64(s.cfg.SFULatency)
		return true
	default:
		f.readyAt = s.cycle + uint64(s.cfg.ALULatency)
		return true
	}
}

// startGlobal issues a coalesced global access: loads probe the L1 (stores
// are write-through, no-allocate), misses go to the DRAM pipe. Returns false
// while the pipe has no room for the miss transactions.
func (s *SM) startGlobal(f *inflight) bool {
	if !f.l1Checked {
		f.l1Checked = true
		f.hitReady = s.cycle
		if s.l1 != nil && f.in.Op == isa.OpLdG {
			for _, seg := range f.res.segs() {
				if s.l1.Access(seg) {
					f.hitReady = s.cycle + uint64(s.cfg.L1HitLatency)
				} else {
					f.missTxns++
				}
			}
		} else {
			// Stores are write-through no-allocate; atomics resolve on
			// the memory side, bypassing the L1.
			f.missTxns = f.res.nsegs
		}
	}
	f.readyAt = f.hitReady
	if f.missTxns > 0 {
		ready, ok := s.memPipe.TryIssue(s.cycle, f.missTxns)
		if !ok {
			return false
		}
		if ready > f.readyAt {
			f.readyAt = ready
		}
	}
	// Same-address atomic lanes serialize at the memory controller.
	if f.res.atomDeg > 1 {
		f.readyAt += uint64(f.res.atomDeg - 1)
	}
	return true
}

// needCompressor reports whether the write passes through a compressor unit:
// only full-warp writes with compression on are compressed;
// divergent/partial writes and dummy MOVs store uncompressed directly
// (paper §5.2).
func (s *SM) needCompressor(f *inflight) bool {
	if !s.gpu.compress || f.dummy {
		return false
	}
	return !f.partial || f.mergedStore
}

// commitWrite finishes a register write: register file metadata, fault
// corruption, scoreboard release and statistics.
func (s *SM) commitWrite(f *inflight) {
	full := !f.partial || f.mergedStore
	s.rfFile.CommitWrite(f.dstID, f.enc, full, s.cycle)

	var dst isa.Reg
	if f.dummy {
		dst = f.dummyDst
	} else {
		dst = f.in.Dst
	}
	// Classify the achievable compressed size (Fig 8/15 measure the written
	// data's compressibility independent of the divergence storage policy),
	// and characterize the value, before fault corruption changes the
	// vector dstVals points at and invalidates the memo. When the write
	// went through the compressor the same policy already classified this
	// exact vector, so its encoding is reused directly.
	var statsEnc core.Encoding
	if !f.dummy {
		if s.needCompressor(f) {
			statsEnc = f.enc
		} else {
			statsEnc = s.chooseEnc(f.w, dst, &f.res)
		}
		if s.cfg.CharacterizeWrites {
			s.st.WriteBins[f.phase()][valueprof.BinOf(f.res.dstVals)]++
			s.st.BDIChoices[valueprof.ExplorerChoice(f.res.dstVals)]++
		}
	}
	// Corrupt before clearing the scoreboard bit: dependent readers cannot
	// have issued yet, so the corrupted value is exactly what they see.
	s.applyFaults(f, dst, full)
	f.w.regBusy &^= 1 << dst

	if f.dummy {
		return // mechanism artifact: excluded from write statistics
	}

	phase := f.phase()
	s.st.RegWrites[phase]++
	s.st.WriteOrigBanks[phase] += core.WarpBanks
	s.st.WritesByEnc[phase][f.enc]++
	s.st.WriteCompBanks[phase] += uint64(s.gpu.comp.Banks(statsEnc))

	// Fig 12 census sample.
	written, compressed, _ := s.rfFile.Occupancy()
	if written > 0 {
		s.st.CensusSamples[phase]++
		s.st.CensusCompressed[phase] += float64(compressed) / float64(written)
	}
}

// phase is the write-statistics phase of a register write.
func (f *inflight) phase() stats.Phase {
	if f.partial {
		return stats.Divergent
	}
	return stats.NonDivergent
}

// applyFaults models register-file corruption on the write that just
// committed, mutating the warp's functional register state (scoreboarding
// guarantees no dependent instruction has read it yet).
//
// Stuck-at: every write whose data passed through a stuck bank reads back
// XORed with the bank's pattern. For an uncompressed write the bank holds 4
// specific lanes; a compressed slice fans out through the decompressor, so
// a stuck bank there corrupts every lane. Transient: at most one single-bit
// upset per register write, drawn from the injector's seeded stream.
func (s *SM) applyFaults(f *inflight, dst isa.Reg, full bool) {
	inj := s.inj
	if inj == nil {
		return
	}
	regs := &f.w.regBuf[dst]
	stuck := false
	for _, bb := range f.wbBanks[:f.nWB] {
		b := int(bb)
		if !inj.BankFaulty(b) {
			continue
		}
		stuck = true
		pat := inj.StuckPattern(b)
		if f.enc.IsCompressed() {
			for l := range regs {
				regs[l] ^= pat
			}
			s.st.FaultCorruptedLanes += uint64(len(regs))
		} else {
			base := (b % regfile.BanksPerCluster) * 4
			for l := base; l < base+4; l++ {
				if full || f.eff&(1<<l) != 0 {
					regs[l] ^= pat
					s.st.FaultCorruptedLanes++
				}
			}
		}
	}
	if stuck {
		s.st.FaultStuckWrites++
	}
	flipped := false
	if lane, bit, ok := inj.TransientFlip(); ok {
		regs[lane] ^= 1 << bit
		s.st.FaultTransientFlips++
		flipped = true
	}
	// Corruption desynchronizes the register value from its memoized
	// encoding classification; drop the memo entry.
	if stuck || flipped {
		f.w.encValid &^= 1 << dst
	}
}

// rfcCommit finishes a register write through the register file cache
// comparator: the result lands in the per-warp RFC (no bank access); a dirty
// LRU eviction writes the victim back to the main banks. Partial writes to
// registers absent from the RFC first fetch the register from the banks
// (write-allocate needs the untouched lanes).
func (s *SM) rfcCommit(f *inflight) {
	w := f.w
	s.st.RFCWrites++

	if f.partial && !w.rfcLookup(f.in.Dst) && s.rfFile.Written(f.dstID) {
		var buf [regfile.BanksPerCluster]int
		for _, b := range s.rfFile.ReadBanks(f.dstID, w.launchMask, buf[:0]) {
			s.rfFile.CountRead(b, s.cycle)
		}
	}
	if evicted, dirty, ok := w.rfcInsert(f.in.Dst, s.cfg.RFCEntries); ok && dirty {
		s.st.RFCEvictions++
		s.rfcWriteback(w, evicted)
	}
	w.regBusy &^= 1 << f.in.Dst

	phase := f.phase()
	s.st.RegWrites[phase]++
	s.st.WriteOrigBanks[phase] += core.WarpBanks
	s.st.WriteCompBanks[phase] += core.WarpBanks // the RFC stores full width
	s.st.WritesByEnc[phase][core.EncUncompressed]++
}

// rfcWriteback spills one dirty RFC register to the main banks (uncompressed
// full-width write; the comparator has no compression hardware).
func (s *SM) rfcWriteback(w *Warp, reg isa.Reg) {
	id := regfile.RegID(w.slot, int(reg), s.kernel.NumRegs)
	var buf [regfile.BanksPerCluster]int
	for _, b := range s.rfFile.WriteBanks(id, core.EncUncompressed, w.launchMask, true, buf[:0]) {
		s.rfFile.CountWrite(b, s.cycle)
	}
	s.rfFile.CommitWrite(id, core.EncUncompressed, true, s.cycle)
}

// retire releases the instruction's warp bookkeeping.
func (s *SM) retire(f *inflight) {
	f.w.inFlight--
	if f.w.state == warpFinished && f.w.inFlight == 0 {
		s.finalizeWarp(f.w)
	}
}
