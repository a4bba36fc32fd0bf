// Package regfile models the banked GPU register file of paper §2.1 /
// Figure 1: 32 SRAM banks of 256 x 128-bit entries (128 KB per SM), one read
// and one write port per bank, with per-entry valid bits and bank-level
// power gating (paper §5.3).
//
// A warp register (32 lanes x 4 B) is striped across the 8 consecutive banks
// of one cluster at a single entry index; compressed registers occupy only
// the lowest 1, 3 or 5 banks of their cluster (paper Figure 6 / §6.2).
package regfile

import (
	"fmt"
	"math"

	"repro/internal/core"
)

// Geometry constants from paper Table 2.
const (
	NumBanks        = 32
	EntriesPerBank  = 256
	BanksPerCluster = core.WarpBanks // 8
	NumClusters     = NumBanks / BanksPerCluster
	// Capacity is the number of warp registers the file can hold
	// (4 clusters x 256 entries = 1024 warp registers = 32K thread regs).
	Capacity = NumClusters * EntriesPerBank
)

// Config selects the power-management behaviour of the file.
type Config struct {
	// GatingEnabled turns on bank-level power gating. The paper's
	// baseline has it off ("baseline register file does not have any
	// bank-level power-gating opportunity"); warped-compression enables it.
	GatingEnabled bool
	// WakeupLatency is the cycles to wake a gated bank (Table 2: 10).
	WakeupLatency int
	// DrowsyAfter puts a powered bank into a data-retentive drowsy state
	// after this many idle cycles (the paper's §1 rival leakage approach,
	// Abdel-Majeed & Annavaram's warped register file). 0 disables. Drowsy
	// cycles leak at a reduced rate; the 1-cycle wake is below this model's
	// granularity and is folded into the access.
	DrowsyAfter int
	// FaultyBanks lists global bank indices with permanent stuck-at
	// failures (internal/faults). The file keeps using them — data routed
	// there is corrupted, which the simulator models — unless
	// RedirectCompressed steers compressed registers away.
	FaultyBanks []int
	// RedirectCompressed enables RRCD-style redirection: a compressed
	// register, needing fewer than all 8 banks of its cluster, is placed in
	// the cluster's healthy banks first. Uncompressed registers keep the
	// fixed lane-to-bank striping (every bank, faulty or not), as the
	// hardware wiring dictates.
	RedirectCompressed bool
	// EncBanks maps each compression encoding class to the number of
	// cluster banks it occupies, threaded from the active compression
	// backend (core.BankTable). The zero value selects BDI's bank table,
	// so files built from a zero Config keep the paper's geometry.
	EncBanks [core.NumEncodings]int
}

type powerState uint8

const (
	stateOn powerState = iota
	stateGated
	stateWaking
)

// bank is one 16-byte-wide SRAM bank.
type bank struct {
	valid      [EntriesPerBank]bool
	validCount int

	state      powerState
	wakeReady  uint64 // cycle the bank finishes waking (stateWaking)
	gatedSince uint64 // cycle gating began (stateGated)

	reads, writes uint64
	gatedCycles   uint64
	lastTouch     uint64 // last access cycle (drowsy tracking)
	drowsyCycles  uint64
}

// File is the per-SM register file model. It tracks no data values — the
// functional register state lives in the simulator — only the compression
// encodings, valid bits, bank power states and access counts that the
// timing and energy models need.
type File struct {
	cfg      Config
	encBanks [core.NumEncodings]int // resolved per-class bank occupancy
	banks    [NumBanks]bank

	indicators *core.IndicatorTable
	written    []bool // per register id: has it ever been written?

	// Fault topology: per-bank stuck flags and, per cluster, the bank
	// placement order compressed registers use (healthy banks first when
	// redirection is on, identity otherwise) plus the lowest physical
	// in-cluster index of a faulty bank (BanksPerCluster when clean) —
	// a compressed write of k banks is steered away from a fault exactly
	// when firstFaulty < k.
	faulty      [NumBanks]bool
	order       [NumClusters][BanksPerCluster]uint8
	firstFaulty [NumClusters]uint8

	numGated  int
	numWaking int

	// Aggregate statistics.
	poweredBankCycles uint64
	drowsyBankCycles  uint64
	cycles            uint64
	allocatedRegs     int
	compressedRegs    int
	writtenRegs       int
	readBeforeWrite   uint64
	redirectedWrites  uint64
}

// New builds an empty register file.
func New(cfg Config) *File {
	if cfg.WakeupLatency < 0 {
		panic("regfile: negative wakeup latency")
	}
	f := &File{
		cfg:        cfg,
		encBanks:   cfg.EncBanks,
		indicators: core.NewIndicatorTable(Capacity),
		written:    make([]bool, Capacity),
	}
	if f.encBanks == ([core.NumEncodings]int{}) {
		// Zero Config: BDI's bank table (the paper's geometry).
		for i := range f.encBanks {
			f.encBanks[i] = core.Encoding(i).Banks()
		}
	}
	for i, n := range f.encBanks {
		if n < 1 || n > BanksPerCluster {
			panic(fmt.Sprintf("regfile: encoding class %d occupies %d banks (want 1..%d)", i, n, BanksPerCluster))
		}
	}
	for _, b := range cfg.FaultyBanks {
		if b < 0 || b >= NumBanks {
			panic("regfile: faulty bank index out of range")
		}
		f.faulty[b] = true
	}
	for c := 0; c < NumClusters; c++ {
		f.firstFaulty[c] = BanksPerCluster
		for i := BanksPerCluster - 1; i >= 0; i-- {
			if f.faulty[c*BanksPerCluster+i] {
				f.firstFaulty[c] = uint8(i)
			}
		}
		n := 0
		for i := 0; i < BanksPerCluster; i++ {
			if !(cfg.RedirectCompressed && f.faulty[c*BanksPerCluster+i]) {
				f.order[c][n] = uint8(i)
				n++
			}
		}
		// With redirection on, faulty banks sort last so a compressed
		// register only spills into them when the cluster has too few
		// healthy banks for its encoding.
		for i := 0; n < BanksPerCluster; i++ {
			if f.faulty[c*BanksPerCluster+i] {
				f.order[c][n] = uint8(i)
				n++
			}
		}
	}
	if cfg.GatingEnabled {
		// Empty banks hold no live registers, so they start gated
		// (paper §5.3: a bank is off whenever no entry is valid).
		for i := range f.banks {
			f.banks[i].state = stateGated
		}
		f.numGated = NumBanks
	}
	return f
}

// RegID maps (warp slot, architectural register) to a linear warp-register
// id given the kernel's per-thread register count.
func RegID(slot, reg, regsPerThread int) int {
	return slot*regsPerThread + reg
}

// FitsWarps reports whether `warps` warp slots of `regsPerThread` registers
// each fit in the file; the CTA scheduler uses this as the register
// occupancy limit.
func FitsWarps(warps, regsPerThread int) bool {
	return warps*regsPerThread <= Capacity
}

// cluster returns the cluster index and entry of a warp register id.
func cluster(id int) (c, entry int) {
	return id % NumClusters, id / NumClusters
}

// bankIndex returns the global bank index of the i-th bank of register id's
// cluster.
func bankIndex(id, i int) int {
	c, _ := cluster(id)
	return c*BanksPerCluster + i
}

// compBank returns the global bank index holding the i-th compressed slice
// of register id. Without faults (or without redirection) this is the
// cluster's i-th bank; with RRCD-style redirection the cluster's healthy
// banks are used first. The order is static per file, so a register that
// transitions between encodings always reuses a prefix or extension of the
// same bank sequence.
func (f *File) compBank(id, i int) int {
	c, _ := cluster(id)
	return c*BanksPerCluster + int(f.order[c][i])
}

// Encoding returns the current compression range indicator of register id.
func (f *File) Encoding(id int) core.Encoding { return f.indicators.Get(id) }

// Written reports whether register id holds a value.
func (f *File) Written(id int) bool { return f.written[id] }

// ReadBanks returns the global bank indices a read of register id must
// access: the compressed banks for a compressed register, or the banks
// covering the active lanes for an uncompressed one (4 lanes per bank).
// A read of a never-written register returns nil and is counted; well-formed
// kernels do not do this.
func (f *File) ReadBanks(id int, activeMask uint32, buf []int) []int {
	if !f.written[id] {
		f.readBeforeWrite++
		return buf[:0]
	}
	enc := f.indicators.Get(id)
	if enc.IsCompressed() {
		buf = buf[:0]
		for i := 0; i < f.encBanks[enc]; i++ {
			buf = append(buf, f.compBank(id, i))
		}
		return buf
	}
	return f.laneBanks(id, activeMask, buf)
}

// WriteBanks returns the banks a write of register id with encoding enc
// touches. Divergent (partial) writes are always uncompressed and touch only
// the banks covering active lanes.
func (f *File) WriteBanks(id int, enc core.Encoding, activeMask uint32, full bool, buf []int) []int {
	if enc.IsCompressed() {
		buf = buf[:0]
		for i := 0; i < f.encBanks[enc]; i++ {
			buf = append(buf, f.compBank(id, i))
		}
		return buf
	}
	if full {
		buf = buf[:0]
		for i := 0; i < BanksPerCluster; i++ {
			buf = append(buf, bankIndex(id, i))
		}
		return buf
	}
	return f.laneBanks(id, activeMask, buf)
}

// laneBanks lists the banks holding the lanes set in activeMask.
func (f *File) laneBanks(id int, activeMask uint32, buf []int) []int {
	buf = buf[:0]
	for i := 0; i < BanksPerCluster; i++ {
		if activeMask&(0xF<<(4*i)) != 0 {
			buf = append(buf, bankIndex(id, i))
		}
	}
	return buf
}

// BankReady returns the cycle at which `bankIdx` can service an access
// requested at `now`, starting a wakeup if the bank is gated. For powered
// banks this is now itself.
func (f *File) BankReady(bankIdx int, now uint64) uint64 {
	b := &f.banks[bankIdx]
	switch b.state {
	case stateOn:
		return now
	case stateWaking:
		return b.wakeReady
	default: // gated: begin wakeup
		b.gatedCycles += now - b.gatedSince
		b.state = stateWaking
		b.wakeReady = now + uint64(f.cfg.WakeupLatency)
		f.numGated--
		f.numWaking++
		return b.wakeReady
	}
}

// CountRead records a read access on a bank at cycle now.
func (f *File) CountRead(bankIdx int, now uint64) {
	b := &f.banks[bankIdx]
	b.reads++
	b.lastTouch = now
}

// CountWrite records a write access on a bank at cycle now.
func (f *File) CountWrite(bankIdx int, now uint64) {
	b := &f.banks[bankIdx]
	b.writes++
	b.lastTouch = now
}

// CommitWrite finalizes a write of register id with encoding enc at cycle
// now: it updates the valid bits of the register's cluster banks, the range
// indicator, and power-gates banks that lost their last valid entry.
//
// For a partial (divergent) write `full` is false and enc must be
// EncUncompressed; the register keeps all 8 banks valid because the dummy
// MOV mechanism guarantees the other lanes were decompressed beforehand.
func (f *File) CommitWrite(id int, enc core.Encoding, full bool, now uint64) {
	if !full && enc.IsCompressed() {
		panic("regfile: divergent write must be uncompressed")
	}
	c, entry := cluster(id)
	keep := f.encBanks[enc]
	// Walk the cluster's placement order: positions below keep hold the
	// register, the rest must be invalid. The order is static, so encoding
	// transitions (e.g. Enc42 -> Enc40) shrink or grow the same sequence.
	for i := 0; i < BanksPerCluster; i++ {
		bi := f.compBank(id, i)
		if i < keep {
			f.setValid(bi, entry, true, now)
		} else {
			f.setValid(bi, entry, false, now)
		}
	}
	if enc.IsCompressed() && f.cfg.RedirectCompressed && int(f.firstFaulty[c]) < keep {
		// Default striping would have placed a slice in a faulty bank;
		// the healthy-first order steered it away.
		f.redirectedWrites++
	}
	prev := f.indicators.Get(id)
	if !f.written[id] {
		f.written[id] = true
		f.writtenRegs++
		if enc.IsCompressed() {
			f.compressedRegs++
		}
	} else if prev.IsCompressed() != enc.IsCompressed() {
		if enc.IsCompressed() {
			f.compressedRegs++
		} else {
			f.compressedRegs--
		}
	}
	f.indicators.Set(id, enc)
}

// setValid updates one valid bit, maintaining the bank's count and power
// state.
func (f *File) setValid(bankIdx, entry int, v bool, now uint64) {
	b := &f.banks[bankIdx]
	if b.valid[entry] == v {
		return
	}
	b.valid[entry] = v
	if v {
		b.validCount++
		if b.state == stateGated {
			// Writing into a gated bank requires it awake; callers
			// stall on BankReady first, so by commit time the bank
			// is waking or on. Defensive wake here keeps state sane.
			b.gatedCycles += now - b.gatedSince
			b.state = stateOn
			f.numGated--
		}
	} else {
		b.validCount--
		if b.validCount == 0 && f.cfg.GatingEnabled && b.state == stateOn {
			b.state = stateGated
			b.gatedSince = now
			f.numGated++
		}
	}
}

// AllocWarp reserves the register ids of one warp slot (occupancy
// book-keeping only; banks stay invalid until first write).
func (f *File) AllocWarp(slot, regsPerThread int) error {
	hi := RegID(slot, regsPerThread-1, regsPerThread)
	if hi >= Capacity {
		return fmt.Errorf("regfile: warp slot %d with %d regs/thread exceeds capacity", slot, regsPerThread)
	}
	f.allocatedRegs += regsPerThread
	return nil
}

// FreeWarp releases a warp slot's registers when its CTA completes, clearing
// valid bits (which may gate banks) and indicators.
func (f *File) FreeWarp(slot, regsPerThread int, now uint64) {
	for r := 0; r < regsPerThread; r++ {
		id := RegID(slot, r, regsPerThread)
		_, entry := cluster(id)
		for i := 0; i < BanksPerCluster; i++ {
			f.setValid(bankIndex(id, i), entry, false, now)
		}
		if f.written[id] {
			f.written[id] = false
			f.writtenRegs--
			if f.indicators.Get(id).IsCompressed() {
				f.compressedRegs--
			}
		}
		f.indicators.Set(id, core.EncUncompressed)
	}
	f.allocatedRegs -= regsPerThread
}

// Tick advances power accounting by one cycle; `now` is the cycle that just
// executed. Waking banks flip to On when their delay elapses; idle powered
// banks accumulate drowsy cycles when the drowsy mode is enabled.
func (f *File) Tick(now uint64) {
	f.cycles++
	f.poweredBankCycles += uint64(NumBanks - f.numGated)
	// Fast path: with no bank mid-wakeup and drowsy tracking off, the
	// per-bank scan observes nothing — the accounting above is complete.
	if f.numWaking == 0 && f.cfg.DrowsyAfter <= 0 {
		return
	}
	for i := range f.banks {
		b := &f.banks[i]
		if b.state == stateWaking && now >= b.wakeReady {
			b.state = stateOn
			f.numWaking--
		}
		if f.cfg.DrowsyAfter > 0 && b.state == stateOn && now-b.lastTouch > uint64(f.cfg.DrowsyAfter) {
			b.drowsyCycles++
			f.drowsyBankCycles++
		}
	}
}

// NextWake returns the cycle at which the earliest waking bank turns on —
// the next time Tick changes a bank's power state by itself — or
// math.MaxUint64 when no bank is waking.
func (f *File) NextWake() uint64 {
	next := uint64(math.MaxUint64)
	if f.numWaking == 0 {
		return next
	}
	for i := range f.banks {
		if b := &f.banks[i]; b.state == stateWaking && b.wakeReady < next {
			next = b.wakeReady
		}
	}
	return next
}

// TickSpan advances power accounting over cycles from..to inclusive, with
// the same effect as one Tick per cycle, provided no bank is accessed and
// none finishes waking in the window (to < NextWake()). The powered-bank
// count is then constant, and a powered bank is drowsy in exactly the
// window cycles later than lastTouch + DrowsyAfter.
func (f *File) TickSpan(from, to uint64) {
	if from > to {
		return
	}
	n := to - from + 1
	f.cycles += n
	f.poweredBankCycles += n * uint64(NumBanks-f.numGated)
	if f.cfg.DrowsyAfter <= 0 {
		return
	}
	for i := range f.banks {
		b := &f.banks[i]
		if b.state != stateOn {
			continue
		}
		lo := max(from, b.lastTouch+uint64(f.cfg.DrowsyAfter)+1)
		if lo <= to {
			b.drowsyCycles += to - lo + 1
			f.drowsyBankCycles += to - lo + 1
		}
	}
}

// Finish flushes per-bank gated intervals at end of simulation (cycle now).
func (f *File) Finish(now uint64) {
	for i := range f.banks {
		b := &f.banks[i]
		if b.state == stateGated {
			b.gatedCycles += now - b.gatedSince
			b.gatedSince = now
		}
	}
}

// Stats is a snapshot of the file's counters.
type Stats struct {
	BankReads, BankWrites uint64
	PerBankReads          [NumBanks]uint64
	PerBankWrites         [NumBanks]uint64
	PerBankGatedCycles    [NumBanks]uint64
	PoweredBankCycles     uint64
	DrowsyBankCycles      uint64
	Cycles                uint64
	ReadBeforeWrite       uint64
	// RedirectedWrites counts compressed register writes whose bank
	// placement was steered away from a faulty bank (RRCD redirection).
	RedirectedWrites uint64
}

// Snapshot returns the current statistics.
func (f *File) Snapshot() Stats {
	var s Stats
	for i := range f.banks {
		b := &f.banks[i]
		s.PerBankReads[i] = b.reads
		s.PerBankWrites[i] = b.writes
		s.PerBankGatedCycles[i] = b.gatedCycles
		s.BankReads += b.reads
		s.BankWrites += b.writes
	}
	s.PoweredBankCycles = f.poweredBankCycles
	s.DrowsyBankCycles = f.drowsyBankCycles
	s.Cycles = f.cycles
	s.ReadBeforeWrite = f.readBeforeWrite
	s.RedirectedWrites = f.redirectedWrites
	return s
}

// Occupancy returns (written, compressed, allocated) register counts for the
// Fig 12 compressed-register census.
func (f *File) Occupancy() (written, compressed, allocated int) {
	return f.writtenRegs, f.compressedRegs, f.allocatedRegs
}
