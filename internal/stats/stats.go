// Package stats collects the simulation counters from which every figure of
// the paper is derived.
package stats

import (
	"encoding/json"

	"repro/internal/regfile"
)

// Phase indexes the two execution phases the paper separates everywhere:
// non-divergent (active mask == warp launch mask) and divergent.
type Phase int

const (
	NonDivergent Phase = iota
	Divergent
	NumPhases
)

func (p Phase) String() string {
	if p == NonDivergent {
		return "non-divergent"
	}
	return "divergent"
}

// ByPhase holds one value per Phase. It indexes like the array it is, and
// encodes in result JSON as {"non_divergent": …, "divergent": …}.
type ByPhase[T any] [NumPhases]T

type phaseFields[T any] struct {
	NonDivergent T `json:"non_divergent"`
	Divergent    T `json:"divergent"`
}

// MarshalJSON names each phase.
func (b ByPhase[T]) MarshalJSON() ([]byte, error) {
	return json.Marshal(phaseFields[T]{b[NonDivergent], b[Divergent]})
}

// UnmarshalJSON reads the object MarshalJSON writes; a missing phase
// decodes as zero.
func (b *ByPhase[T]) UnmarshalJSON(data []byte) error {
	var f phaseFields[T]
	if err := json.Unmarshal(data, &f); err != nil {
		return err
	}
	*b = ByPhase[T]{f.NonDivergent, f.Divergent}
	return nil
}

// Bin is the value-similarity category of a register write (paper Fig 2):
// the smallest bin containing every successive-lane arithmetic distance.
type Bin int

const (
	BinZero   Bin = iota // all successive lanes identical
	Bin128               // |distance| <= 128
	Bin32K               // |distance| <= 2^15
	BinRandom            // anything larger
	NumBins
)

func (b Bin) String() string {
	switch b {
	case BinZero:
		return "zero"
	case Bin128:
		return "128"
	case Bin32K:
		return "32K"
	}
	return "random"
}

// NumEncodings mirrors core's encoding count (uncompressed, <4,0>, <4,1>,
// <4,2>) without importing it, to keep stats dependency-light.
const NumEncodings = 4

// NumExplorerChoices is len(core.ExplorerParams)+1: the 7 full-BDI parameter
// pairs of Fig 5 plus "uncompressed".
const NumExplorerChoices = 8

// Stats aggregates one SM's (or, after Add, one GPU's) counters. The json
// tags are the stats object of the warped.sim.result/v1 document: a new
// counter needs its tagged field here and its line in Add, nothing more.
type Stats struct {
	Cycles uint64 `json:"cycles"`

	// Instruction accounting.
	Instructions    uint64 `json:"instructions"`           // warp instructions issued (excluding dummy MOVs)
	DivergentInstrs uint64 `json:"divergent_instructions"` // issued with a partial active mask
	DummyMovs       uint64 `json:"dummy_movs"`             // injected decompress-MOVs (paper §5.2, Fig 11)

	// Register-write characterization (Figs 2 and 5), by phase.
	WriteBins  ByPhase[[NumBins]uint64]   `json:"write_bins"`
	BDIChoices [NumExplorerChoices]uint64 `json:"bdi_choices"` // full-BDI best choice per write

	// Compression results by phase (Figs 8, 12, 15). Sizes are counted in
	// 16-byte register banks, the paper's storage granularity (so the
	// best-case <4,0> ratio is 8, not 32).
	RegWrites      ByPhase[uint64]               `json:"reg_writes"`
	WriteOrigBanks ByPhase[uint64]               `json:"write_orig_banks"`
	WriteCompBanks ByPhase[uint64]               `json:"write_comp_banks"`
	WritesByEnc    ByPhase[[NumEncodings]uint64] `json:"writes_by_encoding"`

	// Fig 12 census: running sums of compressed/written snapshots taken at
	// writes in each phase.
	CensusSamples    ByPhase[uint64]  `json:"census_samples"`
	CensusCompressed ByPhase[float64] `json:"census_compressed"`

	// Register file and compression hardware events.
	RF         regfile.Stats `json:"register_file"`
	CompActs   uint64        `json:"compressor_activations"`
	DecompActs uint64        `json:"decompressor_activations"`

	// Register file cache comparator events (abl4-rfc).
	RFCReads      uint64 `json:"rfc_reads"`       // operand reads served by the RFC
	RFCReadMisses uint64 `json:"rfc_read_misses"` // operand reads that fell through to the banks
	RFCWrites     uint64 `json:"rfc_writes"`      // results written into the RFC
	RFCEvictions  uint64 `json:"rfc_evictions"`   // dirty evictions written back to the main banks

	// Memory system.
	GlobalTxns   uint64 `json:"global_transactions"`
	SharedAccess uint64 `json:"shared_accesses"`
	L1Hits       uint64 `json:"l1_hits"`
	L1Misses     uint64 `json:"l1_misses"`

	// Shared-memory bank model (32 banks x 4 B, mem.AnalyzeShared).
	// SharedAccess above counts warp-level shared instructions; these break
	// them down at bank granularity. Added within v1 and omitted when zero,
	// so documents of kernels without shared memory keep their bytes.
	SharedBankAccesses        uint64 `json:"shared_bank_accesses,omitempty"`        // distinct words fetched — bank row activations
	SharedConflicts           uint64 `json:"shared_conflicts,omitempty"`            // warp accesses that needed more than one phase
	SharedSerializationCycles uint64 `json:"shared_serialization_cycles,omitempty"` // extra phases beyond the first, summed
	SharedBroadcastHits       uint64 `json:"shared_broadcast_hits,omitempty"`       // lane requests served by another lane's fetch

	// Structural stall diagnostics (useful for latency-sweep analysis).
	StallScoreboard uint64 `json:"stall_scoreboard"`
	StallCollector  uint64 `json:"stall_collector"`
	StallCompressor uint64 `json:"stall_compressor"`
	StallWakeup     uint64 `json:"stall_wakeup"`

	// Fault-injection events (internal/faults). Stuck writes are register
	// writes that touched at least one stuck-at bank; corrupted lanes count
	// the individual lanes XORed by stuck patterns; transient flips count
	// soft-error single-bit upsets applied at write-back. Added within v1
	// and omitted when zero, so fault-free documents keep their bytes.
	FaultStuckWrites    uint64 `json:"fault_stuck_writes,omitempty"`
	FaultCorruptedLanes uint64 `json:"fault_corrupted_lanes,omitempty"`
	FaultTransientFlips uint64 `json:"fault_transient_flips,omitempty"`
}

// Add merges another Stats (e.g. a second SM) into s. Cycles takes the max
// since SMs run concurrently; everything else sums.
func (s *Stats) Add(o *Stats) {
	if o.Cycles > s.Cycles {
		s.Cycles = o.Cycles
	}
	s.Instructions += o.Instructions
	s.DivergentInstrs += o.DivergentInstrs
	s.DummyMovs += o.DummyMovs
	for p := Phase(0); p < NumPhases; p++ {
		for b := Bin(0); b < NumBins; b++ {
			s.WriteBins[p][b] += o.WriteBins[p][b]
		}
		s.RegWrites[p] += o.RegWrites[p]
		s.WriteOrigBanks[p] += o.WriteOrigBanks[p]
		s.WriteCompBanks[p] += o.WriteCompBanks[p]
		for e := 0; e < NumEncodings; e++ {
			s.WritesByEnc[p][e] += o.WritesByEnc[p][e]
		}
		s.CensusSamples[p] += o.CensusSamples[p]
		s.CensusCompressed[p] += o.CensusCompressed[p]
	}
	for i := 0; i < NumExplorerChoices; i++ {
		s.BDIChoices[i] += o.BDIChoices[i]
	}
	s.RF.BankReads += o.RF.BankReads
	s.RF.BankWrites += o.RF.BankWrites
	for i := 0; i < regfile.NumBanks; i++ {
		s.RF.PerBankReads[i] += o.RF.PerBankReads[i]
		s.RF.PerBankWrites[i] += o.RF.PerBankWrites[i]
		s.RF.PerBankGatedCycles[i] += o.RF.PerBankGatedCycles[i]
	}
	s.RF.PoweredBankCycles += o.RF.PoweredBankCycles
	s.RF.DrowsyBankCycles += o.RF.DrowsyBankCycles
	s.RF.Cycles += o.RF.Cycles
	s.RF.ReadBeforeWrite += o.RF.ReadBeforeWrite
	s.RF.RedirectedWrites += o.RF.RedirectedWrites
	s.CompActs += o.CompActs
	s.DecompActs += o.DecompActs
	s.RFCReads += o.RFCReads
	s.RFCReadMisses += o.RFCReadMisses
	s.RFCWrites += o.RFCWrites
	s.RFCEvictions += o.RFCEvictions
	s.GlobalTxns += o.GlobalTxns
	s.SharedAccess += o.SharedAccess
	s.L1Hits += o.L1Hits
	s.L1Misses += o.L1Misses
	s.SharedBankAccesses += o.SharedBankAccesses
	s.SharedConflicts += o.SharedConflicts
	s.SharedSerializationCycles += o.SharedSerializationCycles
	s.SharedBroadcastHits += o.SharedBroadcastHits
	s.StallScoreboard += o.StallScoreboard
	s.StallCollector += o.StallCollector
	s.StallCompressor += o.StallCompressor
	s.StallWakeup += o.StallWakeup
	s.FaultStuckWrites += o.FaultStuckWrites
	s.FaultCorruptedLanes += o.FaultCorruptedLanes
	s.FaultTransientFlips += o.FaultTransientFlips
}

// NonDivergentRatio is Fig 3: the fraction of warp instructions executed
// with a full active mask.
func (s *Stats) NonDivergentRatio() float64 {
	if s.Instructions == 0 {
		return 1
	}
	return 1 - float64(s.DivergentInstrs)/float64(s.Instructions)
}

// CompressionRatio is Fig 8 for one phase: original register banks divided
// by the banks the achievable encoding needs, over all register writes in
// that phase.
func (s *Stats) CompressionRatio(p Phase) float64 {
	if s.WriteCompBanks[p] == 0 {
		return 1
	}
	return float64(s.WriteOrigBanks[p]) / float64(s.WriteCompBanks[p])
}

// DummyMovRatio is Fig 11: dummy MOVs as a fraction of all instructions
// (real + injected).
func (s *Stats) DummyMovRatio() float64 {
	total := s.Instructions + s.DummyMovs
	if total == 0 {
		return 0
	}
	return float64(s.DummyMovs) / float64(total)
}

// CompressedRegFraction is Fig 12 for one phase: average fraction of written
// registers in compressed state, sampled at writes in that phase.
func (s *Stats) CompressedRegFraction(p Phase) (float64, bool) {
	if s.CensusSamples[p] == 0 {
		return 0, false
	}
	return s.CensusCompressed[p] / float64(s.CensusSamples[p]), true
}

// WriteBinFractions returns the Fig 2 bin shares for one phase (sums to 1
// when any writes happened).
func (s *Stats) WriteBinFractions(p Phase) [NumBins]float64 {
	var out [NumBins]float64
	var total uint64
	for _, c := range s.WriteBins[p] {
		total += c
	}
	if total == 0 {
		return out
	}
	for i, c := range s.WriteBins[p] {
		out[i] = float64(c) / float64(total)
	}
	return out
}
