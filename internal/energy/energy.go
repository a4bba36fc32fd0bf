// Package energy computes register-file energy from simulation event counts
// using the paper's Table 3 constants (CACTI + 45nm RTL synthesis values).
//
// Dynamic energy sums bank accesses times the per-access energy, 128-bit
// wire beats times the capacitance-derived wire energy, and compressor /
// decompressor activations times their activation energies. Leakage energy
// integrates powered-bank-cycles times the per-cycle bank leakage plus the
// compression units' leakage over the run.
package energy

// Params holds the technology constants of paper Table 3 plus the scaling
// knobs used by the design-space exploration figures (17, 18, 19).
type Params struct {
	VoltageV       float64 // operating voltage (1.0 V)
	ClockHz        float64 // 1.4 GHz
	WireCapFFPerMM float64 // wire capacitance, 300 fF/mm
	WireLengthMM   float64 // bank-to-collector distance, 1 mm
	WireActivity   float64 // fraction of wires toggling per beat (0.5 default)

	BankAccessPJ float64 // energy per 16-byte bank row access (7 pJ)
	BankLeakMW   float64 // leakage power per bank (5.8 mW)

	// SharedAccessPJ is the energy of one shared-memory bank row (4 B)
	// activation. CACTI-style estimate for a 48 KB 32-bank SRAM at 45nm;
	// feeds only the Breakdown's informational SharedPJ component — the
	// paper's Fig 9/14/16-19 totals are register-file energy and exclude
	// it.
	SharedAccessPJ float64

	CompActPJ    float64 // compressor activation energy (23 pJ)
	DecompActPJ  float64 // decompressor activation energy (21 pJ)
	CompLeakMW   float64 // compressor unit leakage (0.12 mW)
	DecompLeakMW float64 // decompressor unit leakage (0.08 mW)

	// RFCAccessPJ is the energy of one access to the register file cache
	// comparator (a small per-warp flip-flop array next to the execution
	// units, so no long-wire component); used only by abl4-rfc.
	RFCAccessPJ float64
	// RFCLeakMWPerKB charges the comparator's storage for leakage at the
	// same per-KB rate as the SRAM banks (5.8 mW / 4 KB) — conservative,
	// since flip-flop arrays typically leak more per bit. Caching every
	// resident warp (48 x 6 x 128 B = 36 KB/SM) is not free; Gebhart's
	// design pairs the RFC with a two-level scheduler precisely to shrink
	// this structure.
	RFCLeakMWPerKB float64
	// DrowsyLeakFactor is the fraction of normal leakage a drowsy bank
	// burns (the drowsy literature reports ~90% leakage reduction with
	// data retention); used by abl5-drowsy.
	DrowsyLeakFactor float64

	// Sweep multipliers (all 1.0 by default).
	BankAccessScale float64 // Fig 18: x1.5 / x2 / x2.5
	UnitEnergyScale float64 // Fig 17: x1.5 / x2 / x2.5
}

// DefaultParams returns Table 3 exactly.
func DefaultParams() Params {
	return Params{
		VoltageV:         1.0,
		ClockHz:          1.4e9,
		WireCapFFPerMM:   300,
		WireLengthMM:     1.0,
		WireActivity:     0.5,
		BankAccessPJ:     7,
		BankLeakMW:       5.8,
		SharedAccessPJ:   2.1,
		CompActPJ:        23,
		DecompActPJ:      21,
		CompLeakMW:       0.12,
		DecompLeakMW:     0.08,
		RFCAccessPJ:      1.2,
		RFCLeakMWPerKB:   5.8 / 4,
		DrowsyLeakFactor: 0.1,
		BankAccessScale:  1,
		UnitEnergyScale:  1,
	}
}

// WireBeatPJ is the energy to move one 128-bit bank row across the wires:
// 128 wires x 1/2 C V^2 per toggling wire x activity x length. With Table 3
// values and 50% activity this is the paper's 9.6 pJ/mm figure.
func (p Params) WireBeatPJ() float64 {
	perWirePJ := 0.5 * p.WireCapFFPerMM * 1e-3 * p.VoltageV * p.VoltageV // fF -> pF gives pJ
	return 128 * perWirePJ * p.WireActivity * p.WireLengthMM
}

// BankLeakPJPerCycle converts bank leakage power to energy per clock cycle.
func (p Params) BankLeakPJPerCycle() float64 {
	return p.BankLeakMW * 1e-3 / p.ClockHz * 1e12
}

// Events are the energy-relevant counts a simulation produces. The json
// tags are the energy_events object of the warped.sim.result/v1 document.
type Events struct {
	BankAccesses uint64 `json:"bank_accesses"`            // 16-byte bank row reads + writes
	WireBeats    uint64 `json:"wire_beats"`               // 128-bit transfers between banks and collectors
	CompActs     uint64 `json:"compressor_activations"`   // compressor activations
	DecompActs   uint64 `json:"decompressor_activations"` // decompressor activations
	RFCAccesses  uint64 `json:"rfc_accesses"`             // register file cache accesses (abl4-rfc comparator)
	RFCKB        int    `json:"rfc_kb"`                   // total RFC capacity (leakage), summed over SMs

	PoweredBankCycles uint64 `json:"powered_bank_cycles"` // sum over cycles of non-gated bank count
	DrowsyBankCycles  uint64 `json:"drowsy_bank_cycles"`  // powered cycles spent in the drowsy state
	Cycles            uint64 `json:"cycles"`              // total SM cycles
	CompUnits         int    `json:"compressor_units"`    // compressor units present (leakage)
	DecompUnits       int    `json:"decompressor_units"`  // decompressor units present

	// SharedBankAccesses counts shared-memory bank row activations (the
	// bank model's distinct-word fetches, mem.AnalyzeShared). Added within
	// v1 and omitted when zero.
	SharedBankAccesses uint64 `json:"shared_bank_accesses,omitempty"`
}

// Add accumulates ev into e (for summing across SMs). Cycles takes the max:
// SMs run concurrently, so leakage time is the longest SM's, while unit
// counts sum.
func (e *Events) Add(ev Events) {
	e.BankAccesses += ev.BankAccesses
	e.WireBeats += ev.WireBeats
	e.CompActs += ev.CompActs
	e.DecompActs += ev.DecompActs
	e.RFCAccesses += ev.RFCAccesses
	e.RFCKB += ev.RFCKB
	e.PoweredBankCycles += ev.PoweredBankCycles
	e.DrowsyBankCycles += ev.DrowsyBankCycles
	if ev.Cycles > e.Cycles {
		e.Cycles = ev.Cycles
	}
	e.CompUnits += ev.CompUnits
	e.DecompUnits += ev.DecompUnits
	e.SharedBankAccesses += ev.SharedBankAccesses
}

// Breakdown is register-file energy split the way paper Fig 9 stacks it.
type Breakdown struct {
	DynamicPJ    float64 // bank access + wire movement
	LeakagePJ    float64 // bank leakage (powered cycles only)
	CompressPJ   float64 // compressor activations + leakage
	DecompressPJ float64 // decompressor activations + leakage

	// SharedPJ is shared-memory bank access energy, reported alongside the
	// register-file components for the tiling exhibits (gemm1-tiling). It
	// is deliberately excluded from TotalPJ: the paper's energy figures are
	// register-file energy, and folding a memory-side term in would shift
	// every normalized exhibit.
	SharedPJ float64
}

// TotalPJ returns the register-file total — the sum of all components
// except the informational SharedPJ (see its doc).
func (b Breakdown) TotalPJ() float64 {
	return b.DynamicPJ + b.LeakagePJ + b.CompressPJ + b.DecompressPJ
}

// Compute applies the parameters to the event counts.
func Compute(p Params, ev Events) Breakdown {
	var b Breakdown
	b.DynamicPJ = float64(ev.BankAccesses)*p.BankAccessPJ*p.BankAccessScale +
		float64(ev.WireBeats)*p.WireBeatPJ() +
		float64(ev.RFCAccesses)*p.RFCAccessPJ
	awake := float64(ev.PoweredBankCycles - ev.DrowsyBankCycles)
	b.LeakagePJ = awake*p.BankLeakPJPerCycle() +
		float64(ev.DrowsyBankCycles)*p.BankLeakPJPerCycle()*p.DrowsyLeakFactor +
		float64(ev.RFCKB)*p.RFCLeakMWPerKB*1e-3/p.ClockHz*1e12*float64(ev.Cycles)

	cyc := float64(ev.Cycles)
	perCycle := 1e-3 / p.ClockHz * 1e12 // mW -> pJ/cycle
	b.CompressPJ = float64(ev.CompActs)*p.CompActPJ*p.UnitEnergyScale +
		float64(ev.CompUnits)*cyc*p.CompLeakMW*perCycle
	b.DecompressPJ = float64(ev.DecompActs)*p.DecompActPJ*p.UnitEnergyScale +
		float64(ev.DecompUnits)*cyc*p.DecompLeakMW*perCycle
	b.SharedPJ = float64(ev.SharedBankAccesses) * p.SharedAccessPJ
	return b
}
