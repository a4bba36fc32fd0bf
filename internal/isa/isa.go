// Package isa defines the SIMT instruction set executed by the GPU model.
//
// The ISA is a small SASS/PTX-like register machine: 32-bit general purpose
// registers private to each thread, 1-bit predicate registers, guarded
// execution (@p / @!p prefixes), explicit branches with assembler-resolved
// targets, and global/shared memory accesses. It is deliberately close to the
// abstraction level GPGPU-Sim's PTX frontend presents to its timing model, so
// the register-file behaviour studied by warped-compression (ISCA'15) is
// exercised the same way: every executed instruction reads up to three warp
// registers and writes at most one.
package isa

import "fmt"

// WarpSize is the number of threads per warp (CUDA terminology, paper §2.1).
const WarpSize = 32

// Reg names a per-thread 32-bit general purpose register (r0, r1, ...).
type Reg uint8

// RegNone marks an absent register operand.
const RegNone Reg = 0xFF

// MaxRegs is the largest number of architectural registers a kernel may use
// per thread. The value is bounded by the register file capacity; with the
// paper's 128KB file a thread can never hold more registers than this.
const MaxRegs = 64

func (r Reg) String() string {
	if r == RegNone {
		return "r<none>"
	}
	return fmt.Sprintf("r%d", uint8(r))
}

// PredReg names a per-thread 1-bit predicate register (p0..p7).
type PredReg uint8

// PredNone marks an absent predicate.
const PredNone PredReg = 0xFF

// MaxPreds is the number of predicate registers per thread.
const MaxPreds = 8

func (p PredReg) String() string {
	if p == PredNone {
		return "p<none>"
	}
	return fmt.Sprintf("p%d", uint8(p))
}

// Special identifies a read-only special register supplied by the hardware
// rather than the register file (thread/block indices and dimensions).
type Special uint8

// Special register identifiers. Only the X dimension carries real geometry in
// this model; Y variants exist for kernels written 2-D style.
const (
	SpecTidX Special = iota // thread index within the CTA, x dimension
	SpecTidY
	SpecCtaIDX // CTA (thread block) index within the grid
	SpecCtaIDY
	SpecNTidX // CTA dimensions (threads per CTA)
	SpecNTidY
	SpecNCtaX // grid dimensions (CTAs per grid)
	SpecNCtaY
	SpecLaneID // thread index within the warp, 0..31
	SpecWarpID // warp index within the CTA
	// SpecParam0..7 read the launch parameters (kernel arguments such as
	// device array base addresses), the ISA's analogue of CUDA's constant
	// parameter space.
	SpecParam0
	SpecParam1
	SpecParam2
	SpecParam3
	SpecParam4
	SpecParam5
	SpecParam6
	SpecParam7
	numSpecials
)

// NumParams is the number of launch parameter slots.
const NumParams = 8

// IsParam reports whether the special is a launch parameter, and which.
func (s Special) IsParam() (int, bool) {
	if s >= SpecParam0 && s <= SpecParam7 {
		return int(s - SpecParam0), true
	}
	return 0, false
}

var specialNames = [...]string{
	SpecTidX:   "%tid.x",
	SpecTidY:   "%tid.y",
	SpecCtaIDX: "%ctaid.x",
	SpecCtaIDY: "%ctaid.y",
	SpecNTidX:  "%ntid.x",
	SpecNTidY:  "%ntid.y",
	SpecNCtaX:  "%nctaid.x",
	SpecNCtaY:  "%nctaid.y",
	SpecLaneID: "%laneid",
	SpecWarpID: "%warpid",
	SpecParam0: "%param0",
	SpecParam1: "%param1",
	SpecParam2: "%param2",
	SpecParam3: "%param3",
	SpecParam4: "%param4",
	SpecParam5: "%param5",
	SpecParam6: "%param6",
	SpecParam7: "%param7",
}

func (s Special) String() string {
	if int(s) < len(specialNames) {
		return specialNames[s]
	}
	return fmt.Sprintf("%%spec%d", uint8(s))
}

// SpecialByName resolves a %-prefixed special register name.
func SpecialByName(name string) (Special, bool) {
	for i, n := range specialNames {
		if n == name {
			return Special(i), true
		}
	}
	return 0, false
}

// OperandKind distinguishes the three source operand forms.
type OperandKind uint8

const (
	// OperandNone marks an unused source slot.
	OperandNone OperandKind = iota
	// OperandReg reads a general purpose register.
	OperandReg
	// OperandImm supplies a 32-bit immediate shared by all threads.
	OperandImm
	// OperandSpecial reads a hardware special register.
	OperandSpecial
)

// Operand is one source operand of an instruction.
type Operand struct {
	Kind OperandKind
	Reg  Reg     // valid when Kind == OperandReg
	Imm  int32   // valid when Kind == OperandImm
	Spec Special // valid when Kind == OperandSpecial
}

// R makes a register operand.
func R(r Reg) Operand { return Operand{Kind: OperandReg, Reg: r} }

// Imm makes an immediate operand.
func Imm(v int32) Operand { return Operand{Kind: OperandImm, Imm: v} }

// Spec makes a special-register operand.
func Spec(s Special) Operand { return Operand{Kind: OperandSpecial, Spec: s} }

func (o Operand) String() string {
	switch o.Kind {
	case OperandNone:
		return "_"
	case OperandReg:
		return o.Reg.String()
	case OperandImm:
		return fmt.Sprintf("%d", o.Imm)
	case OperandSpecial:
		return o.Spec.String()
	}
	return "?"
}
