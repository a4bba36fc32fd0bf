package isa

import (
	"fmt"
	"strings"
)

// Instr is one static instruction of a kernel.
//
// Every instruction may be guarded: when Pred != PredNone only threads whose
// predicate (xor PredNeg) is true take effect. A guarded Bra is the source of
// SIMT branch divergence.
type Instr struct {
	Op   Opcode
	Cmp  CmpOp      // comparison for SetP
	Dst  Reg        // destination register, RegNone if none
	PDst PredReg    // destination predicate (SetP), PredNone if none
	Srcs [3]Operand // source operands; unused slots are OperandNone

	Pred    PredReg // guard predicate, PredNone when unguarded
	PredNeg bool    // guard on !Pred instead of Pred

	PSrc PredReg // data predicate read by SelP (not the guard)

	Target int32 // branch target PC (instruction index)
	Off    int32 // byte offset for memory operands
}

// HasDst reports whether the instruction writes a general purpose register.
func (in *Instr) HasDst() bool { return in.Dst != RegNone }

func (in *Instr) String() string {
	var b strings.Builder
	if in.Pred != PredNone {
		if in.PredNeg {
			fmt.Fprintf(&b, "@!%s ", in.Pred)
		} else {
			fmt.Fprintf(&b, "@%s ", in.Pred)
		}
	}
	switch in.Op {
	case OpNop, OpExit, OpBar:
		b.WriteString(in.Op.String())
	case OpBra:
		fmt.Fprintf(&b, "bra %d", in.Target)
	case OpSetP:
		fmt.Fprintf(&b, "setp.%s %s, %s, %s", in.Cmp, in.PDst, in.Srcs[0], in.Srcs[1])
	case OpSelP:
		fmt.Fprintf(&b, "selp %s, %s, %s, %s", in.Dst, in.Srcs[0], in.Srcs[1], in.PSrc)
	case OpLdG, OpLdS:
		fmt.Fprintf(&b, "%s %s, [%s+%d]", in.Op, in.Dst, in.Srcs[0], in.Off)
	case OpAtomAdd:
		fmt.Fprintf(&b, "%s %s, [%s+%d], %s", in.Op, in.Dst, in.Srcs[0], in.Off, in.Srcs[1])
	case OpStG, OpStS:
		fmt.Fprintf(&b, "%s [%s+%d], %s", in.Op, in.Srcs[0], in.Off, in.Srcs[1])
	default:
		fmt.Fprintf(&b, "%s %s", in.Op, in.Dst)
		for _, s := range in.Srcs {
			if s.Kind != OperandNone {
				fmt.Fprintf(&b, ", %s", s)
			}
		}
	}
	return b.String()
}

// Validate checks structural well-formedness of a single instruction at
// position pc in a kernel of length codeLen.
func (in *Instr) Validate(pc, codeLen int) error {
	fail := func(format string, args ...any) error {
		return fmt.Errorf("pc %d (%s): %s", pc, in, fmt.Sprintf(format, args...))
	}
	if in.Op >= numOpcodes {
		return fail("invalid opcode %d", in.Op)
	}
	if in.Pred != PredNone && in.Pred >= MaxPreds {
		return fail("guard predicate out of range")
	}
	if in.Dst != RegNone && in.Dst >= MaxRegs {
		return fail("destination register out of range")
	}
	for i, s := range in.Srcs {
		if s.Kind == OperandReg && s.Reg >= MaxRegs {
			return fail("source %d register out of range", i)
		}
		if s.Kind == OperandSpecial && s.Spec >= numSpecials {
			return fail("source %d special register invalid", i)
		}
	}
	switch in.Op {
	case OpBra:
		if in.Target < 0 || int(in.Target) >= codeLen {
			return fail("branch target %d outside code [0,%d)", in.Target, codeLen)
		}
	case OpSetP:
		if in.PDst == PredNone || in.PDst >= MaxPreds {
			return fail("setp needs a predicate destination")
		}
		if in.Cmp >= numCmps {
			return fail("invalid comparison")
		}
	case OpSelP:
		if in.PSrc == PredNone || in.PSrc >= MaxPreds {
			return fail("selp needs a data predicate")
		}
		if !in.HasDst() {
			return fail("selp needs a destination")
		}
	case OpLdG, OpLdS:
		if !in.HasDst() {
			return fail("load needs a destination")
		}
		if in.Srcs[0].Kind != OperandReg && in.Srcs[0].Kind != OperandImm {
			return fail("load needs an address operand")
		}
	case OpStG, OpStS:
		if in.Srcs[0].Kind == OperandNone || in.Srcs[1].Kind == OperandNone {
			return fail("store needs address and data operands")
		}
	case OpAtomAdd:
		if !in.HasDst() {
			return fail("atomic needs a destination for the old value")
		}
		if in.Srcs[0].Kind == OperandNone || in.Srcs[1].Kind == OperandNone {
			return fail("atomic needs address and addend operands")
		}
	default:
		if in.Op != OpNop && in.Op != OpExit && in.Op != OpBar && !in.HasDst() {
			return fail("%s needs a destination", in.Op)
		}
	}
	return nil
}
