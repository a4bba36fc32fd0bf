package isa

import "fmt"

// Opcode enumerates every operation in the ISA.
type Opcode uint8

const (
	OpNop Opcode = iota

	// Data movement.
	OpMov // dst = src0 (register, immediate or special)

	// Integer arithmetic / logic. All operate on 32-bit two's complement.
	OpAdd // dst = src0 + src1
	OpSub // dst = src0 - src1
	OpMul // dst = src0 * src1 (low 32 bits)
	OpMad // dst = src0 * src1 + src2
	OpMin // dst = signed min(src0, src1)
	OpMax // dst = signed max(src0, src1)
	OpAbs // dst = |src0| (signed)
	OpAnd // dst = src0 & src1
	OpOr  // dst = src0 | src1
	OpXor // dst = src0 ^ src1
	OpNot // dst = ^src0
	OpShl // dst = src0 << (src1 & 31)
	OpShr // dst = logical src0 >> (src1 & 31)
	OpSra // dst = arithmetic src0 >> (src1 & 31)
	OpDiv // dst = src0 / src1 (signed; 0 when src1 == 0)
	OpRem // dst = src0 % src1 (signed; 0 when src1 == 0)

	// IEEE-754 single precision arithmetic (values are bit patterns in
	// the 32-bit registers, as on real hardware).
	OpFAdd  // dst = src0 + src1
	OpFSub  // dst = src0 - src1
	OpFMul  // dst = src0 * src1
	OpFMA   // dst = src0*src1 + src2
	OpFMin  // dst = min(src0, src1)
	OpFMax  // dst = max(src0, src1)
	OpFRcp  // dst = 1/src0 (SFU)
	OpFSqrt // dst = sqrt(src0) (SFU)
	OpI2F   // dst = float32(int32(src0))
	OpF2I   // dst = int32(float32(src0)), truncating

	// Predicate generation and selection.
	OpSetP // pdst = cmp(src0, src1); comparison in Instr.Cmp
	OpSelP // dst = guard-pred ? src0 : src1 (predicate in Instr.PSrc)

	// Control flow.
	OpBra  // branch to Instr.Target (guarded => potentially divergent)
	OpExit // thread exit
	OpBar  // CTA-wide barrier

	// Memory. Address = src0 + Instr.Off (bytes, 4-byte aligned).
	OpLdG     // dst = global[addr]
	OpStG     // global[addr] = src1
	OpLdS     // dst = shared[addr]
	OpStS     // shared[addr] = src1
	OpAtomAdd // dst = global[addr]; global[addr] += src1 (per lane, in lane order)

	numOpcodes
)

var opcodeNames = [...]string{
	OpNop: "nop", OpMov: "mov",
	OpAdd: "add", OpSub: "sub", OpMul: "mul", OpMad: "mad",
	OpMin: "min", OpMax: "max", OpAbs: "abs",
	OpAnd: "and", OpOr: "or", OpXor: "xor", OpNot: "not",
	OpShl: "shl", OpShr: "shr", OpSra: "sra", OpDiv: "div", OpRem: "rem",
	OpFAdd: "fadd", OpFSub: "fsub", OpFMul: "fmul", OpFMA: "fma",
	OpFMin: "fmin", OpFMax: "fmax", OpFRcp: "frcp", OpFSqrt: "fsqrt",
	OpI2F: "i2f", OpF2I: "f2i",
	OpSetP: "setp", OpSelP: "selp",
	OpBra: "bra", OpExit: "exit", OpBar: "bar.sync",
	OpLdG: "ld.global", OpStG: "st.global",
	OpLdS: "ld.shared", OpStS: "st.shared",
	OpAtomAdd: "atom.add",
}

func (op Opcode) String() string {
	if int(op) < len(opcodeNames) && opcodeNames[op] != "" {
		return opcodeNames[op]
	}
	return fmt.Sprintf("op%d", uint8(op))
}

// OpcodeByName resolves a mnemonic; used by the assembler.
func OpcodeByName(name string) (Opcode, bool) {
	for op, n := range opcodeNames {
		if n == name && n != "" {
			return Opcode(op), true
		}
	}
	return 0, false
}

// FuncClass is the functional-unit class an opcode dispatches to; the timing
// model assigns a pipeline latency per class.
type FuncClass uint8

const (
	ClassALU  FuncClass = iota // simple integer / logic / predicate ops
	ClassSFU                   // multiply, divide, float, special functions
	ClassMem                   // global/shared loads and stores
	ClassCtrl                  // branches, exit, barrier, nop
)

var opcodeClass = [numOpcodes]FuncClass{
	OpNop: ClassCtrl, OpMov: ClassALU,
	OpAdd: ClassALU, OpSub: ClassALU, OpMin: ClassALU, OpMax: ClassALU,
	OpAbs: ClassALU, OpAnd: ClassALU, OpOr: ClassALU, OpXor: ClassALU,
	OpNot: ClassALU, OpShl: ClassALU, OpShr: ClassALU, OpSra: ClassALU,
	OpMul: ClassSFU, OpMad: ClassSFU, OpDiv: ClassSFU, OpRem: ClassSFU,
	OpFAdd: ClassSFU, OpFSub: ClassSFU, OpFMul: ClassSFU, OpFMA: ClassSFU,
	OpFMin: ClassSFU, OpFMax: ClassSFU, OpFRcp: ClassSFU, OpFSqrt: ClassSFU,
	OpI2F: ClassSFU, OpF2I: ClassSFU,
	OpSetP: ClassALU, OpSelP: ClassALU,
	OpBra: ClassCtrl, OpExit: ClassCtrl, OpBar: ClassCtrl,
	OpLdG: ClassMem, OpStG: ClassMem, OpLdS: ClassMem, OpStS: ClassMem,
	OpAtomAdd: ClassMem,
}

// Class reports the functional-unit class of the opcode.
func (op Opcode) Class() FuncClass {
	if op < numOpcodes {
		return opcodeClass[op]
	}
	return ClassALU
}

// CmpOp is the comparison used by setp.
type CmpOp uint8

const (
	CmpEQ CmpOp = iota // signed / bitwise equality
	CmpNE
	CmpLT // signed <
	CmpLE
	CmpGT
	CmpGE
	CmpFEQ // float32 comparisons
	CmpFNE
	CmpFLT
	CmpFLE
	CmpFGT
	CmpFGE
	numCmps
)

var cmpNames = [...]string{
	CmpEQ: "eq", CmpNE: "ne", CmpLT: "lt", CmpLE: "le", CmpGT: "gt", CmpGE: "ge",
	CmpFEQ: "feq", CmpFNE: "fne", CmpFLT: "flt", CmpFLE: "fle", CmpFGT: "fgt", CmpFGE: "fge",
}

func (c CmpOp) String() string {
	if int(c) < len(cmpNames) {
		return cmpNames[c]
	}
	return fmt.Sprintf("cmp%d", uint8(c))
}

// CmpByName resolves a setp comparison suffix.
func CmpByName(name string) (CmpOp, bool) {
	for c, n := range cmpNames {
		if n == name {
			return CmpOp(c), true
		}
	}
	return 0, false
}
