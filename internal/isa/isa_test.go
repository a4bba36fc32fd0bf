package isa

import (
	"math"
	"testing"
	"testing/quick"
)

func TestEvalALUIntegerOps(t *testing.T) {
	cases := []struct {
		op      Opcode
		a, b, c uint32
		want    uint32
	}{
		{OpMov, 7, 0, 0, 7},
		{OpAdd, 3, 4, 0, 7},
		{OpAdd, 0xFFFFFFFF, 1, 0, 0}, // wraparound
		{OpSub, 3, 5, 0, 0xFFFFFFFE},
		{OpMul, 6, 7, 0, 42},
		{OpMul, 0xFFFFFFFD, 5, 0, 0xFFFFFFF1},
		{OpMad, 2, 3, 4, 10},
		{OpMin, 0xFFFFFFFB, 3, 0, 0xFFFFFFFB},
		{OpMax, 0xFFFFFFFB, 3, 0, 3},
		{OpAbs, 0xFFFFFFF7, 0, 0, 9},
		{OpAnd, 0xF0, 0x3C, 0, 0x30},
		{OpOr, 0xF0, 0x0F, 0, 0xFF},
		{OpXor, 0xFF, 0x0F, 0, 0xF0},
		{OpNot, 0, 0, 0, 0xFFFFFFFF},
		{OpShl, 1, 4, 0, 16},
		{OpShl, 1, 36, 0, 16}, // shift amount masked to 5 bits
		{OpShr, 0x80000000, 31, 0, 1},
		{OpSra, 0x80000000, 31, 0, 0xFFFFFFFF},
		{OpDiv, 0xFFFFFFF9, 2, 0, 0xFFFFFFFD},
		{OpDiv, 5, 0, 0, 0}, // div by zero defined as 0
		{OpRem, 7, 3, 0, 1},
		{OpRem, 7, 0, 0, 0},
	}
	for _, c := range cases {
		if got := EvalALU(c.op, c.a, c.b, c.c); got != c.want {
			t.Errorf("%s(%#x,%#x,%#x) = %#x, want %#x", c.op, c.a, c.b, c.c, got, c.want)
		}
	}
}

func f32(f float32) uint32 { return math.Float32bits(f) }

func TestEvalALUFloatOps(t *testing.T) {
	cases := []struct {
		op      Opcode
		a, b, c uint32
		want    float32
	}{
		{OpFAdd, f32(1.5), f32(2.25), 0, 3.75},
		{OpFSub, f32(1), f32(3), 0, -2},
		{OpFMul, f32(3), f32(-2), 0, -6},
		{OpFMA, f32(2), f32(3), f32(1), 7},
		{OpFMin, f32(2), f32(-3), 0, -3},
		{OpFMax, f32(2), f32(-3), 0, 2},
		{OpFRcp, f32(4), 0, 0, 0.25},
		{OpFSqrt, f32(9), 0, 0, 3},
		{OpI2F, 0xFFFFFFF8, 0, 0, -8}, // int32(-8)
	}
	for _, c := range cases {
		got := math.Float32frombits(EvalALU(c.op, c.a, c.b, c.c))
		if got != c.want {
			t.Errorf("%s = %v, want %v", c.op, got, c.want)
		}
	}
	if int32(EvalALU(OpF2I, f32(-7.9), 0, 0)) != -7 {
		t.Error("f2i must truncate toward zero")
	}
	if EvalALU(OpF2I, f32(float32(math.NaN())), 0, 0) != 0 {
		t.Error("f2i of NaN defined as 0")
	}
}

// TestFMAIntermediateRounding: the ISA defines fma as mul-then-add with
// intermediate rounding so host references can match bit-exactly.
func TestFMAIntermediateRounding(t *testing.T) {
	f := func(a, b, c float32) bool {
		got := EvalALU(OpFMA, f32(a), f32(b), f32(c))
		want := math.Float32bits(float32(a*b) + c)
		return got == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 5000}); err != nil {
		t.Fatal(err)
	}
}

func TestEvalCmp(t *testing.T) {
	neg1 := uint32(0xFFFFFFFF)
	cases := []struct {
		cmp  CmpOp
		a, b uint32
		want bool
	}{
		{CmpEQ, 5, 5, true},
		{CmpNE, 5, 5, false},
		{CmpLT, neg1, 0, true}, // signed
		{CmpLE, 5, 5, true},
		{CmpGT, 0, neg1, true},
		{CmpGE, 0, 0, true},
		{CmpFLT, f32(-0.5), f32(0.5), true},
		{CmpFGE, f32(2), f32(2), true},
		{CmpFEQ, f32(1), f32(1), true},
		{CmpFNE, f32(1), f32(2), true},
		{CmpFLE, f32(3), f32(2), false},
		{CmpFGT, f32(3), f32(2), true},
	}
	for _, c := range cases {
		if got := EvalCmp(c.cmp, c.a, c.b); got != c.want {
			t.Errorf("%s(%#x,%#x) = %v, want %v", c.cmp, c.a, c.b, got, c.want)
		}
	}
}

func TestOpcodeTables(t *testing.T) {
	for op := Opcode(0); op < numOpcodes; op++ {
		if op.String() == "" {
			t.Errorf("opcode %d has no name", op)
		}
		back, ok := OpcodeByName(op.String())
		if op == OpBar {
			continue // "bar.sync" round-trips too
		}
		if !ok || back != op {
			t.Errorf("opcode %s does not round-trip by name", op)
		}
	}
	if OpLdG.Class() != ClassMem || OpBra.Class() != ClassCtrl || OpAdd.Class() != ClassALU || OpFMul.Class() != ClassSFU {
		t.Error("opcode class table wrong")
	}
}

func TestSpecialNames(t *testing.T) {
	for s := Special(0); s < numSpecials; s++ {
		name := s.String()
		back, ok := SpecialByName(name)
		if !ok || back != s {
			t.Errorf("special %s does not round-trip", name)
		}
	}
	if _, ok := SpecialByName("%nope"); ok {
		t.Error("bogus special resolved")
	}
	if p, ok := SpecParam3.IsParam(); !ok || p != 3 {
		t.Error("IsParam")
	}
	if _, ok := SpecTidX.IsParam(); ok {
		t.Error("tid is not a param")
	}
}

func TestInstrValidate(t *testing.T) {
	good := Instr{Op: OpAdd, Dst: 1, Srcs: [3]Operand{R(0), Imm(1), {}}, Pred: PredNone, PDst: PredNone, PSrc: PredNone}
	if err := good.Validate(0, 10); err != nil {
		t.Fatalf("valid instruction rejected: %v", err)
	}
	bad := []Instr{
		{Op: OpBra, Target: 99, Pred: PredNone, Dst: RegNone, PDst: PredNone, PSrc: PredNone},
		{Op: OpSetP, PDst: PredNone, Pred: PredNone, Dst: RegNone, PSrc: PredNone},
		{Op: OpAdd, Dst: RegNone, Pred: PredNone, PDst: PredNone, PSrc: PredNone},
		{Op: OpLdG, Dst: RegNone, Pred: PredNone, PDst: PredNone, PSrc: PredNone},
	}
	for i, in := range bad {
		if err := in.Validate(0, 10); err == nil {
			t.Errorf("bad instruction %d accepted", i)
		}
	}
}

func TestKernelValidate(t *testing.T) {
	k := &Kernel{Name: "k", Code: []Instr{{Op: OpExit, Dst: RegNone, Pred: PredNone, PDst: PredNone, PSrc: PredNone}}}
	k.ComputeRegUsage()
	if err := k.Validate(); err != nil {
		t.Fatalf("minimal kernel rejected: %v", err)
	}
	empty := &Kernel{Name: "e"}
	if err := empty.Validate(); err == nil {
		t.Error("empty kernel accepted")
	}
	noExit := &Kernel{Name: "n", Code: []Instr{{Op: OpNop, Dst: RegNone, Pred: PredNone, PDst: PredNone, PSrc: PredNone}}}
	if err := noExit.Validate(); err == nil {
		t.Error("kernel without exit accepted")
	}
}

func TestLaunchGeometry(t *testing.T) {
	k := &Kernel{Name: "k", Code: []Instr{{Op: OpExit, Dst: RegNone, Pred: PredNone, PDst: PredNone, PSrc: PredNone}}}
	k.ComputeRegUsage()
	l := Launch{Kernel: k, Grid: Dim3{X: 4, Y: 2}, Block: Dim3{X: 96}}
	if err := l.Validate(); err != nil {
		t.Fatal(err)
	}
	if l.NumCTAs() != 8 || l.ThreadsPerCTA() != 96 || l.WarpsPerCTA() != 3 {
		t.Fatalf("geometry: %d CTAs, %d threads, %d warps", l.NumCTAs(), l.ThreadsPerCTA(), l.WarpsPerCTA())
	}
	if err := (Launch{Kernel: k, Grid: Dim3{X: 1}, Block: Dim3{X: 2048}}).Validate(); err == nil {
		t.Error("oversized CTA accepted")
	}
	if err := (Launch{Kernel: k, Grid: Dim3{}, Block: Dim3{X: 32}}).Validate(); err == nil {
		t.Error("empty grid accepted")
	}
}
