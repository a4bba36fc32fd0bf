package cfg

import (
	"testing"

	"repro/internal/asm"
	"repro/internal/isa"
)

func reconv(t *testing.T, src string) []int32 {
	t.Helper()
	k, err := asm.Assemble("t", src)
	if err != nil {
		t.Fatal(err)
	}
	if err := ComputeReconvergence(k); err != nil {
		t.Fatal(err)
	}
	return k.ReconvPC
}

// pcOfLabel finds the pc a label resolves to by assembling with a branch.
func TestIfThenElse(t *testing.T) {
	// 0 setp, 1 @p0 bra Lelse(4), 2 add, 3 bra Lend(5), 4 Lelse: sub, 5 Lend: exit
	r := reconv(t, `
	setp.lt p0, r0, r1
@p0	bra Lelse
	add r2, r2, 1
	bra Lend
Lelse:
	sub r2, r2, 1
Lend:
	exit
`)
	if r[1] != 5 {
		t.Fatalf("if/else branch reconverges at %d, want 5 (Lend)", r[1])
	}
	if r[3] != -1 {
		t.Fatalf("unconditional bra should have no reconvergence point, got %d", r[3])
	}
}

func TestIfWithoutElse(t *testing.T) {
	// 0 setp, 1 @p0 bra Lend(3), 2 add, 3 exit
	r := reconv(t, `
	setp.lt p0, r0, r1
@p0	bra Lend
	add r2, r2, 1
Lend:
	exit
`)
	if r[1] != 3 {
		t.Fatalf("if branch reconverges at %d, want 3", r[1])
	}
}

func TestLoopBackEdge(t *testing.T) {
	// 0 mov, 1 Ltop: add, 2 setp, 3 @p0 bra Ltop(1), 4 exit
	r := reconv(t, `
	mov r0, 0
Ltop:
	add r0, r0, 1
	setp.lt p0, r0, 10
@p0	bra Ltop
	exit
`)
	if r[3] != 4 {
		t.Fatalf("loop back-edge reconverges at %d, want 4 (loop exit)", r[3])
	}
}

func TestNestedIf(t *testing.T) {
	// outer branch at 1 -> Louter(8); inner branch at 3 -> Linner(6)
	r := reconv(t, `
	setp.lt p0, r0, r1
@p0	bra Louter
	setp.lt p1, r2, r3
@p1	bra Linner
	add r4, r4, 1
	add r4, r4, 2
Linner:
	add r4, r4, 3
Louter:
	exit
`)
	if r[3] != 6 {
		t.Fatalf("inner reconvergence %d, want 6", r[3])
	}
	if r[1] != 7 {
		t.Fatalf("outer reconvergence %d, want 7 (Louter)", r[1])
	}
}

func TestGuardedExitReconvergence(t *testing.T) {
	// 0 setp, 1 @p0 exit, 2 add, 3 exit: a guarded exit retires its lanes
	// directly (no stack entry), so it carries no reconvergence PC.
	r := reconv(t, `
	setp.lt p0, r0, r1
@p0	exit
	add r2, r2, 1
	exit
`)
	if r[1] != -1 {
		t.Fatalf("guarded exit should have no reconvergence PC, got %d", r[1])
	}
}

func TestDivergeToExitOnly(t *testing.T) {
	// Both sides exit separately: reconvergence only at kernel exit (-1).
	r := reconv(t, `
	setp.lt p0, r0, r1
@p0	bra Lother
	exit
Lother:
	exit
`)
	if r[1] != -1 {
		t.Fatalf("exit-only reconvergence should be -1, got %d", r[1])
	}
}

func TestFallOffEndRejected(t *testing.T) {
	k := &isa.Kernel{
		Name: "bad",
		Code: []isa.Instr{
			{Op: isa.OpExit, Dst: isa.RegNone, Pred: isa.PredNone, PDst: isa.PredNone, PSrc: isa.PredNone},
			{Op: isa.OpNop, Dst: isa.RegNone, Pred: isa.PredNone, PDst: isa.PredNone, PSrc: isa.PredNone},
		},
	}
	if _, err := Build(k); err == nil {
		t.Fatal("control falling off code end must be rejected")
	}
}

func TestBlockPartition(t *testing.T) {
	k, err := asm.Assemble("t", `
	mov r0, 0
	setp.lt p0, r0, r1
@p0	bra Lskip
	add r0, r0, 1
Lskip:
	exit
`)
	if err != nil {
		t.Fatal(err)
	}
	g, err := Build(k)
	if err != nil {
		t.Fatal(err)
	}
	if len(g.Blocks) != 3 {
		t.Fatalf("%d blocks, want 3", len(g.Blocks))
	}
	if g.blockOf[0] != 0 || g.blockOf[3] != 1 || g.blockOf[4] != 2 {
		t.Fatalf("block mapping wrong: %d %d %d", g.blockOf[0], g.blockOf[3], g.blockOf[4])
	}
}

func TestUnreachableCode(t *testing.T) {
	// Code after an unconditional exit is unreachable from the entry, but
	// post-dominance is still well-defined for it (it reaches exit), so the
	// analysis must not crash and the dead branch still gets its join point.
	r := reconv(t, `
	exit
	setp.lt p0, r0, r1
@p0	bra Ldead
	nop
Ldead:
	exit
`)
	if r[2] != 4 {
		t.Fatalf("dead branch reconvergence %d, want 4 (Ldead)", r[2])
	}
}

// TestWhileLoopWithDivergentExit mirrors the benchmark kernels' trip-count
// loops: the back-edge branch must reconverge right after the loop.
func TestWhileLoopWithDivergentExit(t *testing.T) {
	r := reconv(t, `
	mov  r4, 0
	mov  r5, 0
Lloop:
	add  r4, r4, 10
	add  r5, r5, 1
	setp.lt p0, r5, r2
@p0	bra Lloop
	st.global [r6], r4
	exit
`)
	if r[5] != 6 {
		t.Fatalf("loop reconvergence %d, want 6 (the store)", r[5])
	}
}
