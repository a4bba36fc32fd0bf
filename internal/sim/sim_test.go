package sim

import (
	"os"
	"strconv"
	"testing"

	"repro/internal/asm"
	"repro/internal/isa"
)

// testConfig shrinks the GPU for fast unit tests. WARPED_TEST_SM_PARALLEL
// overrides the shard count so the whole package can be re-run (notably
// under -race in CI) with the SM loop actually sharded; results must not
// change, which is the point of running it.
func testConfig() Config {
	c := DefaultConfig()
	c.NumSMs = 2
	c.GlobalMemBytes = 1 << 20
	c.MaxCycles = 5_000_000
	if v := os.Getenv("WARPED_TEST_SM_PARALLEL"); v != "" {
		if n, err := strconv.Atoi(v); err == nil && n > 0 {
			c.SMParallel = n
		}
	}
	return c
}

// runKernel launches src on a fresh GPU and returns the GPU and result.
func runKernel(t *testing.T, c Config, src string, grid, block int, setup func(g *GPU) uint32) (*GPU, *Result, uint32) {
	t.Helper()
	g, err := New(c)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	var base uint32
	if setup != nil {
		base = setup(g)
	}
	k, err := asm.Assemble("test", src)
	if err != nil {
		t.Fatalf("Assemble: %v", err)
	}
	res, err := g.Run(isa.Launch{Kernel: k, Grid: isa.Dim3{X: grid}, Block: isa.Dim3{X: block}})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	return g, res, base
}

// The canonical first kernel: out[global_tid] = global_tid.
const tidKernelSrc = `
	mov  r0, %tid.x
	mov  r1, %ctaid.x
	mov  r2, %ntid.x
	mad  r3, r1, r2, r0     // global thread id
	shl  r4, r3, 2          // byte offset
	add  r5, r4, r6         // r6 holds the output base address (0 here)
	st.global [r5], r3
	exit
`

func TestTidKernelWritesIdentity(t *testing.T) {
	g, res, _ := runKernel(t, testConfig(), tidKernelSrc, 4, 64, nil)
	got, err := g.Mem().ReadInt32(0, 4*64)
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range got {
		if v != int32(i) {
			t.Fatalf("out[%d] = %d, want %d", i, v, i)
		}
	}
	if res.Cycles == 0 || res.Stats.Instructions == 0 {
		t.Fatalf("empty result: %+v", res)
	}
	if res.Stats.DivergentInstrs != 0 {
		t.Fatalf("unexpected divergence: %d", res.Stats.DivergentInstrs)
	}
}

func TestCompressionDoesNotChangeResults(t *testing.T) {
	run := func(compression string) []int32 {
		c := testConfig()
		c.Compression = compression
		c.PowerGating = compression != "off"
		g, _, _ := runKernel(t, c, tidKernelSrc, 4, 64, nil)
		got, err := g.Mem().ReadInt32(0, 4*64)
		if err != nil {
			t.Fatal(err)
		}
		return got
	}
	on := run("bdi")
	off := run("off")
	for i := range on {
		if on[i] != off[i] {
			t.Fatalf("out[%d]: compressed %d != baseline %d", i, on[i], off[i])
		}
	}
}

// Divergent kernel: threads below 16 in each warp take a different path.
const divergeKernelSrc = `
	mov  r0, %tid.x
	mov  r1, %ctaid.x
	mad  r3, r1, %ntid.x, r0
	and  r2, r0, 31        // lane
	setp.lt p0, r2, 16
@p0	bra Lsmall
	mul  r4, r3, 3
	bra  Ljoin
Lsmall:
	add  r4, r3, 1000
Ljoin:
	shl  r5, r3, 2
	st.global [r5], r4
	exit
`

func TestDivergenceReconverges(t *testing.T) {
	g, res, _ := runKernel(t, testConfig(), divergeKernelSrc, 2, 64, nil)
	got, err := g.Mem().ReadInt32(0, 2*64)
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range got {
		want := int32(i) * 3
		if i%32 < 16 {
			want = int32(i) + 1000
		}
		if v != want {
			t.Fatalf("out[%d] = %d, want %d", i, v, want)
		}
	}
	if res.Stats.DivergentInstrs == 0 {
		t.Fatal("expected divergent instructions")
	}
	if res.Stats.NonDivergentRatio() >= 1 {
		t.Fatal("non-divergent ratio should drop below 1")
	}
}

// Loop kernel: r4 = sum 0..9 computed in a uniform loop.
const loopKernelSrc = `
	mov  r0, %tid.x
	mov  r1, %ctaid.x
	mad  r3, r1, %ntid.x, r0
	mov  r4, 0
	mov  r5, 0
Lloop:
	add  r4, r4, r5
	add  r5, r5, 1
	setp.lt p0, r5, 10
@p0	bra Lloop
	shl  r6, r3, 2
	st.global [r6], r4
	exit
`

func TestUniformLoop(t *testing.T) {
	g, _, _ := runKernel(t, testConfig(), loopKernelSrc, 2, 32, nil)
	got, err := g.Mem().ReadInt32(0, 64)
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range got {
		if v != 45 {
			t.Fatalf("out[%d] = %d, want 45", i, v)
		}
	}
}

// Divergent loop: each thread iterates (lane%4)+1 times; exercises
// loop-exit divergence and reconvergence via post-dominators.
const divergentLoopSrc = `
	mov  r0, %tid.x
	mov  r1, %ctaid.x
	mad  r3, r1, %ntid.x, r0
	and  r2, r0, 3
	add  r2, r2, 1        // trip count 1..4
	mov  r4, 0            // accumulator
	mov  r5, 0            // i
Lloop:
	add  r4, r4, 10
	add  r5, r5, 1
	setp.lt p0, r5, r2
@p0	bra Lloop
	shl  r6, r3, 2
	st.global [r6], r4
	exit
`

func TestDivergentLoop(t *testing.T) {
	g, res, _ := runKernel(t, testConfig(), divergentLoopSrc, 2, 64, nil)
	got, err := g.Mem().ReadInt32(0, 128)
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range got {
		want := int32(i%4+1) * 10
		if v != want {
			t.Fatalf("out[%d] = %d, want %d", i, v, want)
		}
	}
	if res.Stats.DivergentInstrs == 0 {
		t.Fatal("divergent loop should produce divergent instructions")
	}
}

// Shared-memory kernel with a barrier: block-wide reverse through shared.
const sharedKernelSrc = `
.shared 256
	mov  r0, %tid.x
	shl  r1, r0, 2
	st.shared [r1], r0      // shared[tid] = tid
	bar.sync
	mov  r2, 63
	sub  r3, r2, r0         // reversed index
	shl  r4, r3, 2
	ld.shared r5, [r4]      // = 63 - tid
	mov  r6, %ctaid.x
	mad  r7, r6, %ntid.x, r0
	shl  r8, r7, 2
	st.global [r8], r5
	exit
`

func TestSharedMemoryBarrier(t *testing.T) {
	g, _, _ := runKernel(t, testConfig(), sharedKernelSrc, 2, 64, nil)
	got, err := g.Mem().ReadInt32(0, 128)
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range got {
		want := int32(63 - i%64)
		if v != want {
			t.Fatalf("out[%d] = %d, want %d", i, v, want)
		}
	}
}

func TestDummyMovInjection(t *testing.T) {
	// Write a compressible register non-divergently, then update it
	// divergently: the divergent write must trigger a dummy MOV.
	src := `
	mov  r0, %tid.x
	mov  r1, %ctaid.x
	mad  r3, r1, %ntid.x, r0
	mov  r4, r3           // r4 compressible (<4,1>: consecutive)
	and  r2, r0, 31
	setp.lt p0, r2, 8
@p0	bra Ldiv
	bra  Ljoin
Ldiv:
	add  r4, r4, 7        // divergent write to compressed r4
Ljoin:
	shl  r5, r3, 2
	st.global [r5], r4
	exit
`
	c := testConfig()
	g, res, _ := runKernel(t, c, src, 2, 64, nil)
	got, err := g.Mem().ReadInt32(0, 128)
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range got {
		want := int32(i)
		if i%32 < 8 {
			want += 7
		}
		if v != want {
			t.Fatalf("out[%d] = %d, want %d", i, v, want)
		}
	}
	if res.Stats.DummyMovs == 0 {
		t.Fatal("expected dummy MOV injection for divergent write to compressed register")
	}

	// Baseline never injects MOVs.
	c2 := BaselineConfig()
	c2.NumSMs = 2
	c2.GlobalMemBytes = 1 << 20
	_, res2, _ := runKernel(t, c2, src, 2, 64, nil)
	if res2.Stats.DummyMovs != 0 {
		t.Fatalf("baseline injected %d dummy MOVs", res2.Stats.DummyMovs)
	}
}

func TestCompressionReducesBankAccesses(t *testing.T) {
	run := func(compression string) *Result {
		c := testConfig()
		c.Compression = compression
		c.PowerGating = compression != "off"
		_, res, _ := runKernel(t, c, tidKernelSrc, 8, 256, nil)
		return res
	}
	on := run("bdi")
	off := run("off")
	onAcc := on.Stats.RF.BankReads + on.Stats.RF.BankWrites
	offAcc := off.Stats.RF.BankReads + off.Stats.RF.BankWrites
	if onAcc >= offAcc {
		t.Fatalf("compression should reduce bank accesses: on=%d off=%d", onAcc, offAcc)
	}
	if on.Stats.CompActs == 0 || on.Stats.DecompActs == 0 {
		t.Fatalf("expected compressor/decompressor activity: %d/%d", on.Stats.CompActs, on.Stats.DecompActs)
	}
	if off.Stats.CompActs != 0 || off.Stats.DecompActs != 0 {
		t.Fatal("baseline must not activate compression units")
	}
	// Gating: warped-compression should power-gate some bank cycles.
	maxPowered := uint64(32) * on.Stats.RF.Cycles
	if on.Stats.RF.PoweredBankCycles >= maxPowered {
		t.Fatal("expected some power-gated bank cycles with compression on")
	}
	if off.Stats.RF.PoweredBankCycles != uint64(32)*off.Stats.RF.Cycles {
		t.Fatal("baseline must keep all banks powered")
	}
}

func TestGTOvsLRRSameResults(t *testing.T) {
	run := func(policy string) []int32 {
		c := testConfig()
		c.Scheduler = policy
		g, _, _ := runKernel(t, c, divergeKernelSrc, 2, 64, nil)
		got, err := g.Mem().ReadInt32(0, 128)
		if err != nil {
			t.Fatal(err)
		}
		return got
	}
	a, b := run("gto"), run("lrr")
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("out[%d]: gto %d != lrr %d", i, a[i], b[i])
		}
	}
}

func TestPartialLastWarp(t *testing.T) {
	// 40 threads = one full warp + one half warp; the partial warp's
	// launch mask must confine execution to live threads.
	g, _, _ := runKernel(t, testConfig(), tidKernelSrc, 1, 40, nil)
	got, err := g.Mem().ReadInt32(0, 40)
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range got {
		if v != int32(i) {
			t.Fatalf("out[%d] = %d, want %d", i, v, i)
		}
	}
}

func TestManyCTAsMoreThanSMs(t *testing.T) {
	g, res, _ := runKernel(t, testConfig(), tidKernelSrc, 37, 64, nil)
	got, err := g.Mem().ReadInt32(0, 37*64)
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range got {
		if v != int32(i) {
			t.Fatalf("out[%d] = %d, want %d", i, v, i)
		}
	}
	if res.Cycles == 0 {
		t.Fatal("no cycles")
	}
}

func TestGuardedExit(t *testing.T) {
	// Half the threads exit early; the rest still write results.
	src := `
	mov  r0, %tid.x
	and  r1, r0, 1
	setp.eq p0, r1, 1
@p0	exit
	shl  r2, r0, 2
	st.global [r2], r0
	exit
`
	g, _, _ := runKernel(t, testConfig(), src, 1, 64, nil)
	got, err := g.Mem().ReadInt32(0, 64)
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range got {
		want := int32(0)
		if i%2 == 0 {
			want = int32(i)
		}
		if v != want {
			t.Fatalf("out[%d] = %d, want %d", i, v, want)
		}
	}
}

// TestWideSMIssuesEveryWarp runs more resident warps per scheduler than one
// word of SM.running holds: every warp must still issue, in slot order
// across the word boundary.
func TestWideSMIssuesEveryWarp(t *testing.T) {
	c := testConfig()
	c.NumSMs = 1
	c.SchedulersPerSM = 1
	c.MaxWarpsPerSM = 96
	c.MaxCTAsPerSM = 48
	const ctas = 48
	g, res, _ := runKernel(t, c, tidKernelSrc, ctas, 64, nil)
	got, err := g.Mem().ReadInt32(0, ctas*64)
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range got {
		if v != int32(i) {
			t.Fatalf("out[%d] = %d, want %d", i, v, i)
		}
	}
	if res.Stats.Instructions == 0 {
		t.Fatal("no instructions issued")
	}
}
