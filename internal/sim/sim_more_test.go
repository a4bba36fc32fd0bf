package sim

import (
	"errors"
	"math"
	"testing"

	"repro/internal/asm"
	"repro/internal/core"
	"repro/internal/isa"
	"repro/internal/stats"
)

func TestConfigValidation(t *testing.T) {
	bad := []func(*Config){
		func(c *Config) { c.NumSMs = 0 },
		func(c *Config) { c.MaxWarpsPerSM = 47 }, // not a multiple of 2 schedulers
		func(c *Config) { c.Collectors = 0 },
		func(c *Config) { c.Compressors = 0 },
		func(c *Config) { c.CompressLatency = -1 },
		func(c *Config) { c.ALULatency = 0 },
		func(c *Config) { c.GlobalMemBytes = 100 },
		func(c *Config) { c.Scheduler = "fifo" },
		func(c *Config) { c.MaxCycles = 0 },
		func(c *Config) { c.L1SizeKB = 16; c.L1Ways = 0 },
		func(c *Config) { c.GlobalMaxInflight = isa.WarpSize - 1 }, // an uncoalesced access never fits
	}
	for i, mutate := range bad {
		c := DefaultConfig()
		mutate(&c)
		if err := c.Validate(); err == nil {
			t.Errorf("bad config %d accepted", i)
		}
	}
	var ce *ConfigError
	c := DefaultConfig()
	c.GlobalMaxInflight = 16
	if err := c.Validate(); !errors.As(err, &ce) || ce.Field != "GlobalMaxInflight" {
		t.Errorf("GlobalMaxInflight=16: got %v, want a *ConfigError on GlobalMaxInflight", err)
	}
	c.GlobalMaxInflight = isa.WarpSize
	if err := c.Validate(); err != nil {
		t.Errorf("GlobalMaxInflight=%d (one full warp access) rejected: %v", isa.WarpSize, err)
	}
	good := DefaultConfig()
	if err := good.Validate(); err != nil {
		t.Fatalf("default config rejected: %v", err)
	}
}

func TestSequentialLaunchesOnOneGPU(t *testing.T) {
	// Two launches on the same GPU: memory persists, per-launch stats reset.
	c := testConfig()
	g, err := New(c)
	if err != nil {
		t.Fatal(err)
	}
	k, err := asm.Assemble("inc", `
	mov r0, %tid.x
	shl r1, r0, 2
	ld.global r2, [r1]
	add r2, r2, 1
	st.global [r1], r2
	exit
`)
	if err != nil {
		t.Fatal(err)
	}
	l := isa.Launch{Kernel: k, Grid: isa.Dim3{X: 1}, Block: isa.Dim3{X: 64}}
	r1, err := g.Run(l)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := g.Run(l)
	if err != nil {
		t.Fatal(err)
	}
	got, err := g.Mem().ReadInt32(0, 64)
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range got {
		if v != 2 {
			t.Fatalf("mem[%d] = %d after two launches, want 2", i, v)
		}
	}
	if r2.Stats.Instructions != r1.Stats.Instructions {
		t.Fatalf("second launch stats not reset: %d vs %d", r2.Stats.Instructions, r1.Stats.Instructions)
	}
}

func TestOutOfBoundsAccessFailsRun(t *testing.T) {
	c := testConfig()
	g, _ := New(c)
	k, _ := asm.Assemble("oob", `
	mov r0, 0x7ffffff0
	st.global [r0], 1
	exit
`)
	if _, err := g.Run(isa.Launch{Kernel: k, Grid: isa.Dim3{X: 1}, Block: isa.Dim3{X: 32}}); err == nil {
		t.Fatal("out-of-bounds store must fail the run")
	}
}

func TestInfiniteLoopHitsMaxCycles(t *testing.T) {
	c := testConfig()
	c.MaxCycles = 2000
	g, _ := New(c)
	k, _ := asm.Assemble("spin", `
Lspin:
	bra Lspin
	exit
`)
	if _, err := g.Run(isa.Launch{Kernel: k, Grid: isa.Dim3{X: 1}, Block: isa.Dim3{X: 32}}); err == nil {
		t.Fatal("runaway kernel must abort at MaxCycles")
	}
}

func TestPredicatedALUCountsAsPartialWrite(t *testing.T) {
	// A guarded non-branch write to a compressed register must also
	// trigger the dummy-MOV path (it is a partial register update).
	src := `
	mov  r0, %tid.x
	mov  r4, r0            // compressible
	and  r1, r0, 1
	setp.eq p0, r1, 0
@p0	add  r4, r4, 100       // predicated partial update
	shl  r2, r0, 2
	st.global [r2], r4
	exit
`
	c := testConfig()
	g, _ := New(c)
	k, _ := asm.Assemble("pred", src)
	res, err := g.Run(isa.Launch{Kernel: k, Grid: isa.Dim3{X: 1}, Block: isa.Dim3{X: 64}})
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.DummyMovs == 0 {
		t.Fatal("predicated partial write should inject a dummy MOV")
	}
	got, _ := g.Mem().ReadInt32(0, 64)
	for i, v := range got {
		want := int32(i)
		if i%2 == 0 {
			want += 100
		}
		if v != want {
			t.Fatalf("out[%d] = %d, want %d", i, v, want)
		}
	}
}

func TestSelpDataPredicate(t *testing.T) {
	src := `
	mov  r0, %tid.x
	and  r1, r0, 1
	setp.eq p1, r1, 0
	selp r2, 111, 222, p1
	shl  r3, r0, 2
	st.global [r3], r2
	exit
`
	g, _ := New(testConfig())
	k, _ := asm.Assemble("selp", src)
	if _, err := g.Run(isa.Launch{Kernel: k, Grid: isa.Dim3{X: 1}, Block: isa.Dim3{X: 64}}); err != nil {
		t.Fatal(err)
	}
	got, _ := g.Mem().ReadInt32(0, 64)
	for i, v := range got {
		want := int32(222)
		if i%2 == 0 {
			want = 111
		}
		if v != want {
			t.Fatalf("out[%d] = %d, want %d", i, v, want)
		}
	}
}

func TestL1CacheReducesMemoryTime(t *testing.T) {
	// A kernel whose warps repeatedly load the same small table: with the
	// L1 enabled the run must be faster and record hits.
	src := `
	mov  r0, %tid.x
	mov  r5, 0
	mov  r6, 0
Lloop:
	and  r1, r5, 63
	shl  r1, r1, 2
	ld.global r2, [r1]
	add  r6, r6, r2
	add  r5, r5, 1
	setp.lt p0, r5, 32
@p0	bra Lloop
	mad  r3, %ctaid.x, %ntid.x, r0
	shl  r3, r3, 2
	add  r3, r3, 1024
	st.global [r3], r6
	exit
`
	run := func(l1 int) (*Result, *GPU) {
		c := testConfig()
		c.L1SizeKB = l1
		g, _ := New(c)
		k, _ := asm.Assemble("table", src)
		res, err := g.Run(isa.Launch{Kernel: k, Grid: isa.Dim3{X: 4}, Block: isa.Dim3{X: 64}})
		if err != nil {
			t.Fatal(err)
		}
		return res, g
	}
	with, _ := run(16)
	without, _ := run(0)
	if with.Stats.L1Hits == 0 {
		t.Fatal("expected L1 hits")
	}
	if without.Stats.L1Hits != 0 {
		t.Fatal("disabled L1 must record no hits")
	}
	if with.Cycles >= without.Cycles {
		t.Fatalf("L1 should speed up table lookups: %d vs %d", with.Cycles, without.Cycles)
	}
}

func TestWakeupStallsRecorded(t *testing.T) {
	// With gating on, the very first writes hit gated banks and must pay
	// (and record) wakeup stalls.
	c := testConfig()
	_, res, _ := runKernel(t, c, tidKernelSrc, 2, 64, nil)
	if res.Stats.StallWakeup == 0 {
		t.Fatal("expected wakeup stalls on first writes to gated banks")
	}
	// Baseline (no gating) never stalls on wakeup.
	cb := BaselineConfig()
	cb.NumSMs = 2
	cb.GlobalMemBytes = 1 << 20
	_, res2, _ := runKernel(t, cb, tidKernelSrc, 2, 64, nil)
	if res2.Stats.StallWakeup != 0 {
		t.Fatal("baseline must not stall on wakeups")
	}
}

func TestCollectorLimitStalls(t *testing.T) {
	c := testConfig()
	c.Collectors = 1
	_, res, _ := runKernel(t, c, tidKernelSrc, 4, 256, nil)
	if res.Stats.StallCollector == 0 {
		t.Fatal("single collector should cause structural stalls")
	}
	c2 := testConfig()
	_, res2, _ := runKernel(t, c2, tidKernelSrc, 4, 256, nil)
	if res2.Cycles > res.Cycles {
		t.Fatalf("more collectors should not be slower: %d vs %d", res2.Cycles, res.Cycles)
	}
}

func TestRegisterPressureLimitsOccupancy(t *testing.T) {
	// A kernel using many registers must still run (occupancy shrinks).
	var src string
	src = "\tmov r0, %tid.x\n"
	for r := 1; r < 60; r++ {
		src += "\tadd r" + itoa(r) + ", r" + itoa(r-1) + ", 1\n"
	}
	src += "\tshl r60, r0, 2\n\tst.global [r60], r59\n\texit\n"
	g, res, _ := runKernel(t, testConfig(), src, 8, 256, nil)
	got, err := g.Mem().ReadInt32(0, 16)
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range got {
		if v != int32(i)+59 {
			t.Fatalf("out[%d] = %d, want %d", i, v, i+59)
		}
	}
	if res.Cycles == 0 {
		t.Fatal("no cycles")
	}
}

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	var buf [4]byte
	i := len(buf)
	for n > 0 {
		i--
		buf[i] = byte('0' + n%10)
		n /= 10
	}
	return string(buf[i:])
}

func TestEnergyEventsConsistent(t *testing.T) {
	c := testConfig()
	_, res, _ := runKernel(t, c, divergeKernelSrc, 4, 128, nil)
	ev := res.Energy
	if ev.BankAccesses != res.Stats.RF.BankReads+res.Stats.RF.BankWrites {
		t.Fatal("bank access events disagree with RF stats")
	}
	if ev.WireBeats != ev.BankAccesses {
		t.Fatal("each bank row access moves one 128-bit beat")
	}
	if ev.CompActs != res.Stats.CompActs || ev.DecompActs != res.Stats.DecompActs {
		t.Fatal("unit activation events disagree")
	}
	if ev.PoweredBankCycles > uint64(32)*res.Stats.RF.Cycles {
		t.Fatal("powered cycles exceed bank-cycles")
	}
	if ev.Cycles != res.Cycles {
		t.Fatal("cycle count mismatch")
	}
}

// TestCompressionRatioBounds: the bank-based ratio is always in [1, 8].
func TestCompressionRatioBounds(t *testing.T) {
	for _, src := range []string{tidKernelSrc, divergeKernelSrc, loopKernelSrc, divergentLoopSrc} {
		_, res, _ := runKernel(t, testConfig(), src, 2, 64, nil)
		for _, p := range []stats.Phase{stats.NonDivergent, stats.Divergent} {
			r := res.Stats.CompressionRatio(p)
			if r < 1-1e-12 || r > 8+1e-12 || math.IsNaN(r) {
				t.Fatalf("ratio %v out of [1,8]", r)
			}
		}
	}
}

// TestScalarizationSubset: a run restricted to <4,0> must never compress
// more registers than warped-compression on the same kernel.
func TestScalarizationSubset(t *testing.T) {
	run := func(m core.Mode) *Result {
		c := testConfig()
		c.Mode = m
		_, res, _ := runKernel(t, c, loopKernelSrc, 4, 128, nil)
		return res
	}
	only40 := run(core.ModeOnly40)
	wc := run(core.ModeWarped)
	c40 := only40.Stats.WritesByEnc[stats.NonDivergent][1] // Enc40 slot
	total40 := c40 + only40.Stats.WritesByEnc[stats.NonDivergent][2] + only40.Stats.WritesByEnc[stats.NonDivergent][3]
	if total40 != c40 {
		t.Fatal("ModeOnly40 stored a non-<4,0> compressed encoding")
	}
	var comprWC uint64
	for e := 1; e < stats.NumEncodings; e++ {
		comprWC += wc.Stats.WritesByEnc[stats.NonDivergent][e]
	}
	if c40 > comprWC {
		t.Fatalf("scalarization compressed more writes (%d) than warped (%d)", c40, comprWC)
	}
}

func TestAtomicConflictDegree(t *testing.T) {
	var addrs [32]uint32
	for i := range addrs {
		addrs[i] = uint32(4 * i)
	}
	if d := atomicConflictDegree(&addrs, 0xFFFFFFFF); d != 1 {
		t.Fatalf("distinct addresses: degree %d, want 1", d)
	}
	for i := range addrs {
		addrs[i] = 64
	}
	if d := atomicConflictDegree(&addrs, 0xFFFFFFFF); d != 32 {
		t.Fatalf("single address: degree %d, want 32", d)
	}
	if d := atomicConflictDegree(&addrs, 0x3); d != 2 {
		t.Fatalf("masked: degree %d, want 2", d)
	}
	if d := atomicConflictDegree(&addrs, 0); d != 1 {
		t.Fatalf("empty mask: degree %d, want 1", d)
	}
}

func TestSpecialRegisters(t *testing.T) {
	// Verify tid/ctaid/ntid/laneid/warpid geometry through a kernel that
	// stores every special.
	src := `
	mov  r0, %tid.x
	mad  r1, %ctaid.x, %ntid.x, r0
	shl  r2, r1, 2
	mul  r3, r2, 4          // 4 words per thread
	mov  r4, %laneid
	mov  r5, %warpid
	mov  r6, %nctaid.x
	st.global [r3], r0
	st.global [r3+4], r4
	st.global [r3+8], r5
	st.global [r3+12], r6
	exit
`
	g, _, _ := runKernel(t, testConfig(), src, 3, 96, nil)
	for tid := 0; tid < 3*96; tid++ {
		vals, err := g.Mem().ReadInt32(uint32(16*tid), 4)
		if err != nil {
			t.Fatal(err)
		}
		local := tid % 96
		if vals[0] != int32(local) {
			t.Fatalf("thread %d: tid.x = %d, want %d", tid, vals[0], local)
		}
		if vals[1] != int32(local%32) {
			t.Fatalf("thread %d: laneid = %d, want %d", tid, vals[1], local%32)
		}
		if vals[2] != int32(local/32) {
			t.Fatalf("thread %d: warpid = %d, want %d", tid, vals[2], local/32)
		}
		if vals[3] != 3 {
			t.Fatalf("thread %d: nctaid = %d, want 3", tid, vals[3])
		}
	}
}

func TestRecompressPolicyCorrectness(t *testing.T) {
	// The recompress divergence policy must produce identical results and
	// keep divergent writes compressed (no dummy MOVs).
	c := testConfig()
	c.DivergencePolicy = "recompress"
	g, res, _ := runKernel(t, c, divergentLoopSrc, 2, 64, nil)
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
	if res.Stats.DummyMovs != 0 {
		t.Fatalf("recompress policy must not inject MOVs, got %d", res.Stats.DummyMovs)
	}
	// Divergent-phase writes may carry compressed encodings under this
	// policy (the whole point of the ablation).
	var compressedDiv uint64
	for e := 1; e < stats.NumEncodings; e++ {
		compressedDiv += res.Stats.WritesByEnc[stats.Divergent][e]
	}
	if compressedDiv == 0 {
		t.Fatal("recompress policy produced no compressed divergent writes")
	}
}
