package kernels

import (
	"fmt"
	"testing"

	"repro/internal/sim"
)

// runGEMMShape runs one gemm variant at an explicit shape and validates it
// against the host reference.
func runGEMMShape(t *testing.T, variant string, M, N, K int) *sim.Result {
	t.Helper()
	g, err := sim.New(testCfg("bdi"))
	if err != nil {
		t.Fatalf("sim.New: %v", err)
	}
	inst, err := BuildGEMMInstance(g.Mem(), variant, M, N, K)
	if err != nil {
		t.Fatalf("BuildGEMMInstance(%s, %dx%dx%d): %v", variant, M, N, K, err)
	}
	res, err := g.Run(inst.Launch)
	if err != nil {
		t.Fatalf("%s %dx%dx%d: %v", variant, M, N, K, err)
	}
	if err := inst.Check(g.Mem()); err != nil {
		t.Fatalf("%s %dx%dx%d output wrong: %v", variant, M, N, K, err)
	}
	return res
}

// TestGEMMShapes cross-checks every variant against the host reference over
// shapes that exercise the ragged-edge guards: dimensions below, at, and
// straddling the 16- and 32-wide tile boundaries.
func TestGEMMShapes(t *testing.T) {
	shapes := []struct{ m, n, k int }{
		{8, 8, 8},    // smaller than every tile
		{16, 16, 16}, // exact 16 tile, half a 32 tile
		{32, 32, 32}, // exact 32 tile
		{20, 28, 12}, // ragged in all three dimensions
		{33, 17, 40}, // one past a tile edge, K spanning 3 tiles
		{1, 64, 5},   // degenerate row vector
		{48, 1, 33},  // degenerate column vector, ragged K
	}
	for variant := range gemmVariants {
		variant := variant
		t.Run(variant, func(t *testing.T) {
			for _, s := range shapes {
				t.Run(fmt.Sprintf("%dx%dx%d", s.m, s.n, s.k), func(t *testing.T) {
					runGEMMShape(t, variant, s.m, s.n, s.k)
				})
			}
		})
	}
}

// TestGEMMVariantsAgree verifies all four variants leave byte-identical C
// for the same shape — they share inputs, so any divergence is a tiling
// bug, not a tolerance question.
func TestGEMMVariantsAgree(t *testing.T) {
	const M, N, K = 33, 17, 40
	var ref []int32
	for _, variant := range []string{"gemm_naive", "gemm_block", "gemm_warp", "gemm_reg"} {
		g, err := sim.New(testCfg("off"))
		if err != nil {
			t.Fatalf("sim.New: %v", err)
		}
		inst, err := BuildGEMMInstance(g.Mem(), variant, M, N, K)
		if err != nil {
			t.Fatalf("BuildGEMMInstance(%s): %v", variant, err)
		}
		if _, err := g.Run(inst.Launch); err != nil {
			t.Fatalf("%s: %v", variant, err)
		}
		c, err := g.Mem().ReadInt32(inst.Launch.Params[2], M*N)
		if err != nil {
			t.Fatalf("%s: read C: %v", variant, err)
		}
		if ref == nil {
			ref = c
			continue
		}
		for i := range ref {
			if c[i] != ref[i] {
				t.Fatalf("%s: C[%d] = %d, gemm_naive computed %d", variant, i, c[i], ref[i])
			}
		}
	}
}

// TestGEMMConflictLadder checks the family produces the shared-memory
// behavior it exists to demonstrate: serialization falls monotonically from
// gemm_block (8-way transposed staging) through gemm_warp (4-way A reads)
// to gemm_reg (padded, conflict-free), and gemm_naive touches shared memory
// not at all.
func TestGEMMConflictLadder(t *testing.T) {
	ser := map[string]uint64{}
	for variant := range gemmVariants {
		res := runGEMMShape(t, variant, 32, 32, 32)
		ser[variant] = res.Stats.SharedSerializationCycles
		t.Logf("%s: accesses=%d conflicts=%d serialization=%d broadcasts=%d",
			variant, res.Stats.SharedAccess, res.Stats.SharedConflicts,
			res.Stats.SharedSerializationCycles, res.Stats.SharedBroadcastHits)
	}
	if ser["gemm_naive"] != 0 {
		t.Errorf("gemm_naive has %d shared serialization cycles, want 0", ser["gemm_naive"])
	}
	if ser["gemm_reg"] != 0 {
		t.Errorf("gemm_reg has %d shared serialization cycles, want 0 (padded layout)", ser["gemm_reg"])
	}
	if ser["gemm_warp"] == 0 {
		t.Errorf("gemm_warp has no shared serialization, want 4-way A-read conflicts")
	}
	if ser["gemm_block"] <= ser["gemm_warp"] {
		t.Errorf("gemm_block serialization %d not above gemm_warp %d", ser["gemm_block"], ser["gemm_warp"])
	}
}

// TestGEMMRegisterLadder checks register pressure rises along the ladder —
// the property that makes the family interesting to register compression.
func TestGEMMRegisterLadder(t *testing.T) {
	regs := map[string]int{}
	for variant := range gemmVariants {
		g, err := sim.New(testCfg("off"))
		if err != nil {
			t.Fatalf("sim.New: %v", err)
		}
		inst, err := BuildGEMMInstance(g.Mem(), variant, 32, 32, 32)
		if err != nil {
			t.Fatalf("BuildGEMMInstance(%s): %v", variant, err)
		}
		regs[variant] = inst.Launch.Kernel.NumRegs
	}
	if !(regs["gemm_naive"] < regs["gemm_block"] && regs["gemm_block"] < regs["gemm_warp"] && regs["gemm_warp"] < regs["gemm_reg"]) {
		t.Errorf("register pressure not monotonic along the ladder: %v", regs)
	}
}

func TestGEMMBadShape(t *testing.T) {
	g, err := sim.New(testCfg("off"))
	if err != nil {
		t.Fatalf("sim.New: %v", err)
	}
	if _, err := BuildGEMMInstance(g.Mem(), "gemm_naive", 0, 4, 4); err == nil {
		t.Errorf("zero M accepted")
	}
	if _, err := BuildGEMMInstance(g.Mem(), "gemm_fast", 4, 4, 4); err == nil {
		t.Errorf("unknown variant accepted")
	}
}
