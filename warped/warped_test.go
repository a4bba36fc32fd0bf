package warped_test

import (
	"testing"

	"repro/warped"
)

// TestPublicAPIEndToEnd exercises the whole public surface the way the
// README quick start does.
func TestPublicAPIEndToEnd(t *testing.T) {
	cfg := warped.DefaultConfig()
	cfg.NumSMs = 2
	gpu, err := warped.NewGPU(cfg)
	if err != nil {
		t.Fatal(err)
	}

	out, err := gpu.Mem().Alloc(4 * 256)
	if err != nil {
		t.Fatal(err)
	}
	kernel, err := warped.Assemble("square", `
	mov r0, %tid.x
	mad r1, %ctaid.x, %ntid.x, r0
	mul r2, r1, r1
	shl r3, r1, 2
	add r3, r3, %param0
	st.global [r3], r2
	exit
`)
	if err != nil {
		t.Fatal(err)
	}
	res, err := gpu.Run(warped.Launch{
		Kernel: kernel,
		Grid:   warped.Dim3{X: 2},
		Block:  warped.Dim3{X: 128},
		Params: [8]uint32{out},
	})
	if err != nil {
		t.Fatal(err)
	}
	got, err := gpu.Mem().ReadInt32(out, 256)
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range got {
		if v != int32(i*i) {
			t.Fatalf("out[%d] = %d, want %d", i, v, i*i)
		}
	}
	if res.Stats.CompressionRatio(warped.NonDivergent) <= 1 {
		t.Fatal("square kernel should compress")
	}

	e := warped.ComputeEnergy(warped.DefaultEnergyParams(), res.Energy)
	if e.TotalPJ() <= 0 {
		t.Fatal("energy must be positive")
	}
}

func TestCompressionPrimitives(t *testing.T) {
	var w warped.WarpReg
	for i := range w {
		w[i] = uint32(100 + i)
	}
	if enc := warped.ChooseEncoding(&w); enc != warped.Enc41 {
		t.Fatalf("encoding %v, want <4,1>", enc)
	}
	data := w.Bytes()
	p, ok := warped.BestBDIParams(data)
	if !ok {
		t.Fatal("affine data must compress")
	}
	comp, ok := warped.Compress(data, p)
	if !ok {
		t.Fatal("compress failed")
	}
	out := make([]byte, len(data))
	if err := warped.Decompress(comp, p, out); err != nil {
		t.Fatal(err)
	}
	for i := range data {
		if out[i] != data[i] {
			t.Fatal("round trip mismatch")
		}
	}
}

func TestBenchmarkRegistryExposed(t *testing.T) {
	if len(warped.Benchmarks()) < 14 {
		t.Fatal("suite must expose at least 14 benchmarks")
	}
	if _, ok := warped.BenchmarkByName("pathfinder"); !ok {
		t.Fatal("pathfinder missing")
	}
	if len(warped.ExperimentIDs()) != 33 {
		t.Fatalf("expected 33 exhibits (20 paper + 5 ablations + 1 fault study + 3 scheme comparisons + 4 gemm tiling), got %d", len(warped.ExperimentIDs()))
	}
}

func TestRunBenchmarkThroughPublicAPI(t *testing.T) {
	cfg := warped.DefaultConfig()
	cfg.NumSMs = 2
	gpu, err := warped.NewGPU(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, _ := warped.BenchmarkByName("lib")
	inst, err := b.Build(gpu.Mem(), warped.Small)
	if err != nil {
		t.Fatal(err)
	}
	res, err := gpu.Run(inst.Launch)
	if err != nil {
		t.Fatal(err)
	}
	if err := inst.Check(gpu.Mem()); err != nil {
		t.Fatal(err)
	}
	// LIB's defining property through the public API: near-total <4,0>.
	if r := res.Stats.CompressionRatio(warped.NonDivergent); r < 4 {
		t.Fatalf("lib compression ratio %v, want near 8", r)
	}
}
