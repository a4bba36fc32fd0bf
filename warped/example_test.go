package warped_test

import (
	"fmt"

	"repro/warped"
)

// ExampleCompress demonstrates the BDI primitive on a stride-1 register:
// 32 consecutive lane values fit in a 4-byte base plus 31 one-byte deltas.
func ExampleCompress() {
	var w warped.WarpReg
	for lane := range w {
		w[lane] = uint32(1000 + lane)
	}
	p, _ := warped.BestBDIParams(w.Bytes())
	comp, _ := warped.Compress(w.Bytes(), p)
	fmt.Printf("%s compresses 128 bytes to %d bytes (%d register banks)\n",
		p, len(comp), p.Banks())
	// Output:
	// <4,1> compresses 128 bytes to 35 bytes (3 register banks)
}

// ExampleChooseEncoding shows the hardware compressor's fixed choices on
// the three value patterns the paper's Figure 2 bins describe.
func ExampleChooseEncoding() {
	patterns := map[string]int32{"uniform": 0, "thread-indexed": 1, "strided": 500}
	for _, name := range []string{"uniform", "thread-indexed", "strided"} {
		var w warped.WarpReg
		for lane := range w {
			w[lane] = uint32(int32(lane) * patterns[name])
		}
		fmt.Printf("%s -> %s\n", name, warped.ChooseEncoding(&w))
	}
	// Output:
	// uniform -> <4,0>
	// thread-indexed -> <4,1>
	// strided -> <4,2>
}

// ExampleGPU_Run assembles and runs a minimal kernel end to end.
func ExampleGPU_Run() {
	cfg := warped.DefaultConfig()
	cfg.NumSMs = 1
	gpu, _ := warped.NewGPU(cfg)
	out, _ := gpu.Mem().Alloc(4 * 64)
	kernel, _ := warped.Assemble("double", `
	mov r0, %tid.x
	add r1, r0, r0
	shl r2, r0, 2
	add r2, r2, %param0
	st.global [r2], r1
	exit
`)
	_, err := gpu.Run(warped.Launch{
		Kernel: kernel,
		Grid:   warped.Dim3{X: 1},
		Block:  warped.Dim3{X: 64},
		Params: [8]uint32{out},
	})
	if err != nil {
		fmt.Println(err)
		return
	}
	vals, _ := gpu.Mem().ReadInt32(out, 4)
	fmt.Println(vals)
	// Output:
	// [0 2 4 6]
}

// ExampleBDIParams_CompressedSize reproduces the paper's Table 1 math.
func ExampleBDIParams_CompressedSize() {
	for _, p := range []warped.BDIParams{{Base: 4, Delta: 0}, {Base: 4, Delta: 1}, {Base: 4, Delta: 2}} {
		fmt.Printf("%s: %d bytes, %d banks\n", p, p.CompressedSize(), p.Banks())
	}
	// Output:
	// <4,0>: 4 bytes, 1 banks
	// <4,1>: 35 bytes, 3 banks
	// <4,2>: 66 bytes, 5 banks
}
