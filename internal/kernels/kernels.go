// Package kernels provides the 26 benchmark workloads the evaluation runs:
// hand-written ISA ports of the Rodinia / Parboil / GPGPU-Sim benchmarks the
// paper uses plus the gemm tiling family, each with an input generator
// reproducing the original's register-value character (thread-index-derived
// values, narrow-dynamic-range inputs, and its divergence pattern) and a
// host-side reference implementation that validates the simulated output.
package kernels

import (
	"fmt"
	"math/rand"
	"sort"

	"repro/internal/asm"
	"repro/internal/isa"
	"repro/internal/mem"
)

// Scale selects the problem size: Small keeps unit tests fast, Medium is the
// default for figure regeneration, Large stresses occupancy.
type Scale int

const (
	Small Scale = iota
	Medium
	Large
)

func (s Scale) String() string {
	switch s {
	case Small:
		return "small"
	case Medium:
		return "medium"
	default:
		return "large"
	}
}

// ParseScale is the inverse of Scale.String.
func ParseScale(name string) (Scale, error) {
	for _, s := range []Scale{Small, Medium, Large} {
		if s.String() == name {
			return s, nil
		}
	}
	return 0, fmt.Errorf("unknown scale %q (have small, medium, large)", name)
}

// pick returns the size for the given scale from a (small, medium, large)
// triple.
func (s Scale) pick(small, medium, large int) int {
	switch s {
	case Small:
		return small
	case Medium:
		return medium
	default:
		return large
	}
}

// Instance is one ready-to-run launch: the kernel, geometry, parameters and
// an output validator.
type Instance struct {
	Launch isa.Launch
	// Check validates device memory against the host reference after the
	// launch completes.
	Check func(m *mem.Global) error
}

// Benchmark is one registered workload.
type Benchmark struct {
	Name        string
	Suite       string // "rodinia", "parboil", "gpgpu-sim" or "tiling"
	Description string
	// Build generates inputs in device memory and returns the launch.
	Build func(m *mem.Global, s Scale) (*Instance, error)
}

var registry []*Benchmark

func register(b *Benchmark) { registry = append(registry, b) }

// Register adds a benchmark to the global registry. The built-in suite
// registers itself at init; this export exists for tests and experiment
// harnesses that need synthetic workloads (e.g. deliberately panicking or
// stalling stubs for engine-robustness tests). Duplicate names panic: every
// result table and memo key is keyed by name.
func Register(b *Benchmark) {
	if b == nil || b.Name == "" || b.Build == nil {
		panic("kernels: Register needs a named benchmark with a Build func")
	}
	if _, ok := ByName(b.Name); ok {
		panic(fmt.Sprintf("kernels: benchmark %q already registered", b.Name))
	}
	register(b)
}

// All returns every benchmark, sorted by name (the order figures use).
func All() []*Benchmark {
	out := append([]*Benchmark(nil), registry...)
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// ByName finds one benchmark.
func ByName(name string) (*Benchmark, bool) {
	for _, b := range registry {
		if b.Name == name {
			return b, true
		}
	}
	return nil, false
}

// Names lists every benchmark name in sorted order.
func Names() []string {
	var out []string
	for _, b := range All() {
		out = append(out, b.Name)
	}
	return out
}

// mustKernel assembles a built-in kernel; sources are static so failure is a
// programming error.
func mustKernel(name, src string) *isa.Kernel {
	return asm.MustAssemble(name, src)
}

// rng returns the deterministic generator all input builders share, so runs
// are exactly reproducible.
func rng(seed int64) *rand.Rand {
	return rand.New(rand.NewSource(seed))
}

// checkInt32 compares device int32 output against a host reference.
func checkInt32(m *mem.Global, addr uint32, want []int32, label string) error {
	got, err := m.ReadInt32(addr, len(want))
	if err != nil {
		return err
	}
	for i := range want {
		if got[i] != want[i] {
			return fmt.Errorf("%s[%d] = %d, want %d", label, i, got[i], want[i])
		}
	}
	return nil
}

// checkFloat32 compares device float32 output bit-exactly (the host
// references mirror the ISA's float semantics operation for operation).
func checkFloat32(m *mem.Global, addr uint32, want []float32, label string) error {
	got, err := m.ReadFloat32(addr, len(want))
	if err != nil {
		return err
	}
	for i := range want {
		if got[i] != want[i] {
			return fmt.Errorf("%s[%d] = %v, want %v", label, i, got[i], want[i])
		}
	}
	return nil
}

// allocInt32 allocates and fills a device int32 array.
func allocInt32(m *mem.Global, vals []int32) (uint32, error) {
	addr, err := m.Alloc(4 * len(vals))
	if err != nil {
		return 0, err
	}
	return addr, m.WriteInt32(addr, vals)
}

// allocFloat32 allocates and fills a device float32 array.
func allocFloat32(m *mem.Global, vals []float32) (uint32, error) {
	addr, err := m.Alloc(4 * len(vals))
	if err != nil {
		return 0, err
	}
	return addr, m.WriteFloat32(addr, vals)
}
