package core

import (
	"fmt"
	"sort"
	"strings"
)

// SchemeRegistryVersion names the compression-backend registry contract.
// Scheme names registered under schemes/v1 are stable identifiers: they
// appear in the cfg/v1 configuration signature, in the jobs/server API
// (the Compression key of a job's config) and in exhibit column headers,
// so renaming or re-meaning a registered scheme requires a registry
// version bump.
const SchemeRegistryVersion = "schemes/v1"

// DefaultScheme is the compression backend used when a configuration does
// not name one: the paper's BDI variant.
const DefaultScheme = "bdi"

// Compressor is one pluggable register-compression backend.
//
// A compressor classifies each full-warp register write into one of at most
// NumEncodings pattern classes (class 0 is always "uncompressed", full
// WarpBytes across WarpBanks banks) and provides the codec for each class.
// All methods on the hot path (Choose, Compressible, CompressInto,
// Decompress) must be allocation-free given caller-owned buffers; the fuzz
// and AllocsPerRun tests in this package enforce that for every registered
// scheme.
//
// The reg argument of Choose is the destination register index; dynamic
// schemes ignore it, while table-driven schemes (static) use it to look up
// the per-kernel encoding table.
type Compressor interface {
	// Name returns the registered scheme name ("bdi", "static", "fpc").
	Name() string
	// NumClasses returns how many encoding classes the scheme uses,
	// 1 <= NumClasses <= NumEncodings. Class 0 is always uncompressed.
	NumClasses() int
	// ClassName names an encoding class for reports and exhibits.
	ClassName(e Encoding) string
	// Banks returns how many 16-byte register banks class e occupies.
	Banks(e Encoding) int
	// CompressedBytes returns the stored size of class e.
	CompressedBytes(e Encoding) int
	// Compressible reports whether vals can be stored under class e
	// losslessly. Class EncUncompressed is always compressible.
	Compressible(vals *WarpReg, e Encoding) bool
	// Choose returns the class the compressor stores for a full-warp
	// write of vals to register reg under policy mode m.
	Choose(reg int, vals *WarpReg, m Mode) Encoding
	// CompressInto appends the class-e image of vals to dst and returns
	// the extended slice, or ok=false when vals does not fit class e.
	// With a dst of sufficient capacity it performs no heap allocation.
	CompressInto(dst []byte, vals *WarpReg, e Encoding) ([]byte, bool)
	// Decompress parses a class-e image produced by CompressInto back
	// into lane values.
	Decompress(comp []byte, e Encoding, out *WarpReg) error
}

// KernelTableBinder is implemented by table-driven compressors (the static
// scheme) that derive a per-kernel, per-register encoding table at launch
// time. The simulator binds the table before each launch; dynamic schemes
// simply don't implement the interface.
type KernelTableBinder interface {
	// BindTable installs the per-register encoding table for the kernel
	// about to run. The table is copied; nil or empty unbinds.
	BindTable(table []Encoding)
}

// schemes maps each registered backend name to its factory.
var schemes = map[string]func() Compressor{}

// registerScheme adds a compression backend under name. Registering a
// duplicate name panics: scheme names are part of the schemes/v1 contract.
func registerScheme(name string, factory func() Compressor) {
	if name == "" {
		panic("core: registerScheme with empty name")
	}
	if _, dup := schemes[name]; dup {
		panic(fmt.Sprintf("core: compression scheme %q registered twice", name))
	}
	schemes[name] = factory
}

// Schemes returns the registered backend names in sorted order.
func Schemes() []string {
	out := make([]string, 0, len(schemes))
	for name := range schemes {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// NewCompressor builds a fresh instance of the named backend. Unknown names
// are an error.
func NewCompressor(name string) (Compressor, error) {
	factory, ok := schemes[name]
	if !ok {
		return nil, fmt.Errorf("core: unknown compression scheme %q (registered: %v)", name, Schemes())
	}
	return factory(), nil
}

// CompressionPoint is one named compression setting, the value space of
// sim.Config.Compression: the backend that classifies and stores register
// writes, and the policy its Choose runs under. The paper's §6.6
// fixed-choice designs (Figs 15/16) are BDI under a restricted policy, and
// "off" is the uncompressed baseline.
type CompressionPoint struct {
	Name   string
	Scheme string // a registered backend
	Policy Mode   // ModeOff: no compression hardware, writes stay uncompressed
}

// compressionPoints is every compression setting, in the order errors and
// flag help list them. The fixed-choice policies apply to BDI only; the
// other backends run their own dynamic choice under ModeWarped.
var compressionPoints = []CompressionPoint{
	{"off", "bdi", ModeOff},
	{"bdi", "bdi", ModeWarped},
	{"bdi-40", "bdi", ModeOnly40},
	{"bdi-41", "bdi", ModeOnly41},
	{"bdi-42", "bdi", ModeOnly42},
	{"fpc", "fpc", ModeWarped},
	{"static", "static", ModeWarped},
}

// Compressions returns every compression setting name, in listing order.
func Compressions() []string {
	out := make([]string, len(compressionPoints))
	for i, p := range compressionPoints {
		out[i] = p.Name
	}
	return out
}

// LookupCompression resolves a compression setting name. The empty string
// is the default spelling of DefaultScheme.
func LookupCompression(name string) (CompressionPoint, error) {
	if name == "" {
		name = DefaultScheme
	}
	for _, p := range compressionPoints {
		if p.Name == name {
			return p, nil
		}
	}
	return CompressionPoint{}, fmt.Errorf("unknown compression %q (have %s)", name, strings.Join(Compressions(), ", "))
}

// BankTable returns the per-class bank occupancy of a compressor as a fixed
// array, the form the register file configuration consumes. Classes beyond
// NumClasses occupy the full WarpBanks so a stray tag can never under-count.
func BankTable(c Compressor) [NumEncodings]int {
	var t [NumEncodings]int
	for i := range t {
		if i < c.NumClasses() {
			t[i] = c.Banks(Encoding(i))
		} else {
			t[i] = WarpBanks
		}
	}
	return t
}

func init() {
	registerScheme("bdi", func() Compressor { return bdiScheme{} })
	registerScheme("static", func() Compressor { return &staticScheme{} })
	registerScheme("fpc", func() Compressor { return fpcScheme{} })
}
