package core

import (
	"testing"
	"testing/quick"
)

func affineReg(base, stride int32) *WarpReg {
	var w WarpReg
	for i := range w {
		w[i] = uint32(base + int32(i)*stride)
	}
	return &w
}

func TestEncodingBanks(t *testing.T) {
	cases := map[Encoding]int{
		EncUncompressed: 8,
		Enc40:           1,
		Enc41:           3,
		Enc42:           5,
	}
	for e, banks := range cases {
		if got := e.Banks(); got != banks {
			t.Errorf("%s: Banks = %d, want %d", e, got, banks)
		}
	}
	if Enc40.CompressedBytes() != 4 || Enc41.CompressedBytes() != 35 || Enc42.CompressedBytes() != 66 {
		t.Error("compressed byte sizes disagree with Table 1")
	}
	if EncUncompressed.CompressedBytes() != WarpBytes {
		t.Error("uncompressed size must be the full register")
	}
}

func TestModeWarpedChoice(t *testing.T) {
	cases := []struct {
		name string
		vals *WarpReg
		want Encoding
	}{
		{"uniform", affineReg(77, 0), Enc40},
		{"stride1", affineReg(1000, 1), Enc41},
		{"stride4", affineReg(-50, 4), Enc41},
		{"stride127", affineReg(0, -4), Enc41},
		{"stride300", affineReg(123, 300), Enc42},
		{"stride1000", affineReg(0, 1000), Enc42},
		{"random", func() *WarpReg {
			var w WarpReg
			for i := range w {
				w[i] = uint32(i) * 0x9E3779B9
			}
			return &w
		}(), EncUncompressed},
	}
	for _, c := range cases {
		if got := ModeWarped.Choose(c.vals); got != c.want {
			t.Errorf("%s: ModeWarped.Choose = %s, want %s", c.name, got, c.want)
		}
	}
}

func TestModeOffNeverCompresses(t *testing.T) {
	if ModeOff.Choose(affineReg(0, 0)) != EncUncompressed {
		t.Fatal("ModeOff must store uncompressed")
	}
	if ModeOff.Enabled() {
		t.Fatal("ModeOff must not be enabled")
	}
}

// TestSingleChoiceModes: ModeOnly40 only accepts exactly-uniform registers;
// ModeOnly41 accepts <=1-byte deltas but stores them as <4,1>; ModeOnly42
// accepts anything up to 2-byte deltas.
func TestSingleChoiceModes(t *testing.T) {
	uniform, stride1, stride300 := affineReg(5, 0), affineReg(5, 1), affineReg(5, 300)
	random := affineReg(5, 1<<20)

	check := func(m Mode, vals *WarpReg, want Encoding) {
		t.Helper()
		if got := m.Choose(vals); got != want {
			t.Errorf("mode %d: Choose = %s, want %s", m, got, want)
		}
	}
	check(ModeOnly40, uniform, Enc40)
	check(ModeOnly40, stride1, EncUncompressed)
	check(ModeOnly41, uniform, Enc41) // stored with 1-byte deltas anyway
	check(ModeOnly41, stride1, Enc41)
	check(ModeOnly41, stride300, EncUncompressed)
	check(ModeOnly42, uniform, Enc42)
	check(ModeOnly42, stride300, Enc42)
	check(ModeOnly42, random, EncUncompressed)
}

// TestChooseAgreesWithBDI: the fast single-pass Choose must agree with the
// generic BDI Compressible predicate for each fixed parameter set.
func TestChooseAgreesWithBDI(t *testing.T) {
	f := func(w WarpReg) bool {
		data := w.Bytes()
		enc := ModeWarped.Choose(&w)
		switch enc {
		case Enc40:
			return Compressible(data, Params{4, 0})
		case Enc41:
			return Compressible(data, Params{4, 1}) && !Compressible(data, Params{4, 0})
		case Enc42:
			return Compressible(data, Params{4, 2}) && !Compressible(data, Params{4, 1})
		default:
			return !Compressible(data, Params{4, 2})
		}
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 3000}); err != nil {
		t.Fatal(err)
	}
}

// TestWarpRegBytesRoundTrip: Bytes/WarpRegFromBytes are inverses.
func TestWarpRegBytesRoundTrip(t *testing.T) {
	f := func(w WarpReg) bool {
		got, err := WarpRegFromBytes(w.Bytes())
		return err == nil && got == w
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
	if _, err := WarpRegFromBytes(make([]byte, 100)); err == nil {
		t.Fatal("short image accepted")
	}
}

func TestUnitPool(t *testing.T) {
	p := NewUnitPool(2, 3)
	// Two grants in cycle 10, third must fail.
	r1, ok1 := p.TryStart(10)
	r2, ok2 := p.TryStart(10)
	_, ok3 := p.TryStart(10)
	if !ok1 || !ok2 || ok3 {
		t.Fatalf("grants: %v %v %v, want true true false", ok1, ok2, ok3)
	}
	if r1 != 13 || r2 != 13 {
		t.Fatalf("ready cycles %d %d, want 13 13", r1, r2)
	}
	// Pipelined: next cycle both units accept again.
	if _, ok := p.TryStart(11); !ok {
		t.Fatal("pipelined unit refused next cycle")
	}
	if p.Activations() != 3 {
		t.Fatalf("activations = %d, want 3", p.Activations())
	}
	if p.Size() != 2 || p.Latency() != 3 {
		t.Fatal("accessor mismatch")
	}
}

func TestUnitPoolZeroLatency(t *testing.T) {
	p := NewUnitPool(1, 0)
	r, ok := p.TryStart(5)
	if !ok || r != 5 {
		t.Fatalf("zero-latency result at %d, want 5", r)
	}
}

func TestIndicatorTable(t *testing.T) {
	tab := NewIndicatorTable(16)
	if tab.Len() != 16 {
		t.Fatal("length mismatch")
	}
	if tab.Get(3) != EncUncompressed {
		t.Fatal("default encoding must be uncompressed")
	}
	tab.Set(3, Enc41)
	if tab.Get(3) != Enc41 || tab.Get(4) != EncUncompressed {
		t.Fatal("set/get mismatch")
	}
}
