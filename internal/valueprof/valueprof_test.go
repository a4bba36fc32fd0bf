package valueprof

import (
	"testing"
	"testing/quick"

	"repro/internal/core"
	"repro/internal/stats"
)

func affine(base, stride int32) *core.WarpReg {
	var w core.WarpReg
	for i := range w {
		w[i] = uint32(base + int32(i)*stride)
	}
	return &w
}

func TestDistance(t *testing.T) {
	if Distance(5, 5) != 0 || Distance(5, 7) != 2 || Distance(7, 5) != 2 {
		t.Fatal("small distances")
	}
	if Distance(0, 0xFFFFFFFF) != 1 {
		t.Fatal("distance of 0 and -1 must be 1")
	}
	// INT_MIN vs INT_MAX: |(-2^31) - (2^31-1)| = 2^32-1, no overflow.
	if Distance(0x80000000, 0x7FFFFFFF) != (1<<32)-1 {
		t.Fatal("extreme distance overflowed")
	}
}

func TestBinOf(t *testing.T) {
	cases := []struct {
		name string
		vals *core.WarpReg
		want stats.Bin
	}{
		{"uniform", affine(42, 0), stats.BinZero},
		{"stride1", affine(0, 1), stats.Bin128},
		{"stride128", affine(0, 128), stats.Bin128},
		{"stride129", affine(0, 129), stats.Bin32K},
		{"stride32768", affine(0, 32768), stats.Bin32K},
		{"stride32769", affine(0, 32769), stats.BinRandom},
	}
	for _, c := range cases {
		if got := BinOf(c.vals); got != c.want {
			t.Errorf("%s: bin %v, want %v", c.name, got, c.want)
		}
	}
	// One bad pair dominates: the write is classified by its worst pair.
	w := affine(0, 1)
	w[17] = 1 << 30
	if got := BinOf(w); got != stats.BinRandom {
		t.Errorf("outlier pair: bin %v, want random", got)
	}
}

func TestExplorerChoice(t *testing.T) {
	if got := ExplorerChoice(affine(7, 0)); ChoiceName(got) != "<4,0>" {
		t.Errorf("uniform chose %s", ChoiceName(got))
	}
	if got := ExplorerChoice(affine(1000, 4)); ChoiceName(got) != "<4,1>" {
		t.Errorf("stride-4 chose %s", ChoiceName(got))
	}
	if got := ExplorerChoice(affine(0, 300)); ChoiceName(got) != "<4,2>" {
		t.Errorf("stride-300 chose %s", ChoiceName(got))
	}
	var random core.WarpReg
	for i := range random {
		random[i] = uint32(i) * 0x9E3779B9
	}
	if got := ExplorerChoice(&random); got != UncompressedChoice {
		t.Errorf("random data chose %s", ChoiceName(got))
	}
	if ChoiceName(UncompressedChoice) != "uncompressed" {
		t.Error("choice name for uncompressed slot")
	}
}

// TestChoiceInRange: the histogram slot is always valid.
func TestChoiceInRange(t *testing.T) {
	f := func(w core.WarpReg) bool {
		c := ExplorerChoice(&w)
		return c >= 0 && c < stats.NumExplorerChoices
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 1000}); err != nil {
		t.Fatal(err)
	}
}

// TestBinConsistentWithCompressibility: a write in the zero bin is always
// <4,0>-compressible with the warp's first lane as base... only when all
// lanes are equal; check that BinZero implies Enc40.
func TestBinConsistentWithCompressibility(t *testing.T) {
	f := func(w core.WarpReg) bool {
		if BinOf(&w) == stats.BinZero {
			return core.ChooseBDI(&w) == core.Enc40
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 1000}); err != nil {
		t.Fatal(err)
	}
}
