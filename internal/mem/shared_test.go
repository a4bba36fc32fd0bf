package mem

import (
	"math/rand"
	"testing"

	"repro/internal/isa"
)

func fullMask() uint32 { return 0xFFFFFFFF }

// TestSharedBroadcast: all 32 lanes reading one word is a single-phase,
// single-fetch broadcast — no serialization, 31 piggybacking lanes.
func TestSharedBroadcast(t *testing.T) {
	var addrs [isa.WarpSize]uint32
	for i := range addrs {
		addrs[i] = 128
	}
	a := AnalyzeShared(&addrs, fullMask(), 4)
	if a.Phases != 1 || a.Words != 1 || a.BroadcastHits != 31 {
		t.Fatalf("broadcast = %+v, want {Phases:1 Words:1 BroadcastHits:31}", a)
	}
}

// TestSharedInactiveLanes: masked-off lanes contribute nothing, even when
// their (stale) addresses would conflict with active lanes.
func TestSharedInactiveLanes(t *testing.T) {
	var addrs [isa.WarpSize]uint32
	for i := range addrs {
		addrs[i] = uint32(i) * SharedBanks * 4 // all map to bank 0: worst case
	}
	// Only lanes 0 and 1 active: two distinct words on bank 0.
	a := AnalyzeShared(&addrs, 0b11, 4)
	if a.Phases != 2 || a.Words != 2 || a.BroadcastHits != 0 {
		t.Fatalf("two active lanes = %+v, want {Phases:2 Words:2 BroadcastHits:0}", a)
	}
	// No lanes active: Phases stays 1 so (Phases-1) adds zero cycles.
	a = AnalyzeShared(&addrs, 0, 4)
	if a.Phases != 1 || a.Words != 0 || a.BroadcastHits != 0 {
		t.Fatalf("empty mask = %+v, want {Phases:1 Words:0 BroadcastHits:0}", a)
	}
}

// TestSharedWorstCase: 32 lanes, 32 distinct words, one bank — fully
// serialized.
func TestSharedWorstCase(t *testing.T) {
	var addrs [isa.WarpSize]uint32
	for i := range addrs {
		addrs[i] = uint32(i) * SharedBanks * 4
	}
	a := AnalyzeShared(&addrs, fullMask(), 4)
	if a.Phases != 32 || a.Words != 32 || a.BroadcastHits != 0 {
		t.Fatalf("32-way conflict = %+v, want {Phases:32 Words:32 BroadcastHits:0}", a)
	}
}

// TestSharedUnitStride: the canonical conflict-free pattern — 32 consecutive
// words hit 32 distinct banks in one phase.
func TestSharedUnitStride(t *testing.T) {
	var addrs [isa.WarpSize]uint32
	for i := range addrs {
		addrs[i] = uint32(i) * 4
	}
	a := AnalyzeShared(&addrs, fullMask(), 4)
	if a.Phases != 1 || a.Words != 32 || a.BroadcastHits != 0 {
		t.Fatalf("unit stride = %+v, want {Phases:1 Words:32 BroadcastHits:0}", a)
	}
}

// TestShared64Bit: a 64-bit lane access spans two consecutive banks. Unit
// stride-8 covers all 64 words of two full bank rows (two phases); a 64-bit
// broadcast costs exactly two fetches.
func TestShared64Bit(t *testing.T) {
	var addrs [isa.WarpSize]uint32
	for i := range addrs {
		addrs[i] = uint32(i) * 8
	}
	a := AnalyzeShared(&addrs, fullMask(), 8)
	if a.Phases != 2 || a.Words != 64 || a.BroadcastHits != 0 {
		t.Fatalf("64-bit unit stride = %+v, want {Phases:2 Words:64 BroadcastHits:0}", a)
	}
	for i := range addrs {
		addrs[i] = 256
	}
	a = AnalyzeShared(&addrs, fullMask(), 8)
	if a.Phases != 1 || a.Words != 2 || a.BroadcastHits != 62 {
		t.Fatalf("64-bit broadcast = %+v, want {Phases:1 Words:2 BroadcastHits:62}", a)
	}
}

// TestSharedWidthGuard: the model accepts exactly the two widths the bank
// layout defines; anything else is a programming error at the API boundary.
func TestSharedWidthGuard(t *testing.T) {
	var addrs [isa.WarpSize]uint32
	defer func() {
		if recover() == nil {
			t.Fatal("AnalyzeShared accepted a 16-byte access width")
		}
	}()
	AnalyzeShared(&addrs, fullMask(), 16)
}

// TestSharedPhasesBoundWords: phases can never exceed distinct words, and
// bank accesses plus broadcasts always account for every active lane request.
func TestSharedPhasesBoundWords(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	for trial := 0; trial < 200; trial++ {
		var addrs [isa.WarpSize]uint32
		for i := range addrs {
			addrs[i] = uint32(r.Intn(64)) * 4
		}
		mask := r.Uint32()
		a := AnalyzeShared(&addrs, mask, 4)
		active := 0
		for lane := 0; lane < isa.WarpSize; lane++ {
			if mask&(1<<lane) != 0 {
				active++
			}
		}
		if a.Words+a.BroadcastHits != active {
			t.Fatalf("trial %d: %d words + %d broadcasts != %d active lanes", trial, a.Words, a.BroadcastHits, active)
		}
		if a.Words > 0 && a.Phases > a.Words {
			t.Fatalf("trial %d: %d phases exceed %d distinct words", trial, a.Phases, a.Words)
		}
	}
}
