package mem

import (
	"fmt"

	"repro/internal/isa"
)

// Shared-memory bank model: Fermi-class shared memory is organized as 32
// banks with successive 4-byte words mapped to successive banks. A warp
// access that maps two or more distinct words onto one bank serializes into
// that many phases; lanes requesting the same word are served by a single
// fetch and broadcast (conflict-free, regardless of how many lanes share
// it).
const (
	// SharedBanks is the number of shared-memory banks.
	SharedBanks = 32
	// SharedWordBytes is the bank interleave granularity: one 4-byte word
	// per bank per phase.
	SharedWordBytes = 4
)

// SharedAccess summarizes the bank-level behaviour of one warp shared-memory
// access. All three counts are pure functions of the lane addresses and the
// active mask — independent of timing configuration, which is what lets
// record mode capture them and replay mode reproduce them exactly.
type SharedAccess struct {
	// Phases is the number of serialized access phases: the maximum number
	// of distinct words mapped onto one bank. 1 when the access is
	// conflict-free — and also when no lane is active, so callers can add
	// (Phases-1) serialization cycles unconditionally.
	Phases int
	// Words is the number of distinct words fetched — the bank row
	// activations the access costs across all its phases.
	Words int
	// BroadcastHits counts lane word-requests served by another lane's
	// fetch of the same word (total word-requests minus distinct words).
	BroadcastHits int
}

// AnalyzeShared models one warp shared-memory access against the 32-bank
// layout. accessBytes is the per-lane access width: 4 for the ISA's 32-bit
// ld.shared/st.shared, 8 for a 64-bit access, which occupies two consecutive
// banks (its two words are deduplicated and counted independently, so a
// 64-bit broadcast still costs exactly two bank rows). Other widths are a
// programming error. addrs must be word aligned for the lanes selected by
// mask; the implementation uses only fixed-size stack buffers, so the
// per-instruction hot path performs no heap allocation.
func AnalyzeShared(addrs *[isa.WarpSize]uint32, mask uint32, accessBytes int) SharedAccess {
	if accessBytes != 4 && accessBytes != 8 {
		panic(fmt.Sprintf("mem: shared access width %d bytes (want 4 or 8)", accessBytes))
	}
	wordsPerLane := accessBytes / SharedWordBytes
	// A word's value determines its bank, so deduplicating words globally
	// and counting occupancy per bank is equivalent to keeping per-bank
	// word lists — and needs only fixed-size stack arrays.
	var seen [2 * isa.WarpSize]uint32
	var count [SharedBanks]uint8
	var a SharedAccess
	n := 0
	requests := 0
	for lane := 0; lane < isa.WarpSize; lane++ {
		if mask&(1<<lane) == 0 {
			continue
		}
		w0 := addrs[lane] / SharedWordBytes
		for k := 0; k < wordsPerLane; k++ {
			word := w0 + uint32(k)
			requests++
			dup := false
			for _, w := range seen[:n] {
				if w == word {
					dup = true
					break
				}
			}
			if dup {
				continue
			}
			seen[n] = word
			n++
			b := word % SharedBanks
			count[b]++
			if int(count[b]) > a.Phases {
				a.Phases = int(count[b])
			}
		}
	}
	a.Words = n
	a.BroadcastHits = requests - n
	if a.Phases == 0 {
		a.Phases = 1
	}
	return a
}
