package regfile

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/core"
)

func gatedFile() *File {
	return New(Config{GatingEnabled: true, WakeupLatency: 10})
}

func plainFile() *File {
	return New(Config{})
}

func TestRegIDMapping(t *testing.T) {
	// Registers of one warp are consecutive ids; clusters interleave.
	if RegID(0, 0, 20) != 0 || RegID(0, 19, 20) != 19 || RegID(1, 0, 20) != 20 {
		t.Fatal("RegID mapping")
	}
	if !FitsWarps(48, 21) {
		t.Fatal("48 warps x 21 regs = 1008 must fit in 1024")
	}
	if FitsWarps(48, 22) {
		t.Fatal("48 warps x 22 regs = 1056 must not fit")
	}
}

// TestClusterAssignment: a register's banks all live in one 8-bank cluster,
// and the cluster cycles with the register id.
func TestClusterAssignment(t *testing.T) {
	f := plainFile()
	var buf [BanksPerCluster]int
	for id := 0; id < 16; id++ {
		f.CommitWrite(id, core.EncUncompressed, true, 1)
		banks := f.ReadBanks(id, 0xFFFFFFFF, buf[:0])
		if len(banks) != 8 {
			t.Fatalf("id %d: %d banks", id, len(banks))
		}
		wantCluster := id % NumClusters
		for _, b := range banks {
			if b/BanksPerCluster != wantCluster {
				t.Fatalf("id %d: bank %d outside cluster %d", id, b, wantCluster)
			}
		}
	}
}

func TestCompressedReadBanks(t *testing.T) {
	f := plainFile()
	var buf [BanksPerCluster]int
	cases := map[core.Encoding]int{core.Enc40: 1, core.Enc41: 3, core.Enc42: 5, core.EncUncompressed: 8}
	id := 4 // cluster 0
	for enc, want := range cases {
		f.CommitWrite(id, enc, true, 1)
		banks := f.ReadBanks(id, 0xFFFFFFFF, buf[:0])
		if len(banks) != want {
			t.Fatalf("%s: %d banks, want %d", enc, len(banks), want)
		}
		// Compressed data packs into the lowest banks of the cluster.
		for i, b := range banks {
			if b != i {
				t.Fatalf("%s: bank[%d] = %d, want %d (lowest-first)", enc, i, b, i)
			}
		}
	}
}

func TestPartialLaneBanks(t *testing.T) {
	f := plainFile()
	var buf [BanksPerCluster]int
	id := 0
	f.CommitWrite(id, core.EncUncompressed, true, 1)
	// Only lanes 0-3 active: one bank read.
	if banks := f.ReadBanks(id, 0x0000000F, buf[:0]); len(banks) != 1 {
		t.Fatalf("lanes 0-3: %d banks, want 1", len(banks))
	}
	// Lanes 0 and 31: banks 0 and 7.
	banks := f.ReadBanks(id, 0x80000001, buf[:0])
	if len(banks) != 2 || banks[0] != 0 || banks[1] != 7 {
		t.Fatalf("lanes 0,31: %v", banks)
	}
	// Divergent write to an uncompressed register: active-lane banks only.
	wb := f.WriteBanks(id, core.EncUncompressed, 0x000000F0, false, buf[:0])
	if len(wb) != 1 || wb[0] != 1 {
		t.Fatalf("divergent write banks: %v", wb)
	}
}

func TestReadBeforeWriteCounted(t *testing.T) {
	f := plainFile()
	var buf [BanksPerCluster]int
	if banks := f.ReadBanks(7, 0xFFFFFFFF, buf[:0]); len(banks) != 0 {
		t.Fatal("unwritten register read should access no banks")
	}
	if s := f.Snapshot(); s.ReadBeforeWrite != 1 {
		t.Fatalf("ReadBeforeWrite = %d", s.ReadBeforeWrite)
	}
}

func TestGatingLifecycle(t *testing.T) {
	f := gatedFile()
	// All banks start gated.
	if got := f.BankReady(0, 100); got != 110 {
		t.Fatalf("gated bank ready at %d, want 110 (10-cycle wakeup)", got)
	}
	// Waking bank reports the same deadline.
	if got := f.BankReady(0, 105); got != 110 {
		t.Fatalf("waking bank ready at %d, want 110", got)
	}
	// After Tick past the deadline the bank is on.
	f.Tick(110)
	if got := f.BankReady(0, 111); got != 111 {
		t.Fatalf("woken bank ready at %d, want 111", got)
	}
}

func TestGatingOnLastInvalid(t *testing.T) {
	f := gatedFile()
	id := 0 // cluster 0, entry 0
	// Wake and fill as <4,2> (banks 0-4 valid), then shrink to <4,0>:
	// banks 1-4 lose their only entry and must gate again.
	for b := 0; b < 5; b++ {
		f.BankReady(b, 0)
		f.Tick(10)
	}
	f.CommitWrite(id, core.Enc42, true, 11)
	f.CommitWrite(id, core.Enc40, true, 20)
	// Bank 1 should now be gated: an access needs a wakeup.
	if got := f.BankReady(1, 30); got != 40 {
		t.Fatalf("shrunk bank ready at %d, want 40", got)
	}
	// Bank 0 still holds the entry: immediately ready.
	if got := f.BankReady(0, 30); got != 30 {
		t.Fatalf("live bank ready at %d, want 30", got)
	}
}

func TestNoGatingWhenDisabled(t *testing.T) {
	f := plainFile()
	id := 0
	f.CommitWrite(id, core.EncUncompressed, true, 1)
	f.FreeWarp(0, 1, 2)
	// Without gating every bank keeps running: ready immediately.
	if got := f.BankReady(0, 5); got != 5 {
		t.Fatalf("ungated bank ready at %d, want 5", got)
	}
	f.Tick(3)
	if s := f.Snapshot(); s.PoweredBankCycles != NumBanks {
		t.Fatalf("powered cycles %d, want %d", s.PoweredBankCycles, NumBanks)
	}
}

// TestTickSpanMatchesTick: bulk-ticking a quiet window must leave every
// counter exactly where one Tick per cycle leaves it — across gated,
// waking and powered banks, drowsy thresholds that fall before, inside and
// after the window, and windows that end just before a bank wakes.
func TestTickSpanMatchesTick(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 200; trial++ {
		cfg := Config{GatingEnabled: rng.Intn(2) == 0, WakeupLatency: rng.Intn(30), DrowsyAfter: rng.Intn(3) * rng.Intn(40)}
		a, b := New(cfg), New(cfg)
		// Identical random history on both files.
		now := uint64(1)
		for op := 0; op < 60; op++ {
			now += uint64(rng.Intn(5))
			id := rng.Intn(64)
			enc := core.Encoding(rng.Intn(int(core.NumEncodings)))
			var buf [BanksPerCluster]int
			for _, f := range []*File{a, b} {
				for _, bank := range f.WriteBanks(id, enc, ^uint32(0), true, buf[:0]) {
					f.BankReady(bank, now)
					f.CountWrite(bank, now)
				}
				f.CommitWrite(id, enc, true, now)
				f.Tick(now)
			}
		}
		// A quiet window: per-cycle ticks on a, one span on b.
		from := now + 1
		to := from + uint64(rng.Intn(120))
		if w := a.NextWake(); w <= to {
			to = w - 1
		}
		for c := from; c <= to; c++ {
			a.Tick(c)
		}
		b.TickSpan(from, to)
		if a.Snapshot() != b.Snapshot() || a.banks != b.banks {
			t.Fatalf("trial %d (%+v, window %d..%d): TickSpan diverged from per-cycle Tick\n tick: %+v\n span: %+v",
				trial, cfg, from, to, a.Snapshot(), b.Snapshot())
		}
	}
}

func TestNextWake(t *testing.T) {
	f := gatedFile()
	if got := f.NextWake(); got != math.MaxUint64 {
		t.Fatalf("no waking bank: NextWake = %d, want never", got)
	}
	f.BankReady(3, 100)
	f.BankReady(7, 95)
	if got := f.NextWake(); got != 105 {
		t.Fatalf("NextWake = %d, want 105 (bank 7 woken at 95)", got)
	}
	f.Tick(105)
	if got := f.NextWake(); got != 110 {
		t.Fatalf("after bank 7 turned on: NextWake = %d, want 110", got)
	}
}

func TestGatedCycleAccounting(t *testing.T) {
	f := gatedFile()
	// Wake bank 0 at cycle 50: 50 gated cycles accumulate.
	f.BankReady(0, 50)
	f.Finish(100)
	s := f.Snapshot()
	if s.PerBankGatedCycles[0] != 50 {
		t.Fatalf("bank0 gated cycles %d, want 50", s.PerBankGatedCycles[0])
	}
	// Bank 1 stayed gated the whole time.
	if s.PerBankGatedCycles[1] != 100 {
		t.Fatalf("bank1 gated cycles %d, want 100", s.PerBankGatedCycles[1])
	}
}

func TestOccupancyCensus(t *testing.T) {
	f := plainFile()
	if err := f.AllocWarp(0, 10); err != nil {
		t.Fatal(err)
	}
	f.CommitWrite(RegID(0, 0, 10), core.Enc41, true, 1)
	f.CommitWrite(RegID(0, 1, 10), core.EncUncompressed, true, 1)
	written, compressed, allocated := f.Occupancy()
	if written != 2 || compressed != 1 || allocated != 10 {
		t.Fatalf("census %d/%d/%d, want 2/1/10", written, compressed, allocated)
	}
	// Recompressing the uncompressed register updates the census.
	f.CommitWrite(RegID(0, 1, 10), core.Enc40, true, 2)
	if _, compressed, _ = f.Occupancy(); compressed != 2 {
		t.Fatalf("compressed %d after recompress, want 2", compressed)
	}
	f.FreeWarp(0, 10, 3)
	written, compressed, allocated = f.Occupancy()
	if written != 0 || compressed != 0 || allocated != 0 {
		t.Fatalf("census after free %d/%d/%d", written, compressed, allocated)
	}
}

func TestDivergentWritePanicsWhenCompressed(t *testing.T) {
	f := plainFile()
	defer func() {
		if recover() == nil {
			t.Fatal("partial compressed write must panic")
		}
	}()
	f.CommitWrite(0, core.Enc41, false, 1)
}

func TestAllocOverflow(t *testing.T) {
	f := plainFile()
	if err := f.AllocWarp(60, 20); err == nil {
		t.Fatal("slot 60 x 20 regs exceeds capacity; must fail")
	}
}

// TestValidBitInvariant: per bank, validCount always equals the number of
// set valid bits, across random commit/free sequences.
func TestValidBitInvariant(t *testing.T) {
	f := gatedFile()
	type op struct {
		ID   uint16
		Enc  uint8
		Free bool
	}
	now := uint64(1)
	run := func(ops []op) bool {
		for _, o := range ops {
			id := int(o.ID) % Capacity
			now++
			if o.Free {
				slot := id % 64
				f.FreeWarp(slot, 16, now)
				continue
			}
			enc := core.Encoding(o.Enc % 4)
			// Wake target banks first, as the pipeline does.
			var buf [BanksPerCluster]int
			for _, b := range f.WriteBanks(id, enc, 0xFFFFFFFF, true, buf[:0]) {
				f.BankReady(b, now)
			}
			f.Tick(now + 20)
			now += 21
			f.CommitWrite(id, enc, true, now)
		}
		// Check the invariant via Snapshot side effects: recount valid bits.
		for b := 0; b < NumBanks; b++ {
			count := 0
			for e := 0; e < EntriesPerBank; e++ {
				if f.banks[b].valid[e] {
					count++
				}
			}
			if count != f.banks[b].validCount {
				return false
			}
		}
		return true
	}
	if err := quick.Check(run, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// TestRedirectPlacement: with RRCD redirection, a compressed register's
// slices land in the cluster's healthy banks first; without it, placement
// stays physical even when a bank is stuck.
func TestRedirectPlacement(t *testing.T) {
	id := 0 // cluster 0: banks 0..7; banks 1 and 2 are stuck
	var buf [BanksPerCluster]int

	r := New(Config{FaultyBanks: []int{1, 2}, RedirectCompressed: true})
	r.CommitWrite(id, core.Enc41, true, 1) // needs 3 banks
	banks := r.ReadBanks(id, 0xFFFFFFFF, buf[:0])
	want := []int{0, 3, 4} // healthy-first order skips 1 and 2
	if len(banks) != len(want) {
		t.Fatalf("redirected banks %v, want %v", banks, want)
	}
	for i := range want {
		if banks[i] != want[i] {
			t.Fatalf("redirected banks %v, want %v", banks, want)
		}
	}

	n := New(Config{FaultyBanks: []int{1, 2}})
	n.CommitWrite(id, core.Enc41, true, 1)
	banks = n.ReadBanks(id, 0xFFFFFFFF, buf[:0])
	for i, b := range []int{0, 1, 2} {
		if banks[i] != b {
			t.Fatalf("unredirected banks %v, want [0 1 2]", banks)
		}
	}
}

// TestRedirectSpill: when a cluster has fewer healthy banks than the
// encoding needs, the overflow spills into faulty banks (last in order)
// rather than panicking or leaving slices unplaced.
func TestRedirectSpill(t *testing.T) {
	// 6 of cluster 0's 8 banks are stuck; Enc42 needs 5.
	f := New(Config{FaultyBanks: []int{0, 1, 2, 3, 4, 5}, RedirectCompressed: true})
	var buf [BanksPerCluster]int
	f.CommitWrite(0, core.Enc42, true, 1)
	banks := f.ReadBanks(0, 0xFFFFFFFF, buf[:0])
	want := []int{6, 7, 0, 1, 2} // two healthy first, then faulty in order
	for i := range want {
		if banks[i] != want[i] {
			t.Fatalf("spill banks %v, want %v", banks, want)
		}
	}
}

// TestRedirectedWriteCount: only compressed writes whose default striping
// would have hit a faulty bank count as redirected.
func TestRedirectedWriteCount(t *testing.T) {
	f := New(Config{FaultyBanks: []int{6}, RedirectCompressed: true}) // cluster 0, local bank 6
	f.CommitWrite(0, core.Enc40, true, 1)                             // 1 bank: never reaches 6
	f.CommitWrite(0, core.Enc42, true, 2)                             // 5 banks: still short of 6
	if got := f.Snapshot().RedirectedWrites; got != 0 {
		t.Fatalf("RedirectedWrites = %d before any placement change", got)
	}
	g := New(Config{FaultyBanks: []int{1}, RedirectCompressed: true})
	g.CommitWrite(0, core.Enc41, true, 1) // 3 banks: default would hit bank 1
	g.CommitWrite(0, core.EncUncompressed, true, 2)
	if got := g.Snapshot().RedirectedWrites; got != 1 {
		t.Fatalf("RedirectedWrites = %d, want 1 (uncompressed writes never redirect)", got)
	}
}

// TestRedirectEncodingTransition: shrinking and growing a register across
// encodings under redirection keeps valid bits consistent — FreeWarp must
// leave the file completely empty afterwards.
func TestRedirectEncodingTransition(t *testing.T) {
	f := New(Config{GatingEnabled: true, FaultyBanks: []int{0, 9}, RedirectCompressed: true})
	if err := f.AllocWarp(0, 4); err != nil {
		t.Fatal(err)
	}
	for r := 0; r < 4; r++ {
		id := RegID(0, r, 4)
		f.CommitWrite(id, core.EncUncompressed, true, 1)
		f.CommitWrite(id, core.Enc42, true, 2)
		f.CommitWrite(id, core.Enc40, true, 3)
		f.CommitWrite(id, core.Enc41, true, 4)
	}
	f.FreeWarp(0, 4, 5)
	for i := range f.banks {
		if f.banks[i].validCount != 0 {
			t.Fatalf("bank %d holds %d valid entries after FreeWarp", i, f.banks[i].validCount)
		}
	}
	if f.numGated != NumBanks {
		t.Fatalf("%d banks gated after FreeWarp, want all %d", f.numGated, NumBanks)
	}
}
