package sim

import (
	"testing"

	"repro/internal/asm"
	"repro/internal/cfg"
	"repro/internal/core"
	"repro/internal/isa"
)

// steadySrc is a long uniform loop touching the ALU, the compressor path
// and global memory in both directions, so the measured steps exercise the
// full issue/execute/writeback machinery.
const steadySrc = `
	mov  r0, %tid.x
	shl  r1, r0, 2
	mov  r2, 0
Lloop:
	ld.global r3, [r1]
	add  r3, r3, 1
	st.global [r1], r3
	add  r2, r2, 1
	setp.lt p0, r2, 1000000
@p0	bra Lloop
	exit
`

// steadyBoundedSrc is steadySrc with a bounded loop over one cell per
// grid thread, so it can be recorded: no warp loads a cell another warp
// stores.
const steadyBoundedSrc = `
	mov  r0, %tid.x
	mad  r1, %ctaid.x, %ntid.x, r0
	shl  r1, r1, 2
	mov  r2, 0
Lloop:
	ld.global r3, [r1]
	add  r3, r3, 1
	st.global [r1], r3
	add  r2, r2, 1
	setp.lt p0, r2, 1000
@p0	bra Lloop
	exit
`

// saturatingSrc keeps the memory pipe full: every load is uncoalesced (one
// 128-byte segment per lane, 32 transactions) and walks a 1 MB window the
// L1 cannot hold, so eight warps demand four times the pipe's 64 slots.
// The SM spends the window in full-pipe TryIssue failures, sleeping until
// RoomAt and settling on wake.
const saturatingSrc = `
	mov  r0, %tid.x
	mad  r1, %ctaid.x, %ntid.x, r0
	shl  r1, r1, 7
	mov  r2, 0
Lloop:
	shl  r5, r2, 13
	add  r6, r1, r5
	and  r6, r6, 1048575
	ld.global r3, [r6]
	add  r2, r2, 1
	setp.lt p0, r2, 1000000
@p0	bra Lloop
	exit
`

// TestSteadyStateStepAllocFree pins down the tentpole property of the
// scratch-arena work: once the pools are warm, an SM cycle (pipeline
// advance + issue + register-file tick, or a skipped cycle of a sleeping
// SM) performs zero heap allocations, in execute mode and in replay mode.
// The pipe-saturating case must also show full-pipe retries, sleep entries
// and settles inside the measured window, so the event-driven stall path
// is what gets measured.
func TestSteadyStateStepAllocFree(t *testing.T) {
	for _, tc := range []struct {
		name      string
		src       string
		saturated bool
		replay    bool
	}{
		{"mixed", steadySrc, false, false},
		{"pipe-saturating", saturatingSrc, true, false},
		{"replay", steadyBoundedSrc, false, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			c := testConfig()
			c.NumSMs = 1
			g, err := New(c)
			if err != nil {
				t.Fatalf("New: %v", err)
			}
			k, err := asm.Assemble("steady", tc.src)
			if err != nil {
				t.Fatalf("Assemble: %v", err)
			}
			if err := cfg.ComputeReconvergence(k); err != nil {
				t.Fatalf("ComputeReconvergence: %v", err)
			}
			l := isa.Launch{Kernel: k, Grid: isa.Dim3{X: 4}, Block: isa.Dim3{X: 64}}
			if err := l.Validate(); err != nil {
				t.Fatalf("Validate: %v", err)
			}
			if tc.replay {
				gRec, err := New(c)
				if err != nil {
					t.Fatalf("New: %v", err)
				}
				_, lt, err := gRec.Record(l)
				if err != nil {
					t.Fatalf("Record: %v", err)
				}
				g.rp, l = newReplayRun(lt)
			}

			sm := g.sms[0]
			sm.reset(l)
			nextCTA := 0
			cycle := uint64(0)
			var blocked, skipped, settled int
			step := func() {
				cycle++
				if nextCTA < l.NumCTAs() && sm.tryLaunchCTA(nextCTA, cycle) {
					nextCTA++
				}
				// The shard worker's loop: skip the cycles of a
				// sleeping SM, step the rest.
				if sm.asleep(cycle) {
					skipped++
				} else {
					if sm.wakeAt != 0 {
						settled++
					}
					sm.step(cycle)
				}
				if sm.err != nil {
					t.Fatalf("cycle %d: %v", cycle, sm.err)
				}
				for _, f := range sm.inflight {
					if f.stage == stExecStart && f.l1Checked {
						blocked++ // a TryIssue failed on a full pipe
						break
					}
				}
				// The epoch barrier the GPU loop would run: drain the
				// commit log every cycle (SMEpoch=1) so its steady-state
				// cost — append into a warm slice, overlay clear,
				// Store32 — is measured too.
				sm.commitMemLog()
			}
			// Warm-up: grow every pool and scratch buffer to
			// steady-state size.
			for i := 0; i < 2000; i++ {
				step()
			}
			if !sm.busy() {
				t.Fatal("kernel drained during warm-up; steady-state window too short")
			}
			blocked, skipped, settled = 0, 0, 0
			if allocs := testing.AllocsPerRun(500, step); allocs != 0 {
				t.Fatalf("steady-state SM step allocates %.1f objects/cycle, want 0", allocs)
			}
			if !sm.busy() {
				t.Fatal("kernel drained during measurement; steady-state window too short")
			}
			t.Logf("measured window: %d full-pipe cycles, %d skipped, %d settles", blocked, skipped, settled)
			if tc.saturated && (blocked == 0 || skipped == 0 || settled == 0) {
				t.Fatalf("measured window missed the stall path: %d full-pipe cycles, %d skipped, %d settles", blocked, skipped, settled)
			}
		})
	}
}

// TestChooseEncMemo proves the encoding memo actually short-circuits the
// scan: a deliberately poisoned cache entry is returned verbatim on the
// unchanged-value path, and repaired as soon as the value changes or the
// entry is invalidated.
func TestChooseEncMemo(t *testing.T) {
	comp, err := core.NewCompressor(core.DefaultScheme)
	if err != nil {
		t.Fatal(err)
	}
	s := &SM{gpu: &GPU{comp: comp, policy: core.ModeWarped}}
	w := newWarp(0, 0, 0, 0, isa.WarpSize, 8, 1)
	const dst = isa.Reg(3)

	res := execResult{dstVals: new(core.WarpReg)}
	for i := range res.dstVals {
		res.dstVals[i] = uint32(100 + i) // stride 1: classifies as <4,1>
	}
	res.unchanged = true

	// First classification populates the cache even on the unchanged path.
	want := core.ModeWarped.Choose(res.dstVals)
	if got := s.chooseEnc(w, dst, &res); got != want {
		t.Fatalf("cold chooseEnc = %v, want %v", got, want)
	}
	if w.encValid&(1<<dst) == 0 {
		t.Fatal("cache entry not marked valid after classification")
	}

	// Poison the entry: an unchanged value must hit the memo, not rescan.
	w.encCache[dst] = core.EncUncompressed
	if got := s.chooseEnc(w, dst, &res); got != core.EncUncompressed {
		t.Fatalf("unchanged value rescanned (got %v); memo not consulted", got)
	}

	// A changed value bypasses the memo and repairs the entry.
	res.unchanged = false
	if got := s.chooseEnc(w, dst, &res); got != want {
		t.Fatalf("changed value chooseEnc = %v, want %v", got, want)
	}
	if w.encCache[dst] != want {
		t.Fatalf("cache not repaired: %v, want %v", w.encCache[dst], want)
	}

	// Invalidation (applyFaults clears the bit on corruption) forces a
	// rescan even when the value is unchanged.
	res.unchanged = true
	w.encValid &^= 1 << dst
	w.encCache[dst] = core.EncUncompressed
	if got := s.chooseEnc(w, dst, &res); got != want {
		t.Fatalf("invalidated entry chooseEnc = %v, want %v", got, want)
	}
}
