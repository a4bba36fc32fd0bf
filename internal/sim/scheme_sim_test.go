package sim

import (
	"bytes"
	"testing"

	"repro/internal/core"
	"repro/internal/isa"
)

// TestSchemeShardInvariance extends the per-cycle-commit determinism oracle
// across the compression backends: for every registered scheme the atomic
// hammer must produce byte-identical result documents at every SM shard
// count. (Per-scheme replay==execute is covered by TestReplayMatchesExecute
// via replayTestConfigs.)
func TestSchemeShardInvariance(t *testing.T) {
	for _, scheme := range core.Schemes() {
		t.Run(scheme, func(t *testing.T) {
			var want []byte
			for _, shards := range []int{1, 4} {
				c := shardConfig()
				c.Compression = scheme
				c.SMParallel = shards
				g, err := New(c)
				if err != nil {
					t.Fatal(err)
				}
				res, err := g.Run(shardHammerLaunch(t))
				if err != nil {
					t.Fatalf("SMParallel=%d: %v", shards, err)
				}
				rb := resultBytes(t, res)
				if want == nil {
					want = rb
					continue
				}
				if !bytes.Equal(rb, want) {
					t.Errorf("scheme %s: SMParallel=%d result diverged from SMParallel=1", scheme, shards)
				}
			}
		})
	}
}

// TestChooseEncMemoSchemeSwap is the cross-scheme memo regression: an
// encoding cached for a warp under one backend must never be served once
// the warp is classified by a different backend (encoding classes mean
// different patterns per scheme), and swapping back must rescan again.
func TestChooseEncMemoSchemeSwap(t *testing.T) {
	bdi, err := core.NewCompressor("bdi")
	if err != nil {
		t.Fatal(err)
	}
	fpc, err := core.NewCompressor("fpc")
	if err != nil {
		t.Fatal(err)
	}
	sBDI := &SM{gpu: &GPU{comp: bdi, policy: core.ModeWarped}}
	sFPC := &SM{gpu: &GPU{comp: fpc, policy: core.ModeWarped}}
	w := newWarp(0, 0, 0, 0, isa.WarpSize, 8, 1)
	const dst = isa.Reg(3)

	res := execResult{dstVals: new(core.WarpReg)}
	for i := range res.dstVals {
		// Stride 1 from base 100: BDI packs it as a 1-byte-delta class,
		// but lanes 28..31 exceed int8 so FPC's narrow class rejects it —
		// the two schemes must classify this vector differently.
		res.dstVals[i] = uint32(100 + i)
	}
	res.unchanged = true

	wantB := bdi.Choose(int(dst), res.dstVals, core.ModeWarped)
	wantF := fpc.Choose(int(dst), res.dstVals, core.ModeWarped)
	if wantB == wantF {
		t.Fatalf("test vector does not distinguish schemes (both %v)", wantB)
	}

	if got := sBDI.chooseEnc(w, dst, &res); got != wantB {
		t.Fatalf("bdi chooseEnc = %v, want %v", got, wantB)
	}
	// Same warp object handed to a different backend: the bdi entry is
	// valid and the value unchanged, but it must NOT be served.
	if got := sFPC.chooseEnc(w, dst, &res); got != wantF {
		t.Fatalf("fpc served stale bdi memo: got %v, want %v", got, wantF)
	}
	// And back again: the fpc entry must not leak into bdi either.
	if got := sBDI.chooseEnc(w, dst, &res); got != wantB {
		t.Fatalf("bdi served stale fpc memo: got %v, want %v", got, wantB)
	}
}
