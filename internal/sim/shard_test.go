package sim

import (
	"bytes"
	"testing"

	"repro/internal/asm"
	"repro/internal/core"
	"repro/internal/exectrace"
	"repro/internal/isa"
)

// shardHammerSrc is the cross-SM atomic hammer: every thread of every CTA
// loops over a handful of globally contended bins, atomically bumping one
// and storing each observed old value. With one CTA per SM the bins are
// hit from every shard every cycle — the worst case for the per-cycle
// commit, and therefore the sharpest determinism probe.
const shardHammerSrc = `
	mov  r0, %tid.x
	mad  r1, %ctaid.x, %ntid.x, r0
	and  r2, r1, 15
	shl  r3, r2, 2
	mov  r6, 0
Lloop:
	atom.add r4, [r3], 1
	shl  r5, r1, 2
	add  r5, r5, 256
	st.global [r5], r4
	add  r6, r6, 1
	setp.lt p0, r6, 8
@p0	bra Lloop
	exit
`

// shardConfig is testConfig at full SM count, so shard counts up to (and
// beyond) NumSMs are meaningful.
func shardConfig() Config {
	c := testConfig()
	c.NumSMs = 15
	return c
}

func shardHammerLaunch(t *testing.T) isa.Launch {
	t.Helper()
	k, err := asm.Assemble("shard-hammer", shardHammerSrc)
	if err != nil {
		t.Fatalf("Assemble: %v", err)
	}
	return isa.Launch{Kernel: k, Grid: isa.Dim3{X: 30}, Block: isa.Dim3{X: 64}}
}

// shardCounts spans the interesting shapes: sequential, uneven partition
// (15 SMs over 2 and 4 shards), one SM per shard, and oversubscribed
// (clamped back to NumSMs).
var shardCounts = []int{1, 2, 4, 15, 32}

// TestShardCountInvariance is the tentpole oracle: the warped.sim.result/v1
// bytes AND the final global-memory image must be identical at every shard
// count. The subtest is named for the commit epoch, which is one cycle: the
// barrier that ends every cycle commits every SM's log.
func TestShardCountInvariance(t *testing.T) {
	t.Run("epoch=1", func(t *testing.T) {
		var wantRes []byte
		var wantMem []int32
		for _, shards := range shardCounts {
			c := shardConfig()
			c.SMParallel = shards
			g, err := New(c)
			if err != nil {
				t.Fatal(err)
			}
			res, err := g.Run(shardHammerLaunch(t))
			if err != nil {
				t.Fatalf("SMParallel=%d: %v", shards, err)
			}
			mem, err := g.Mem().ReadInt32(0, 64+4*30*64)
			if err != nil {
				t.Fatal(err)
			}
			rb := resultBytes(t, res)
			if wantRes == nil {
				wantRes, wantMem = rb, mem
				continue
			}
			if !bytes.Equal(rb, wantRes) {
				t.Errorf("SMParallel=%d: result diverged from SMParallel=%d\n got %s\nwant %s",
					shards, shardCounts[0], rb, wantRes)
			}
			for i := range mem {
				if mem[i] != wantMem[i] {
					t.Fatalf("SMParallel=%d: memory word %d = %d, want %d", shards, i, mem[i], wantMem[i])
				}
			}
		}
	})
}

// TestShardCountInvarianceRecordReplay extends the oracle across trace
// modes: recording at any shard count must produce identical trace bytes
// and the execute-identical result, and that one trace must replay
// byte-identically at every shard count.
func TestShardCountInvarianceRecordReplay(t *testing.T) {
	var wantRes, wantTrace []byte
	var lt *exectrace.Launch
	for _, shards := range shardCounts {
		c := shardConfig()
		c.SMParallel = shards
		g, err := New(c)
		if err != nil {
			t.Fatal(err)
		}
		res, rec, err := g.Record(shardHammerLaunch(t))
		if err != nil {
			t.Fatalf("Record SMParallel=%d: %v", shards, err)
		}
		rb, tb := resultBytes(t, res), traceBytes(t, rec)
		if wantRes == nil {
			wantRes, wantTrace, lt = rb, tb, rec
			continue
		}
		if !bytes.Equal(rb, wantRes) {
			t.Errorf("record SMParallel=%d: result diverged", shards)
		}
		if !bytes.Equal(tb, wantTrace) {
			t.Errorf("record SMParallel=%d: trace bytes diverged", shards)
		}
	}
	for _, shards := range shardCounts {
		c := shardConfig()
		c.SMParallel = shards
		g, err := New(c)
		if err != nil {
			t.Fatal(err)
		}
		res, err := g.Replay(lt)
		if err != nil {
			t.Fatalf("Replay SMParallel=%d: %v", shards, err)
		}
		if !bytes.Equal(resultBytes(t, res), wantRes) {
			t.Errorf("replay SMParallel=%d: result diverged from execute", shards)
		}
	}
}

// TestShardFaultInjectionInvariance: the fault machinery is all per-SM
// state (seeded PRNGs, bank maps), so injected campaigns must also be
// byte-identical at every shard count — including campaigns whose bit
// flips corrupt an address register and crash the kernel, where the
// (cycle, SM) of the reported fault is the thing that must not move.
func TestShardFaultInjectionInvariance(t *testing.T) {
	var want string
	for _, shards := range shardCounts {
		c := shardConfig()
		c.SMParallel = shards
		c.Faults.Seed = 42
		c.Faults.StuckAtBanks = 1
		c.Faults.TransientPerM = 500
		g, err := New(c)
		if err != nil {
			t.Fatal(err)
		}
		res, err := g.Run(shardHammerLaunch(t))
		var got string
		if err != nil {
			got = "error: " + err.Error()
		} else {
			got = string(resultBytes(t, res))
		}
		if want == "" {
			want = got
		} else if got != want {
			t.Errorf("SMParallel=%d: faulty run diverged\n got %s\nwant %s", shards, got, want)
		}
	}
}

// shardFaultSrc makes SMs fail at CTA-dependent cycles: each CTA spins
// proportionally to its id, then stores out of bounds. The reported error
// must be the same (lowest cycle, then lowest SM id) at every shard count.
const shardFaultSrc = `
	mov  r2, 0
	shl  r3, %ctaid.x, 3
Lspin:
	add  r2, r2, 1
	setp.lt p0, r2, r3
@p0	bra Lspin
	mov  r4, 1048576
	st.global [r4], r2
	exit
`

// TestShardErrorDeterminism: runtime faults pick one winner — the
// lowest-cycle, lowest-SM error — identically at every shard count.
func TestShardErrorDeterminism(t *testing.T) {
	k, err := asm.Assemble("shard-fault", shardFaultSrc)
	if err != nil {
		t.Fatalf("Assemble: %v", err)
	}
	var want string
	for _, shards := range shardCounts {
		c := shardConfig()
		c.SMParallel = shards
		g, err := New(c)
		if err != nil {
			t.Fatal(err)
		}
		_, err = g.Run(isa.Launch{Kernel: k, Grid: isa.Dim3{X: 30}, Block: isa.Dim3{X: 64}})
		if err == nil {
			t.Fatalf("SMParallel=%d: out-of-bounds store did not fail", shards)
		}
		if want == "" {
			want = err.Error()
		} else if err.Error() != want {
			t.Errorf("SMParallel=%d: error %q, want %q", shards, err, want)
		}
	}
	if want == "" {
		t.Fatal("no error observed")
	}
}

// TestShardNegativeSMParallelRejected pins the Validate guard on the shard
// count.
func TestShardNegativeSMParallelRejected(t *testing.T) {
	c := DefaultConfig()
	c.SMParallel = -1
	if _, err := New(c); err == nil {
		t.Fatal("negative SMParallel accepted")
	}
}

// TestSMForwardsOwnStores pins how an SM's loads see its own stores before
// they commit: the last plain store to an address wins, a deferred
// atomic's log entry is never forwarded (its addr and val fields are
// unused, so not even to address 0), and once commitMemLog has run every
// load reads device memory.
func TestSMForwardsOwnStores(t *testing.T) {
	c := testConfig()
	c.NumSMs = 1
	g, err := New(c)
	if err != nil {
		t.Fatal(err)
	}
	if err := g.Mem().Store32(0, 7); err != nil {
		t.Fatal(err)
	}
	sm := g.sms[0]
	load := func(addr, want uint32) {
		t.Helper()
		if v, err := sm.loadGlobal(addr); err != nil || v != want {
			t.Fatalf("load 0x%x = %d, %v; want %d", addr, v, err, want)
		}
	}
	sm.bufferStore(64, 1)
	sm.bufferStore(68, 9)
	sm.bufferStore(64, 2)
	atom := &inflight{eff: 1}
	atom.res.dstVals = new(core.WarpReg)
	atom.atomAdds[0] = 5
	sm.memLog = append(sm.memLog, memOp{atom: atom})
	load(64, 2)
	load(68, 9)
	load(0, 7)
	if v, _ := g.Mem().Load32(64); v != 0 {
		t.Fatalf("buffered store reached memory before the commit: %d", v)
	}

	sm.commitMemLog()
	if len(sm.memLog) != 0 {
		t.Fatalf("commit left %d log entries", len(sm.memLog))
	}
	load(64, 2)
	load(68, 9)
	load(0, 12)
	if old := atom.res.dstVals[0]; old != 7 {
		t.Fatalf("atomic old value = %d, want 7", old)
	}
	if err := g.Mem().Store32(64, 3); err != nil {
		t.Fatal(err)
	}
	load(64, 3)
}
